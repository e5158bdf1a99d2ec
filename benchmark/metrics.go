package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. BENCHMARK.json at the repository
// root lists exactly these (main_test.go fails on drift either way).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median a change may lose
}

// runSeconds is how long one measured run lasts by default; BENCHMARK.json
// carries the same number as run_seconds.
const runSeconds = 20

// endToEnd is what a user of the system sees, measured with tracing off.
// The five timing bounds are the widest the benchmark contract allows:
// on the shared host the baseline was taken on, runs of one commit spread
// by 5 to 33 % (README.md, "Run-to-run spread", has the evidence), so they
// reject gross regressions only. The two counts repeat to 0.2 % and keep
// tight bounds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"session_ms_p50", "ms", "lower", 0.25},
	{"session_ms_p90", "ms", "lower", 0.25},
	{"sessions_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_session", "ms", "lower", 0.25},
	{"wire_mb_per_session", "MB", "lower", 0.01},
	{"alloc_mb_per_session", "MB", "lower", 0.02},
}

// perLayer is the traced run's output. Observed numbers are medians over
// the traced sessions; replayed numbers are CPU milliseconds per session.
var perLayer = []metricDef{
	{"session_ms_p99", "ms", "lower", 0},

	{"party.open_ms", "ms", "lower", 0},
	{"party.stream_ms", "ms", "lower", 0},
	{"party.tail_ms", "ms", "lower", 0},
	{"party.holder_run_ms", "ms", "lower", 0},
	{"party.tp_run_ms", "ms", "lower", 0},

	{"wire.tp_recv_wait_ms", "ms", "lower", 0},
	{"wire.holder_send_block_ms", "ms", "lower", 0},
	{"wire.worker_send_block_ms", "ms", "lower", 0},
	{"wire.frames_per_session", "count", "lower", 0},
	{"wire.bytes_tp_links", "B", "lower", 0},
	{"wire.bytes_holder_links", "B", "lower", 0},
	{"wire.bytes_worker_links", "B", "lower", 0},
	{"wire.max_frame_bytes", "B", "lower", 0},

	{"wire.gob_encode_ms", "ms", "lower", 0},
	{"wire.gob_decode_ms", "ms", "lower", 0},
	{"wire.seal_ms", "ms", "lower", 0},
	{"wire.open_ms", "ms", "lower", 0},
	{"wire.tcp_frame_us", "us", "lower", 0},

	{"rng.fill_ms", "ms", "lower", 0},

	{"protocol.num_initiator_ms", "ms", "lower", 0},
	{"protocol.num_responder_ms", "ms", "lower", 0},
	{"protocol.num_thirdparty_ms", "ms", "lower", 0},
	{"protocol.alpha_responder_ms", "ms", "lower", 0},
	{"protocol.alpha_thirdparty_ms", "ms", "lower", 0},

	{"dissim.local_build_ms", "ms", "lower", 0},
	{"dissim.assemble_ms", "ms", "lower", 0},
	{"dissim.normalize_ms", "ms", "lower", 0},
	{"dissim.merge_ms", "ms", "lower", 0},

	{"editdist.ccm_ms", "ms", "lower", 0},
	{"detenc.encrypt_ms", "ms", "lower", 0},
	{"catdist.matrix_ms", "ms", "lower", 0},

	{"hcluster.cluster_ms", "ms", "lower", 0},
	{"hcluster.quality_ms", "ms", "lower", 0},
	{"pam.cluster_ms", "ms", "lower", 0},

	{"keys.handshake_ms", "ms", "lower", 0},
	{"netid.preamble_us", "us", "lower", 0},
	{"server.admission_wait_ms", "ms", "lower", 0},
	{"server.active_max", "count", "higher", 0},
	{"server.refused", "count", "lower", 0},

	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.peak_live_heap_mb", "MB", "lower", 0},
	{"proc.allocs_per_session", "count", "lower", 0},
	{"proc.gc_cpu_ms_per_session", "ms", "lower", 0},

	{"layers.attributed_ms", "ms", "higher", 0},
	{"layers.unattributed_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// attributed lists the replayed metrics whose CPU adds up to
// layers.attributed_ms. rng.fill_ms and editdist.ccm_ms are left out
// because their work is already inside the protocol.* figures.
var attributed = []string{
	"wire.gob_encode_ms", "wire.gob_decode_ms", "wire.seal_ms", "wire.open_ms",
	"protocol.num_initiator_ms", "protocol.num_responder_ms", "protocol.num_thirdparty_ms",
	"protocol.alpha_responder_ms", "protocol.alpha_thirdparty_ms",
	"dissim.local_build_ms", "dissim.assemble_ms", "dissim.normalize_ms", "dissim.merge_ms",
	"detenc.encrypt_ms", "catdist.matrix_ms",
	"hcluster.cluster_ms", "hcluster.quality_ms", "pam.cluster_ms",
	"keys.handshake_ms",
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}
