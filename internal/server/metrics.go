package server

import (
	"fmt"
	"sync/atomic"

	"ppclust/internal/party"
	"ppclust/internal/wire"
)

// Metrics is the manager's observability surface: monotonic counters and
// gauges kept with atomics, plus one wire.Counter every session conduit is
// metered through. Expose Snapshot on an expvar endpoint (cmd/ppc-tp's
// -debug-addr does) or poll it directly in tests.
type Metrics struct {
	admitted  atomic.Int64
	refused   atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	drained   atomic.Int64

	activeSessions atomic.Int64
	queued         atomic.Int64

	reservedHW atomic.Int64
	estimateHW atomic.Int64

	// shardsActive gauges the in-process TP shard engines currently
	// serving running sessions (shard count × running sessions when the
	// server shards; always 0 on the single-TP path).
	shardsActive atomic.Int64

	// Worker-pool counters (ShardAddrs mode only): shardProcsActive gauges
	// the coordinator→worker links currently connected across running
	// sessions; shardRestarts counts worker links re-established after a
	// degrade (each one is a worker process death or link sever the
	// reconnect window absorbed).
	shardProcsActive atomic.Int64
	shardRestarts    atomic.Int64

	// Reconnect counters: sessionsDegraded gauges sessions with at least
	// one lane down inside its reconnect window; reconnAccepted and
	// reconnRefused count resume hellos granted and refused.
	sessionsDegraded atomic.Int64
	reconnAccepted   atomic.Int64
	reconnRefused    atomic.Int64

	// Wire meters every session conduit at the server's edge (outside the
	// encryption layer), summed over all tenants: received bytes are
	// holder→TP traffic, sent bytes are TP→holder traffic.
	Wire wire.Counter

	// shardWire meters each shard lane's conduits separately (in addition
	// to Wire, which still sums everything). Sized to the shard count by
	// New; nil on the single-TP path.
	shardWire []wire.Counter

	// workerWire meters the coordinator→worker links of ShardAddrs mode —
	// the control traffic to external shard processes, which never touches
	// Wire (that counter is the holder-facing edge).
	workerWire wire.Counter
}

// Admitted returns the number of sessions ever admitted (gathering slot
// granted), including those later refused at gather timeout.
func (m *Metrics) Admitted() int64 { return m.admitted.Load() }

// Refused returns the number of typed admission refusals sent (or, for a
// bare name label, which reads no frame, connections closed in refusal).
func (m *Metrics) Refused() int64 { return m.refused.Load() }

// Completed returns the number of sessions that ran to a published report.
func (m *Metrics) Completed() int64 { return m.completed.Load() }

// Failed returns the number of sessions that ended in a classified error.
func (m *Metrics) Failed() int64 { return m.failed.Load() }

// Active returns the sessions currently holding a slot (gathering or
// running).
func (m *Metrics) Active() int64 { return m.activeSessions.Load() }

// Degraded returns the sessions currently holding at least one severed
// lane inside its reconnect window.
func (m *Metrics) Degraded() int64 { return m.sessionsDegraded.Load() }

// ReconnectsAccepted returns the resume hellos granted.
func (m *Metrics) ReconnectsAccepted() int64 { return m.reconnAccepted.Load() }

// ReconnectsRefused returns the resume hellos refused (typed reject or
// undeliverable grant).
func (m *Metrics) ReconnectsRefused() int64 { return m.reconnRefused.Load() }

// Queued returns the sessions currently parked in the admission queue.
func (m *Metrics) Queued() int64 { return m.queued.Load() }

// ShardProcsActive returns the coordinator→worker links currently
// connected across running sessions (ShardAddrs mode; 0 otherwise).
func (m *Metrics) ShardProcsActive() int64 { return m.shardProcsActive.Load() }

// ShardRestarts returns the worker links re-established after a degrade.
func (m *Metrics) ShardRestarts() int64 { return m.shardRestarts.Load() }

// noteReserved records a new reservation total for the high-water mark.
func (m *Metrics) noteReserved(total int64) {
	for {
		hw := m.reservedHW.Load()
		if total <= hw || m.reservedHW.CompareAndSwap(hw, total) {
			return
		}
	}
}

// noteEstimate records one session's census-time budget estimate for the
// high-water mark — the true-size counterpart of the admission-time
// reservation.
func (m *Metrics) noteEstimate(estimate int64) {
	for {
		hw := m.estimateHW.Load()
		if estimate <= hw || m.estimateHW.CompareAndSwap(hw, estimate) {
			return
		}
	}
}

// Snapshot renders every counter under its documented name (the names are
// the stable operational interface; docs/ARCHITECTURE.md lists them):
//
//	sessions_admitted   sessions ever granted a slot
//	sessions_active     gauge: slots held now (gathering + running)
//	sessions_queued     gauge: parked in the admission queue
//	sessions_refused    typed refusals sent
//	sessions_completed  reports published
//	sessions_failed     classified session failures
//	sessions_drained    sessions that finished during a drain
//	sessions_degraded   gauge: sessions with a severed lane inside its
//	                    reconnect window
//	reconnects_accepted resume hellos granted
//	reconnects_refused  resume hellos refused
//	wire_sent_bytes / wire_sent_frames / wire_recv_bytes / wire_recv_frames
//	                    summed session traffic at the server edge
//	compute_active      gauge: compute tokens held now, process-wide — the
//	                    chunks and attribute finishes being evaluated
//	shards_active       gauge: in-process TP shard engines serving running
//	                    sessions (0 on the single-TP path)
//	shard_procs_active  gauge: coordinator→worker links connected now
//	                    (ShardAddrs mode; 0 otherwise)
//	shard_restarts      worker links re-established after a degrade
//	wire_*_shard<N>     per-shard-lane traffic (present only when the
//	                    server shards the third party)
//	wire_*_workers      coordinator→worker link traffic (ShardAddrs mode)
//	budget_reserved_high_water_bytes
//	                    peak summed admission reservations
//	budget_estimate_high_water_bytes
//	                    peak census-time per-session estimate
func (m *Metrics) Snapshot() map[string]int64 {
	sentB, sentF := m.Wire.Sent()
	recvB, recvF := m.Wire.Received()
	snap := map[string]int64{
		"sessions_admitted":                m.admitted.Load(),
		"sessions_active":                  m.activeSessions.Load(),
		"sessions_queued":                  m.queued.Load(),
		"sessions_refused":                 m.refused.Load(),
		"sessions_completed":               m.completed.Load(),
		"sessions_failed":                  m.failed.Load(),
		"sessions_drained":                 m.drained.Load(),
		"sessions_degraded":                m.sessionsDegraded.Load(),
		"reconnects_accepted":              m.reconnAccepted.Load(),
		"reconnects_refused":               m.reconnRefused.Load(),
		"wire_sent_bytes":                  int64(sentB),
		"wire_sent_frames":                 int64(sentF),
		"wire_recv_bytes":                  int64(recvB),
		"wire_recv_frames":                 int64(recvF),
		"compute_active":                   party.ComputeActive(),
		"shards_active":                    m.shardsActive.Load(),
		"shard_procs_active":               m.shardProcsActive.Load(),
		"shard_restarts":                   m.shardRestarts.Load(),
		"budget_reserved_high_water_bytes": m.reservedHW.Load(),
		"budget_estimate_high_water_bytes": m.estimateHW.Load(),
	}
	wsb, wsf := m.workerWire.Sent()
	wrb, wrf := m.workerWire.Received()
	snap["wire_sent_bytes_workers"] = int64(wsb)
	snap["wire_sent_frames_workers"] = int64(wsf)
	snap["wire_recv_bytes_workers"] = int64(wrb)
	snap["wire_recv_frames_workers"] = int64(wrf)
	for s := range m.shardWire {
		sb, sf := m.shardWire[s].Sent()
		rb, rf := m.shardWire[s].Received()
		snap[fmt.Sprintf("wire_sent_bytes_shard%d", s)] = int64(sb)
		snap[fmt.Sprintf("wire_sent_frames_shard%d", s)] = int64(sf)
		snap[fmt.Sprintf("wire_recv_bytes_shard%d", s)] = int64(rb)
		snap[fmt.Sprintf("wire_recv_frames_shard%d", s)] = int64(rf)
	}
	return snap
}
