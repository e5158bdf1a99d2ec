// The -json flag turns ppc-bench into a machine-readable perf-regression
// harness: it runs the performance-critical benchmark families under
// testing.Benchmark and writes ns/op, allocs/op and bytes/op per family
// to a JSON file (BENCH_1.json by convention), so future changes can be
// checked against the recorded trajectory.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppclust/internal/alphabet"
	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/editdist"
	"ppclust/internal/hcluster"
	"ppclust/internal/netid"
	"ppclust/internal/pam"
	"ppclust/internal/party"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/server"
	"ppclust/internal/wire"
)

// numericBatchColumns builds the two deterministic integer columns of the
// numeric-batch family.
func numericBatchColumns(n int) (xs, ys []int64) {
	xs, ys = make([]int64, n), make([]int64, n)
	for i := range xs {
		xs[i], ys[i] = int64(i%1000), int64((3*i)%1000)
	}
	return xs, ys
}

// numericBatchRound runs one full initiator → responder → third-party
// round of the batch-mode integer protocol — the exact op the
// numeric-batch family times, shared with the allocs-per-op regression
// test so the test gates the same code path the trajectory records.
func numericBatchRound(eng *protocol.Engine, xs, ys []int64) error {
	seedJK := rng.SeedFromUint64(1)
	seedJT := rng.SeedFromUint64(2)
	d, err := eng.NumericInitiatorInt(xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), protocol.DefaultIntParams, protocol.Batch, 0)
	if err != nil {
		return err
	}
	s, err := eng.NumericResponderInt(d, ys, rng.NewAESCTR(seedJK), protocol.DefaultIntParams, protocol.Batch)
	if err != nil {
		return err
	}
	_, err = eng.NumericThirdPartyInt(s, rng.NewAESCTR(seedJT), protocol.DefaultIntParams, protocol.Batch)
	return err
}

// benchResult is one family's measurement.
type benchResult struct {
	Family    string  `json:"family"`
	N         int     `json:"n"`
	Iters     int     `json:"iters"`
	NsPerOp   float64 `json:"ns_per_op"`
	AllocsOp  int64   `json:"allocs_per_op"`
	BytesOp   int64   `json:"bytes_per_op"`
	GoMaxProc int     `json:"gomaxprocs"`
	// P99Ns and SessionsPerSec are reported by the session-multitenant
	// family only: tail per-session latency and aggregate throughput.
	P99Ns          float64 `json:"p99_ns,omitempty"`
	SessionsPerSec float64 `json:"sessions_per_sec,omitempty"`
	// ShardPeakBytes is reported by the session-sharded family only: the
	// largest per-shard condensed-matrix slice, which drops ~1/K as the
	// row-range partition widens.
	ShardPeakBytes float64 `json:"shard_peak_bytes,omitempty"`
}

// benchFamilies are the hot paths the perf trajectory tracks: the numeric
// comparison protocol (serial engine vs all-core engine), the third
// party's edit-distance DP, local matrix construction, the
// merge+normalize pipeline, since PR 2 the clustering backend
// (MST/NN-chain engines vs the retained generic reference at n=500) and
// the FastPAM1-backed PAM at the swap-round scale (n=512, k=8), since
// PR 3 the session-pipeline family (a whole session over
// latency-injecting TP links; n is the global object count), since PR 4 the
// session-stream family: one big-triangle attribute over
// bandwidth-limited store-and-forward links, sweeping the local-matrix
// chunk size against the monolithic wire shape, since PR 5 its
// both-large rows, where equal partitions make the pairwise S matrix the
// dominant payload and the chunked pairwise streaming the lever, and
// since PR 7 the session-multitenant family: the same total workload as N
// concurrent tenant sessions on the multi-tenant server vs one big
// session, reporting p99 per-session latency and sessions/sec, and since
// PR 8 the session-sharded family: the both-large session with the third
// party split into K row-range shards behind the merge coordinator,
// reporting the widest per-shard triangle slice alongside wall time, and
// since PR 9 the session-reconnect family: the equal-partition session
// over the same 1 ms / 64 MB/s TP links, measuring the fault-free cost of
// arming the mid-session resume layer (replay cache + watermarks) against
// the unarmed baseline, and the wall-time cost of a session whose
// holder→TP lane flaps mid-stream and recovers through watermarked replay.
// Since PR 10 the session-shardproc family prices the cross-process worker
// protocol: the same sharded session with its K shard pipelines behind
// real localhost TCP links (v4 shard registration, AES-GCM worker
// channels) served by in-process shard workers, against the in-process
// sharded rows as the overhead baseline.
func benchFamilies() []struct {
	name string
	n    int
	fn   func(b *testing.B)
} {
	const n = 256
	xs, ys := numericBatchColumns(n)
	numericRound := func(b *testing.B, workers int) {
		eng := protocol.NewEngine(workers)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := numericBatchRound(eng, xs, ys); err != nil {
				b.Fatal(err)
			}
		}
	}

	st := rng.NewXoshiro(rng.SeedFromUint64(8))
	strs := make([][]alphabet.Symbol, n)
	for i := range strs {
		strs[i] = make([]alphabet.Symbol, 24)
		for j := range strs[i] {
			strs[i][j] = alphabet.Symbol(rng.Symbol(st, 4))
		}
	}
	localEdit := func(b *testing.B, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dissim.FromLocalPar(n, workers, func(int) func(i, j int) float64 {
				sc := editdist.MustUnitScratch()
				return func(i, j int) float64 {
					return float64(sc.Distance(strs[i], strs[j]))
				}
			})
		}
	}

	ccm := editdist.BuildCCM(strs[0], strs[1])
	col := make([]float64, n)
	for i := range col {
		col[i] = float64(i % 97)
	}
	numDist := func(i, j int) float64 {
		d := col[i] - col[j]
		if d < 0 {
			d = -d
		}
		return d
	}
	ms := []*dissim.Matrix{
		dissim.FromLocal(n, numDist),
		dissim.FromLocal(n, func(i, j int) float64 { return numDist(i, j) + 1 }),
	}
	weights := []float64{1, 2}
	mergeNorm := func(b *testing.B, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m, err := dissim.WeightedMergePar(ms, weights, workers)
			if err != nil {
				b.Fatal(err)
			}
			m.NormalizePar(workers)
		}
	}

	cs := rng.NewXoshiro(rng.SeedFromUint64(2))
	cm := dissim.New(500)
	for i := 1; i < 500; i++ {
		for j := 0; j < i; j++ {
			cm.Set(i, j, rng.Float64(cs)+0.01)
		}
	}
	cluster := func(b *testing.B, link hcluster.Linkage, algo hcluster.Algorithm, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hcluster.ClusterOpt(cm, link, hcluster.ClusterOptions{Algorithm: algo, Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Silhouette is the clustering-stage family whose parallel variant
	// genuinely fans out at n=500 (per-object O(n) scans, not grain-gated
	// like the per-merge row updates), so it is the row that demonstrates
	// multi-core speedup for the clustering stage on multi-core sweeps.
	silLabels := make([]int, 500)
	for i := range silLabels {
		silLabels[i] = i % 4
	}
	silhouette := func(b *testing.B, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hcluster.SilhouettePar(cm, silLabels, workers); err != nil {
				b.Fatal(err)
			}
		}
	}
	ps := rng.NewXoshiro(rng.SeedFromUint64(42))
	pm := dissim.New(512)
	for i := 1; i < 512; i++ {
		for j := 0; j < i; j++ {
			pm.Set(i, j, rng.Float64(ps)+0.01)
		}
	}
	pamRun := func(b *testing.B, workers int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pam.Cluster(pm, 8, rng.NewXoshiro(rng.SeedFromUint64(7)), pam.Config{Workers: workers}); err != nil {
				b.Fatal(err)
			}
		}
	}

	// session-pipeline: a full 3-holder mixed-attribute session whose
	// TP links carry 1ms (+0.5ms jitter) of per-frame receive latency —
	// the WAN shape the session pipeline exists for: it overlaps attribute
	// assembly with wire I/O.
	sessSchema := dataset.Schema{Attrs: []dataset.Attribute{
		{Name: "age", Type: dataset.Numeric},
		{Name: "income", Type: dataset.Numeric},
		{Name: "seq", Type: dataset.Alphanumeric, Alphabet: alphabet.DNA},
		{Name: "city", Type: dataset.Categorical},
	}}
	ss := rng.NewXoshiro(rng.SeedFromUint64(31))
	var sessParts []dataset.Partition
	for pi, site := range []string{"A", "B", "C"} {
		tab := dataset.MustNewTable(sessSchema)
		for r := 0; r < 24+pi; r++ {
			dna := make([]byte, 8)
			for i := range dna {
				dna[i] = "ACGT"[rng.Symbol(ss, 4)]
			}
			tab.MustAppendRow(float64(rng.Symbol(ss, 80)), float64(rng.Symbol(ss, 5000)),
				string(dna), fmt.Sprintf("c%d", rng.Symbol(ss, 4)))
		}
		sessParts = append(sessParts, dataset.Partition{Site: site, Table: tab})
	}
	sessionPipeline := func(b *testing.B) {
		cfg := party.Config{Schema: sessSchema, Variant: party.Float64Variant}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Fresh seed counter per session: every iteration sees the
			// identical per-link jitter schedule.
			latencySeed := uint64(0)
			tpLatency := func(owner, peer string, c wire.Conduit) wire.Conduit {
				if owner != party.TPName {
					return c
				}
				latencySeed++
				return wire.Latency(c, time.Millisecond, time.Millisecond/2, latencySeed)
			}
			if _, err := party.RunInMemoryWrapped(cfg, sessParts, nil, detRandom, tpLatency); err != nil {
				b.Fatal(err)
			}
		}
	}

	// session-stream: a lopsided two-holder session with one large numeric
	// attribute (n=1200 objects at the big holder, ~6 MB of packed
	// triangle on the wire) whose TP links are store-and-forward 1 ms /
	// 64 MB/s bottlenecks (wire.Link). With a single comparison attribute
	// the PR 3 pipeline has no neighboring attribute to overlap with, so
	// its monolithic local frame serializes holder encode → transfer →
	// TP decode+install; the chunked rows sweep the LocalChunkBytes knob
	// and overlap all three inside the transfer window. Reports are
	// bit-identical across every row (pinned by internal/party's
	// differential tests); only wall-clock and allocation shape differ.
	streamSchema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	var streamParts []dataset.Partition
	for pi, spec := range []struct {
		site string
		rows int
	}{{"A", 1200}, {"B", 6}} {
		tab := dataset.MustNewTable(streamSchema)
		for r := 0; r < spec.rows; r++ {
			// Continuous values, as real attributes have (8 bytes per cell
			// on the wire whatever the value).
			tab.MustAppendRow((float64(r*37+pi) + 0.125) * 1.000003)
		}
		streamParts = append(streamParts, dataset.Partition{Site: spec.site, Table: tab})
	}
	sessionStream := func(b *testing.B, parts []dataset.Partition, chunkBytes int) {
		cfg := party.Config{Schema: streamSchema, Variant: party.Float64Variant, LocalChunkBytes: chunkBytes}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linkSeed := uint64(0)
			tpLink := func(owner, peer string, c wire.Conduit) wire.Conduit {
				if owner != party.TPName {
					return c
				}
				linkSeed++
				return wire.Link(c, time.Millisecond, 0, 64<<20, linkSeed)
			}
			if _, err := party.RunInMemoryWrapped(cfg, parts, nil, detRandom, tpLink); err != nil {
				b.Fatal(err)
			}
		}
	}

	// both-partitions-large: the same single-attribute session with equal
	// 600-object partitions, so the dominant payload is no longer a local
	// triangle but the responder→TP masked S matrix (600×600 cells) — the
	// message that stayed monolithic, and wire.MaxFrame-bound, until PR 5
	// chunked the pairwise protocol payloads. The mono row ships it as one
	// frame; the chunked rows stream it in the shared row-range schedule.
	var bothParts []dataset.Partition
	for pi, site := range []string{"A", "B"} {
		tab := dataset.MustNewTable(streamSchema)
		for r := 0; r < 600; r++ {
			tab.MustAppendRow((float64(r*41+pi) + 0.375) * 1.000007)
		}
		bothParts = append(bothParts, dataset.Partition{Site: site, Table: tab})
	}

	// session-multitenant: the same total workload (480 objects over TP
	// links with 1 ms propagation and a 64 MB/s bottleneck) sliced two
	// ways across the PR 7 multi-tenant server — four small tenant
	// sessions running concurrently under admission control vs one big
	// session. Besides ns/op the family reports per-session p99 wall time
	// and aggregate sessions/sec: tenancy amortizes link latency across
	// sessions and sidesteps the monolith's O(n²) triangle, at the price
	// of per-session overheads the 1-big row doesn't pay.
	multiTenant := func(b *testing.B, nSessions, rowsPerHolder int) {
		mtHolders := []string{"A", "B"}
		tables := map[string]*dataset.Table{}
		for pi, site := range mtHolders {
			tab := dataset.MustNewTable(streamSchema)
			for r := 0; r < rowsPerHolder; r++ {
				tab.MustAppendRow((float64(r*43+pi) + 0.5) * 1.000011)
			}
			tables[site] = tab
		}
		// The phase timeout is a safety net only: a wedged session fails
		// the benchmark descriptively instead of hanging the run.
		scfg := party.Config{Schema: streamSchema, Variant: party.Float64Variant, PhaseTimeout: 30 * time.Second}
		mgr, err := server.New(server.Config{
			Holders: mtHolders,
			Session: scfg,
			// Headroom above nSessions: a finished session's slot releases
			// an instant after its holders return, so the next iteration's
			// arrivals briefly overlap; the queue absorbs any remainder.
			MaxSessions: 2 * nSessions,
			QueueDepth:  4 * nSessions,
			Random:      func(session string) io.Reader { return detRandom(party.TPName) },
		})
		if err != nil {
			b.Fatal(err)
		}
		defer mgr.Close()
		var linkSeed atomic.Uint64
		runSession := func(id string) error {
			hA, tA := wire.Pipe()
			hB, tB := wire.Pipe()
			ab, ba := wire.Pipe()
			defer func() {
				for _, c := range []wire.Conduit{hA, hB, ab, ba} {
					c.Close()
				}
			}()
			link := func(c wire.Conduit) wire.Conduit {
				return wire.Link(c, time.Millisecond, 0, 64<<20, linkSeed.Add(1))
			}
			mgr.Submit(netid.Hello{Name: "A", Session: id, Version: netid.Version}, link(tA), nil)
			mgr.Submit(netid.Hello{Name: "B", Session: id, Version: netid.Version}, link(tB), nil)
			errs := make(chan error, 2)
			run := func(name, peer string, tp, hh wire.Conduit) {
				h, err := party.NewHolder(name, tables[name], mtHolders, scfg, party.ClusterRequest{K: 2},
					map[string]wire.Conduit{party.TPName: tp, peer: hh}, detRandom(name))
				if err != nil {
					errs <- err
					return
				}
				_, err = h.Run()
				errs <- err
			}
			go run("A", "B", hA, ab)
			go run("B", "A", hB, ba)
			if err := <-errs; err != nil {
				return err
			}
			return <-errs
		}
		b.ReportAllocs()
		var mu sync.Mutex
		var lat []time.Duration
		start := time.Now()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			errCh := make(chan error, nSessions)
			for s := 0; s < nSessions; s++ {
				id := fmt.Sprintf("iter%d-s%d", i, s)
				wg.Add(1)
				go func(id string) {
					defer wg.Done()
					t0 := time.Now()
					if err := runSession(id); err != nil {
						errCh <- err
						return
					}
					mu.Lock()
					lat = append(lat, time.Since(t0))
					mu.Unlock()
				}(id)
			}
			wg.Wait()
			select {
			case err := <-errCh:
				b.Fatal(err)
			default:
			}
		}
		elapsed := time.Since(start)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		if len(lat) > 0 {
			p99 := lat[(99*len(lat)+99)/100-1]
			b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
		}
		if sec := elapsed.Seconds(); sec > 0 {
			b.ReportMetric(float64(nSessions*b.N)/sec, "sessions/sec")
		}
	}

	// session-sharded: the both-large session (equal 600-object
	// partitions, responder→TP S matrix dominant) with the third party
	// split into K row-range shards, every TP-side lane — control and
	// shard — behind the same 1 ms / 64 MB/s store-and-forward link. K=1
	// is the degenerate coordinator and must match the single-TP rows;
	// K=2 and K=4 drain the triangle over parallel lanes. Reports are
	// bit-identical at every K (pinned by internal/party's differential
	// tests). Besides ns/op the family reports the widest per-shard
	// condensed-triangle slice, which falls ~1/K as the partition widens.
	sessionSharded := func(b *testing.B, k int) {
		cfg := party.Config{Schema: streamSchema, Variant: party.Float64Variant, TPShards: k}
		tpEnd := func(s string) bool {
			return s == party.TPName || strings.HasPrefix(s, party.TPName+"#")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linkSeed := uint64(0)
			tpLink := func(owner, peer string, c wire.Conduit) wire.Conduit {
				if !tpEnd(owner) && !tpEnd(peer) {
					return c
				}
				linkSeed++
				return wire.Link(c, time.Millisecond, 0, 64<<20, linkSeed)
			}
			if _, err := party.RunInMemoryWrapped(cfg, bothParts, nil, detRandom, tpLink); err != nil {
				b.Fatal(err)
			}
		}
		peak := 0
		for _, r := range dissim.ShardRanges(1200, k) {
			if cells := r[1]*(r[1]-1)/2 - r[0]*(r[0]-1)/2; 8*cells > peak {
				peak = 8 * cells
			}
		}
		b.ReportMetric(float64(peak), "shard-peak-bytes")
	}

	// session-shardproc: the session-sharded workload with its K shard
	// pipelines running behind the cross-process worker protocol — the
	// coordinator dials each shard over real localhost TCP, registers
	// with the v4 shard hello and relays holder frames over an AES-GCM
	// worker channel. The workers are in-process party.ShardServers, so
	// the rows price the control protocol and the extra encrypt/relay
	// hop, not subprocess spawn noise. Holder-visible lanes carry the
	// same 1 ms / 64 MB/s links as session-sharded, making the delta
	// against those rows the worker-relay overhead. Reports stay
	// bit-identical to every other family row at the same n (pinned by
	// internal/party's and internal/proctest's differential tests).
	sessionShardProc := func(b *testing.B, k int) {
		srv, err := party.NewShardServer(party.ShardServerConfig{Schema: streamSchema})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(ln)
		addr := ln.Addr().String()
		dial := func(session string) party.ShardDialFunc {
			return func(ctx context.Context, shard int, state party.ResumeState) (wire.Conduit, party.ResumeGrant, error) {
				var d net.Dialer
				conn, err := d.DialContext(ctx, "tcp", addr)
				if err != nil {
					return nil, party.ResumeGrant{}, err
				}
				if err := netid.AnnounceShardRegistrationWithin(conn, party.TPName, session, shard,
					state.Epoch, state.Sent, state.Recv, 10*time.Second); err != nil {
					conn.Close()
					return nil, party.ResumeGrant{}, err
				}
				sent, recv, err := netid.AwaitResumeGrant(conn, 10*time.Second)
				if err != nil {
					conn.Close()
					return nil, party.ResumeGrant{}, err
				}
				return wire.TCPPooled(conn), party.ResumeGrant{Sent: sent, Recv: recv}, nil
			}
		}
		tpEnd := func(s string) bool {
			return s == party.TPName || strings.HasPrefix(s, party.TPName+"#")
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := party.Config{Schema: streamSchema, Variant: party.Float64Variant, TPShards: k,
				ShardDial: dial(fmt.Sprintf("bench-shardproc-%d-%d", k, i))}
			linkSeed := uint64(0)
			tpLink := func(owner, peer string, c wire.Conduit) wire.Conduit {
				if !tpEnd(owner) && !tpEnd(peer) {
					return c
				}
				linkSeed++
				return wire.Link(c, time.Millisecond, 0, 64<<20, linkSeed)
			}
			if _, err := party.RunInMemoryWrapped(cfg, bothParts, nil, detRandom, tpLink); err != nil {
				b.Fatal(err)
			}
		}
	}

	// session-reconnect: equal 200-object partitions over the usual
	// 1 ms / 64 MB/s TP links. baseline runs unarmed; armed prices the
	// resume layer's replay cache and watermark accounting on a fault-free
	// run (the steady-state cost of -reconnect-window); flap-recover cuts
	// holder B's TP lane at its 6th transport frame — mid-stream — and
	// includes the redial, watermark exchange and replay in the measured
	// wall time. Reports are bit-identical across all three rows (pinned
	// by internal/party's differential reconnect tests).
	var reconParts []dataset.Partition
	for pi, site := range []string{"A", "B"} {
		tab := dataset.MustNewTable(streamSchema)
		for r := 0; r < 200; r++ {
			tab.MustAppendRow((float64(r*37+pi) + 0.25) * 1.000003)
		}
		reconParts = append(reconParts, dataset.Partition{Site: site, Table: tab})
	}
	sessionReconnect := func(b *testing.B, window time.Duration, flap bool) {
		cfg := party.Config{Schema: streamSchema, Variant: party.Float64Variant, ResumeWindow: window}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			linkSeed := uint64(0)
			var flapped atomic.Bool
			wrap := func(owner, peer string, c wire.Conduit) wire.Conduit {
				if owner == party.TPName {
					linkSeed++
					c = wire.Link(c, time.Millisecond, 0, 64<<20, linkSeed)
				}
				// Only the first conduit instance of B's TP lane carries the
				// fault; the redialed replacement must flow clean.
				if flap && owner == "B" && peer == party.TPName && flapped.CompareAndSwap(false, true) {
					c = wire.Fault(c, wire.FaultSpec{Kind: wire.FaultFlap, Frame: 6})
				}
				return c
			}
			if _, err := party.RunInMemoryWrapped(cfg, reconParts, nil, detRandom, wrap); err != nil {
				b.Fatal(err)
			}
		}
	}

	return []struct {
		name string
		n    int
		fn   func(b *testing.B)
	}{
		{"numeric-batch/serial", n, func(b *testing.B) { numericRound(b, 1) }},
		{"numeric-batch/parallel", n, func(b *testing.B) { numericRound(b, 0) }},
		{"hcluster-single/serial", 500, func(b *testing.B) { cluster(b, hcluster.Single, hcluster.AlgoAuto, 1) }},
		{"hcluster-single/parallel", 500, func(b *testing.B) { cluster(b, hcluster.Single, hcluster.AlgoAuto, 0) }},
		{"hcluster-single/reference", 500, func(b *testing.B) { cluster(b, hcluster.Single, hcluster.AlgoGeneric, 1) }},
		{"hcluster-average/serial", 500, func(b *testing.B) { cluster(b, hcluster.Average, hcluster.AlgoAuto, 1) }},
		{"hcluster-average/parallel", 500, func(b *testing.B) { cluster(b, hcluster.Average, hcluster.AlgoAuto, 0) }},
		{"hcluster-silhouette/serial", 500, func(b *testing.B) { silhouette(b, 1) }},
		{"hcluster-silhouette/parallel", 500, func(b *testing.B) { silhouette(b, 0) }},
		{"pam-swap/serial", 512, func(b *testing.B) { pamRun(b, 1) }},
		{"pam-swap/parallel", 512, func(b *testing.B) { pamRun(b, 0) }},
		{"session-pipeline/pipelined", 75, sessionPipeline},
		{"session-stream/pipelined-mono", 1206, func(b *testing.B) { sessionStream(b, streamParts, -1) }},
		{"session-stream/chunk-256k", 1206, func(b *testing.B) { sessionStream(b, streamParts, 256<<10) }},
		{"session-stream/chunk-64k", 1206, func(b *testing.B) { sessionStream(b, streamParts, 64<<10) }},
		{"session-stream/chunk-4k", 1206, func(b *testing.B) { sessionStream(b, streamParts, 4<<10) }},
		{"session-stream/both-large-mono", 1200, func(b *testing.B) { sessionStream(b, bothParts, -1) }},
		{"session-stream/both-large-chunk-256k", 1200, func(b *testing.B) { sessionStream(b, bothParts, 256<<10) }},
		{"session-stream/both-large-chunk-64k", 1200, func(b *testing.B) { sessionStream(b, bothParts, 64<<10) }},
		{"session-multitenant/4x120", 480, func(b *testing.B) { multiTenant(b, 4, 60) }},
		{"session-multitenant/1x480", 480, func(b *testing.B) { multiTenant(b, 1, 240) }},
		{"session-sharded/shards-1", 1200, func(b *testing.B) { sessionSharded(b, 1) }},
		{"session-sharded/shards-2", 1200, func(b *testing.B) { sessionSharded(b, 2) }},
		{"session-sharded/shards-4", 1200, func(b *testing.B) { sessionSharded(b, 4) }},
		{"session-shardproc/workers-2", 1200, func(b *testing.B) { sessionShardProc(b, 2) }},
		{"session-shardproc/workers-4", 1200, func(b *testing.B) { sessionShardProc(b, 4) }},
		{"session-reconnect/baseline", 400, func(b *testing.B) { sessionReconnect(b, 0, false) }},
		{"session-reconnect/armed", 400, func(b *testing.B) { sessionReconnect(b, 10*time.Second, false) }},
		{"session-reconnect/flap-recover", 400, func(b *testing.B) { sessionReconnect(b, 10*time.Second, true) }},
		{"editdist-ccm-scratch", 24, func(b *testing.B) {
			sc := editdist.MustUnitScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc.FromCCM(ccm)
			}
		}},
		{"local-editdist/serial", n, func(b *testing.B) { localEdit(b, 1) }},
		{"local-editdist/parallel", n, func(b *testing.B) { localEdit(b, 0) }},
		{"merge-normalize/serial", n, func(b *testing.B) { mergeNorm(b, 1) }},
		{"merge-normalize/parallel", n, func(b *testing.B) { mergeNorm(b, 0) }},
	}
}

// runBenchJSON measures every family at each GOMAXPROCS setting and
// writes the JSON report to path. Families run once pinned to a single
// core (the serial trajectory every report has tracked) and once at the
// machine's full core count, so the parallel variants demonstrate — and
// regress against — actual multi-core speedup rather than a one-core
// schedule. On a single-core machine the two settings coincide and only
// one sweep runs.
func runBenchJSON(w io.Writer, path string) error {
	// "All cores" is the operator's effective setting (GOMAXPROCS env or
	// cgroup-aware default), not the raw host count — NumCPU would
	// oversubscribe a quota-limited container and record throttled noise.
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	sweep := []int{1}
	if prev > 1 {
		sweep = append(sweep, prev)
	}
	var results []benchResult
	for _, gmp := range sweep {
		runtime.GOMAXPROCS(gmp)
		fmt.Fprintf(w, "GOMAXPROCS=%d\n", gmp)
		for _, fam := range benchFamilies() {
			r := testing.Benchmark(fam.fn)
			res := benchResult{
				Family:         fam.name,
				N:              fam.n,
				Iters:          r.N,
				NsPerOp:        float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsOp:       r.AllocsPerOp(),
				BytesOp:        r.AllocedBytesPerOp(),
				GoMaxProc:      gmp,
				P99Ns:          r.Extra["p99-ns"],
				SessionsPerSec: r.Extra["sessions/sec"],
				ShardPeakBytes: r.Extra["shard-peak-bytes"],
			}
			results = append(results, res)
			fmt.Fprintf(w, "%-28s %12.0f ns/op %8d allocs/op %10d B/op\n",
				res.Family, res.NsPerOp, res.AllocsOp, res.BytesOp)
		}
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}
