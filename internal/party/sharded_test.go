package party

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ppclust/internal/leakcheck"
	"ppclust/internal/protocol"
	"ppclust/internal/wire"
)

// TestShardedMatchesSingleTP is the sharded third party's differential
// pin: K row-range shards behind the merge coordinator, for K 1, 2 and 4
// crossed with Parallelism 1, 2 and all cores, must publish a report
// bit-identical to the phase-serial single-TP reference — matrices,
// scales, object ordering and every holder's clustering result. K=1
// additionally covers the degenerate coordinator that owns the whole
// triangle itself.
func TestShardedMatchesSingleTP(t *testing.T) {
	parts := pipelineParts(t, 10)
	reqs := pipelineReqs()
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialTP(base, parts, reqs, deterministicRandom(23), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, k := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 0} {
			cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: workers, TPShards: k}
			got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(23))
			if err != nil {
				t.Fatalf("shards=%d workers=%d: %v", k, workers, err)
			}
			assertSameOutcome(t, fmt.Sprintf("shards=%d workers=%d", k, workers), want, got)
		}
	}
}

// TestSessionMatrixMatchesOracle is the full differential matrix of the one
// session pipeline against the phase-serial oracle: every deployment of the
// row ranges — one range, 2 and 4 in-process shards, 2 shards in ShardServer
// workers over real TCP — crossed with chunk sizes one row per frame, 4 KiB,
// the 256 KiB default and one frame per payload, Parallelism 1, 2 and all
// cores, and
// the float64, int64, mod-p and per-pair arithmetic must publish a report
// bit-identical to the oracle's monolithic one. -short trims the chunk and
// Parallelism axes to their extremes.
func TestSessionMatrixMatchesOracle(t *testing.T) {
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	chunks, workers := []int{1, 4 << 10, 256 << 10, oneFrameBudget}, []int{1, 2, 0}
	if testing.Short() {
		chunks, workers = []int{1, oneFrameBudget}, []int{1, 0}
	}
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	for _, v := range []struct {
		name    string
		variant Variant
		mode    protocol.Mode
	}{
		{"float64", Float64Variant, protocol.Batch},
		{"int64", Int64Variant, protocol.Batch},
		{"modp", ModPVariant, protocol.Batch},
		{"per-pair", Float64Variant, protocol.PerPair},
	} {
		base := Config{Schema: pipelineSchema(), Variant: v.variant, Mode: v.mode, Parallelism: 1, LocalChunkBytes: oneFrameBudget}
		want, err := runSerialTP(base, parts, reqs, deterministicRandom(31), nil)
		if err != nil {
			t.Fatalf("%s oracle: %v", v.name, err)
		}
		for _, chunk := range chunks {
			for _, w := range workers {
				for _, dep := range []struct {
					name   string
					shards int
					procs  bool
				}{{"one-range", 1, false}, {"shards-2", 2, false}, {"shards-4", 4, false}, {"workers-2", 2, true}} {
					label := fmt.Sprintf("%s chunk=%d workers=%d %s", v.name, chunk, w, dep.name)
					cfg := base
					cfg.LocalChunkBytes, cfg.Parallelism, cfg.TPShards = chunk, w, dep.shards
					if dep.procs {
						cfg.ShardDial = pool.dialer(label, nil)
					}
					got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(31))
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					assertSameOutcome(t, label, want, got)
				}
			}
		}
	}
}

// TestShardedPerPairDisguisedChunkSweep extends the differential pin to
// per-pair masking — the mode whose initiator→responder disguised matrix
// now streams on the shared chunk schedule — across chunk sizes one row
// per frame, 4 KiB, the 256 KiB default and one frame per payload (the
// monolithic legacy shape), unsharded and at K=2. The mod-p variant rides along at the
// smallest chunk: its rejection-sampled per-cell masks are the most
// alignment-sensitive keystream across chunk and shard boundaries.
func TestShardedPerPairDisguisedChunkSweep(t *testing.T) {
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	for _, tc := range []struct {
		name    string
		variant Variant
		chunks  []int
	}{
		{"float64", Float64Variant, []int{1, 4 << 10, 256 << 10, oneFrameBudget}},
		{"modp", ModPVariant, []int{1}},
	} {
		base := Config{Schema: pipelineSchema(), Variant: tc.variant, Mode: protocol.PerPair,
			Parallelism: 1, LocalChunkBytes: oneFrameBudget}
		want, err := runSerialTP(base, parts, reqs, deterministicRandom(24), nil)
		if err != nil {
			t.Fatalf("%s baseline: %v", tc.name, err)
		}
		for _, chunk := range tc.chunks {
			for _, k := range []int{1, 2} {
				cfg := Config{Schema: pipelineSchema(), Variant: tc.variant, Mode: protocol.PerPair,
					Parallelism: 2, TPShards: k, LocalChunkBytes: chunk}
				got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(24))
				if err != nil {
					t.Fatalf("%s chunk=%d shards=%d: %v", tc.name, chunk, k, err)
				}
				assertSameOutcome(t, fmt.Sprintf("%s chunk=%d shards=%d", tc.name, chunk, k), want, got)
			}
		}
	}
}

// TestShardedMoreShardsThanRows covers the degenerate partitions at the
// session level: with more shards than triangle rows the coordinator
// plans fewer active ranges than conduits, the surplus lanes carry only
// their hellos, and the report stays bit-identical. One-row holders make
// several shard×holder row intersections empty.
func TestShardedMoreShardsThanRows(t *testing.T) {
	parts := pipelineParts(t, 1) // holders of 1, 2 and 3 rows: 6 triangle rows
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialTP(base, parts, nil, deterministicRandom(25), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, k := range []int{4, 8} {
		cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: k}
		got, err := RunInMemory(cfg, parts, nil, deterministicRandom(25))
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		assertSameOutcome(t, fmt.Sprintf("shards=%d", k), want, got)
	}
}

// TestChaosShardedConduitFault: a severed shard conduit mid-stream must
// abort the whole sharded session with a classified error — coordinator,
// sibling shard and every holder released, no goroutine left behind. The
// Chaos prefix places it in CI's race-enabled chaos smoke.
func TestChaosShardedConduitFault(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	for _, sc := range []struct {
		name string
		spec wire.FaultSpec
	}{
		// Frame 1 on a shard lane is the holder's hello; frames 2+ are
		// row-range chunk streams. C is the only holder whose cell-balanced
		// row share reaches shard 1, so its lane carries a real stream.
		{"cut-shard-hello", wire.FaultSpec{Kind: wire.FaultCut, Frame: 1}},
		{"cut-shard-stream", wire.FaultSpec{Kind: wire.FaultCut, Frame: 3}},
		{"drop-shard-stream", wire.FaultSpec{Kind: wire.FaultDrop, Frame: 2}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			leakcheck.Check(t)
			cfg := chaosConfig()
			cfg.TPShards = 2
			out, err := RunInMemoryWrapped(cfg, parts, pipelineReqs(),
				deterministicRandom(26), linkFault("C", ShardName(1), sc.spec))
			if err == nil {
				t.Fatalf("faulted shard conduit: session succeeded, outcome %v", out)
			}
			if !errors.Is(err, ErrAborted) && !errors.Is(err, ErrSessionTimeout) && !errors.Is(err, wire.ErrClosed) {
				t.Fatalf("faulted shard conduit: unclassified error: %v", err)
			}
		})
	}
}

// benchShardedSession runs one full session with the third party split
// into k row-range shards, every TP-side lane (control and shard) behind
// a store-and-forward link: 1 ms propagation, 64 MB/s bandwidth. The
// two-holder shape from the stream benchmarks keeps the responder→TP S
// matrix the dominant payload, so shard scaling shows up as K lanes
// draining it concurrently.
func benchShardedSession(b *testing.B, k int) {
	parts := pairCapParts(b, 400, 400)
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant, TPShards: k}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linkSeed := uint64(0)
		tpLink := func(owner, peer string, c wire.Conduit) wire.Conduit {
			if owner != TPName && peer != TPName && !isShardLane(owner, peer) {
				return c
			}
			linkSeed++
			return wire.Link(c, time.Millisecond, 0, 64<<20, linkSeed)
		}
		if _, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(27), tpLink); err != nil {
			b.Fatal(err)
		}
	}
}

// isShardLane reports whether either end of a session link is a TP shard
// ("TP#0", "TP#1", …) — the extra lanes the sharded driver adds.
func isShardLane(owner, peer string) bool {
	return strings.HasPrefix(owner, TPName+"#") || strings.HasPrefix(peer, TPName+"#")
}

// BenchmarkSessionSharded is the session-sharded family's in-tree smoke
// variant (CI runs it at -benchtime=1x): the same session at K 1, 2
// and 4 row-range shards over bandwidth-limited 1 ms TP links.
func BenchmarkSessionSharded(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", k), func(b *testing.B) { benchShardedSession(b, k) })
	}
}
