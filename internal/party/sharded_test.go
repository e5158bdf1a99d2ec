package party

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ppclust/internal/dataset"
	"ppclust/internal/leakcheck"
	"ppclust/internal/protocol"
	"ppclust/internal/wire"
)

// TestShardedMatchesSingleTP is the sharded third party's differential
// pin: K row-range shards behind the merge coordinator, their pair chunks
// evaluated by ShardServer workers, for K 1, 2 and 4 crossed with
// Parallelism 1, 2 and all cores, must publish a report bit-identical to
// the phase-serial single-TP reference — matrices, scales, object
// ordering and every holder's clustering result. K=1 additionally covers
// the degenerate coordinator that owns the whole triangle itself.
func TestShardedMatchesSingleTP(t *testing.T) {
	parts := pipelineParts(t, 10)
	reqs := pipelineReqs()
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialTP(base, parts, reqs, deterministicRandom(23), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	pool := newShardWorkerPool(t, 4, ShardServerConfig{Schema: pipelineSchema()})
	for _, k := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 0} {
			cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: workers, TPShards: k}
			cfg = pool.withWorkers(cfg, fmt.Sprintf("single-tp-%d-%d", k, workers))
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
// row ranges — one range, 2 and 4 shards in ShardServer workers over real
// TCP — crossed with chunk sizes one row per frame, 4 KiB, the 256 KiB
// default and one frame per payload, Parallelism 1, 2 and all cores, and
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
	pool := newShardWorkerPool(t, 4, ShardServerConfig{Schema: pipelineSchema()})
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
				}{{"one-range", 1}, {"workers-2", 2}, {"workers-4", 4}} {
					label := fmt.Sprintf("%s chunk=%d workers=%d %s", v.name, chunk, w, dep.name)
					cfg := base
					cfg.LocalChunkBytes, cfg.Parallelism, cfg.TPShards = chunk, w, dep.shards
					cfg = pool.withWorkers(cfg, label)
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
// monolithic legacy shape), unsharded and at K=2 through workers. The
// mod-p variant rides along at the smallest chunk: its rejection-sampled
// per-cell masks are the most alignment-sensitive keystream across chunk
// and shard boundaries.
func TestShardedPerPairDisguisedChunkSweep(t *testing.T) {
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
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
				cfg = pool.withWorkers(cfg, fmt.Sprintf("per-pair-%s-%d-%d", tc.name, chunk, k))
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
	pool := newShardWorkerPool(t, 8, ShardServerConfig{Schema: pipelineSchema()})
	for _, k := range []int{4, 8} {
		cfg := pool.withWorkers(Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: k}, fmt.Sprintf("more-shards-%d", k))
		got, err := RunInMemory(cfg, parts, nil, deterministicRandom(25))
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		assertSameOutcome(t, fmt.Sprintf("shards=%d", k), want, got)
	}
}

// TestChaosShardedConduitFault: a severed holder→shard conduit mid-stream
// must abort the whole sharded session with a classified error —
// coordinator, both workers' runs and every holder released, no goroutine
// left behind. The Chaos prefix places it in CI's race-enabled chaos
// smoke.
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
			cfg.ShardDial = newShardWorkerPool(t, 2, ShardServerConfig{Schema: cfg.Schema}).dialer("conduit-fault-"+sc.name, nil)
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

// TestShardedThirdPartyNeedsWorkers: a third party of more than one shard
// without a ShardDial has no one to evaluate its shards' pair chunks, so
// its constructor refuses the configuration, naming what is missing,
// before a hello goes out.
func TestShardedThirdPartyNeedsWorkers(t *testing.T) {
	holders := []string{"A", "B"}
	conduits := map[string]wire.Conduit{}
	var far []wire.Conduit
	attach := func(key string) {
		a, b := wire.Pipe()
		conduits[key], far = a, append(far, b)
		t.Cleanup(func() {
			a.Close()
			b.Close()
		})
	}
	for _, h := range holders {
		attach(h)
		for s := range 2 {
			attach(ShardConduitKey(h, s))
		}
	}
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2}
	_, err := NewThirdParty(holders, cfg, conduits, deterministicRandom(21)(TPName))
	if err == nil || !strings.Contains(err.Error(), "2 shards has no ShardDial") {
		t.Fatalf("2 shards without a ShardDial: %v, want a configuration error naming the missing ShardDial", err)
	}
	for _, c := range conduits {
		c.Close()
	}
	for i, c := range far {
		if m, err := c.Recv(); err == nil {
			t.Fatalf("lane %d carried a %d-byte frame from a refused third party", i, len(m))
		}
	}
}

// TestChaosHolderAbortReachesShardLanes: a holder that fails mid-session
// sends its abort on every lane it has to the third party, shard lanes
// included, so the third party's session error is that holder's
// classified reason — never the close of a lane whose reader never saw
// the abort. Holder D's non-integral ages fail its mod-p value check once
// its first local chunks are on the shard lanes; ten sessions of four
// holders at K = 2, each through workers, must all end in D's reason.
func TestChaosHolderAbortReachesShardLanes(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelinePartsOf(6, 7, 8, 9)
	fractional := dataset.MustNewTable(pipelineSchema())
	for r := range 9 {
		fractional.MustAppendRow(float64(r)+0.5, float64(40*r), "ACGTAC", "izmir")
	}
	parts[3].Table = fractional
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	for run := range 10 {
		cfg := Config{Schema: pipelineSchema(), Variant: ModPVariant, TPShards: 2, LocalChunkBytes: 64}
		cfg.ShardDial = pool.dialer(fmt.Sprintf("abort-%d", run), nil)
		var tpErr error
		_, err := runInMemory(context.Background(), cfg, parts, pipelineReqs(), deterministicRandom(uint64(70+run)), nil,
			func(tp *ThirdParty, ctx context.Context) (*TPReport, error) {
				rep, err := tp.RunContext(ctx)
				tpErr = err
				return rep, err
			})
		if err == nil {
			t.Fatalf("run %d: a session with a non-integral mod-p column succeeded", run)
		}
		if !errors.Is(tpErr, ErrAborted) || !strings.Contains(tpErr.Error(), "is not integral") || strings.Contains(tpErr.Error(), "conduit closed") {
			t.Errorf("run %d: the third party failed with %v, want D's abort carrying its reason", run, tpErr)
		}
	}
}
