package party

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"ppclust/internal/dataset"
	"ppclust/internal/leakcheck"
	"ppclust/internal/wire"
)

// TestShardedMoreShardsThanRows covers the degenerate partitions at the
// session level: with more shards than triangle rows the coordinator
// plans min(K, rows) ranges, registers with the worker of each active
// range exactly once and never with a surplus worker, the surplus lanes
// carry only their hellos, and the report stays bit-identical. One-row
// holders make several shard×holder row intersections empty.
func TestShardedMoreShardsThanRows(t *testing.T) {
	const rows = 6
	parts := pipelineParts(t, 1) // holders of 1, 2 and 3 rows
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialTP(base, parts, nil, deterministicRandom(25), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	pool := newShardWorkerPool(t, 8, ShardServerConfig{Schema: pipelineSchema()})
	for _, k := range []int{4, 8} {
		registered := make([]atomic.Int32, k)
		cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: k}
		cfg.ShardDial = pool.dialer(fmt.Sprintf("more-shards-%d", k), func(shard, _ int, c wire.Conduit) wire.Conduit {
			registered[shard].Add(1)
			return c
		})
		got, err := RunInMemory(cfg, parts, nil, deterministicRandom(25))
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		assertSameOutcome(t, fmt.Sprintf("shards=%d", k), want, got)
		for s := range registered {
			if n, active := registered[s].Load(), s < min(k, rows); active && n != 1 || !active && n != 0 {
				t.Errorf("shards=%d: worker %d registered %d times (active range: %v)", k, s, n, active)
			}
		}
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
