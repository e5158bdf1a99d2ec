package party

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ppclust/internal/alloccheck"
	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/keys"
	"ppclust/internal/leakcheck"
	"ppclust/internal/netid"
	"ppclust/internal/parallel"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// TestChaosShardProcLinkFlapResumes pins worker-link self-healing: the
// coordinator's link to one worker flaps mid-relay, the redial re-registers
// (superseding the worker's half-fed run), the Reconn replays the entire
// stream from frame one, and the fresh run recomputes — the report stays
// bit-identical to the fault-free cross-process session. Frame 2 on the
// worker link is the slice offer; later ordinals land mid relay.
func TestChaosShardProcLinkFlapResumes(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialTP(base, parts, reqs, deterministicRandom(43), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	for _, frame := range []int{2, 5, 9} {
		pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
		cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2,
			ResumeWindow: 10 * time.Second}
		cfg.ShardDial = pool.dialer(fmt.Sprintf("proc-flap-%d", frame),
			func(shard, dial int, c wire.Conduit) wire.Conduit {
				if shard == 1 && dial == 0 {
					return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultFlap, Frame: frame})
				}
				return c
			})
		got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(43))
		if err != nil {
			t.Fatalf("flap at frame %d: %v", frame, err)
		}
		assertSameOutcome(t, fmt.Sprintf("worker link flap at frame %d", frame), want, got)
		pool.close()
	}
}

// TestChaosShardProcWorkerRestartResumes is the process-death shape at the
// package level: shard 0's worker link is severed abruptly mid-relay (a
// crash sends no abort frame — unlike a graceful drain), the address
// registry is retargeted to a freshly booted worker, and the coordinator's
// redial loop re-registers there. The replacement recomputes the slice
// from the replayed stream and the report stays bit-identical.
func TestChaosShardProcWorkerRestartResumes(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialTP(base, parts, reqs, deterministicRandom(44), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2,
		ResumeWindow: 10 * time.Second}
	cfg.ShardDial = pool.dialer("proc-restart",
		func(shard, dial int, c wire.Conduit) wire.Conduit {
			if shard == 0 && dial == 0 {
				// Stand the replacement up before the cut lands so the
				// redial dials the new process, exactly as a pool manager
				// restarting a crashed worker.
				pool.setAddr(0, pool.startWorker(ShardServerConfig{Schema: pipelineSchema()}))
				return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultCut, Frame: 6})
			}
			return c
		})
	got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(44))
	if err != nil {
		t.Fatalf("restarted-worker session: %v", err)
	}
	assertSameOutcome(t, "worker restart", want, got)
}

// TestChaosShardProcCutMidRows is the worker restart at the worst point
// of the rows hand-off: shard 0's link is cut after the coordinator has
// installed two of the worker's evaluated pair chunks and before the third
// arrives. The redial lands on a freshly booted worker, which re-evaluates
// the replayed pair chunks and resends the rows of every one; the
// coordinator drops the two it already installed and installs the rest,
// and the report stays bit-identical to the serial oracle.
func TestChaosShardProcCutMidRows(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1}
	want, err := runSerialTP(base, parts, reqs, deterministicRandom(45), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}

	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2,
		LocalChunkBytes: 256, ResumeWindow: 10 * time.Second}
	// The worker links are secured whatever the holder channels are, so
	// the tap in their middle parses what it relays.
	tp := newTap(Config{PlaintextChannels: true})
	var mu sync.Mutex
	rowsFrom0, cut := 0, false
	links := tp.workerLinks(pool.servers[0].fp, func(f *tapFrame) error {
		if f.From != ShardName(0) || f.Msg.Kind != kindShardRows {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if rowsFrom0++; rowsFrom0 == 3 && !cut {
			cut = true
			return errSever
		}
		return nil
	})
	cfg.ShardDial = pool.dialer("proc-cut-mid-rows", func(shard, dial int, c wire.Conduit) wire.Conduit {
		if shard == 0 && dial == 0 {
			// The replacement stands by before the cut, as a pool manager
			// restarting a crashed worker would have it.
			pool.setAddr(0, pool.startWorker(ShardServerConfig{Schema: pipelineSchema()}))
		}
		return links(shard, dial, c)
	})
	got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(45))
	if err != nil {
		t.Fatalf("session cut mid-rows: %v", err)
	}
	assertSameOutcome(t, "worker cut mid-rows", want, got)

	// The first worker sent three chunks, the third undelivered; its
	// replacement sent the rows of every pair chunk of the range.
	r := dissim.ShardRanges(8+9+10, 2)[0] // pipelineParts(t, 8) holds 8, 9 and 10 rows
	chunks := testCore(t, cfg, []int{8, 9, 10}).rangePairChunks(r)
	if chunks < 3 {
		t.Fatalf("shard 0 evaluates %d pair chunks, the cut needs 3+", chunks)
	}
	if sent, want := len(tp.sent(ShardName(0), TPName, kindShardRows)), 3+chunks; !cut || sent != want {
		t.Fatalf("shard 0 sent %d row chunks (cut: %v), want 3 before the cut and %d after", sent, cut, want-3)
	}
}

// testCore is the shard pipeline a session under cfg builds over a
// census of holders A, B, … with the given counts.
func testCore(t testing.TB, cfg Config, counts []int) *shardCore {
	t.Helper()
	cfg, num, err := cfg.normalized()
	if err != nil {
		t.Fatal(err)
	}
	holders := make([]string, len(counts))
	for i := range holders {
		holders[i] = string(rune('A' + i))
	}
	return newShardCore(cfg, num, holders, counts, 1, protocol.NewEnginePool(1), nil, nil)
}

// rangePairChunks is how many pair chunks the holders send toward global
// rows r: what a worker owning r is relayed and returns rows for.
func (c *shardCore) rangePairChunks(r [2]int) int {
	n := 0
	for hi := range c.holders {
		n += c.pairFrames(hi, r)
	}
	return n
}

// TestShardProcWorkerFramesBounded: a worker returns its evaluated rows in
// frames no larger than the chunk budget plus fixed framing, one per pair
// chunk it was relayed, whatever the session's size. A whole slice in one
// frame would carry 4·n(n−1)/K bytes — at K = 2 past wire.MaxFrame, and so
// refused with ErrFrameTooLarge, from about 11 600 objects — so the frame
// ceiling does not limit a sharded session.
func TestShardProcWorkerFramesBounded(t *testing.T) {
	const budget = 4 << 10
	const framing = 64 // the envelope and the chunk's row range
	cfg, parts, reqs := pairCPUParts(200)
	cfg.Variant, cfg.LocalChunkBytes = Float64Variant, budget
	want, err := runSerialTP(cfg, parts, reqs, deterministicRandom(48), nil)
	if err != nil {
		t.Fatalf("single-TP baseline: %v", err)
	}
	cfg.TPShards = 2
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: cfg.Schema})
	tp := newTap(Config{PlaintextChannels: true})
	cfg.ShardDial = pool.dialer("bounded-frames", tp.workerLinks(pool.servers[0].fp, nil))
	got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(48))
	if err != nil {
		t.Fatalf("worker session: %v", err)
	}
	assertSameOutcome(t, "worker session at a 4 KiB chunk budget", want, got)
	chunks, largest := 0, 0
	for _, f := range tp.sent("", TPName) {
		largest = max(largest, len(f.Raw))
		if f.Msg.Kind == kindShardRows {
			chunks++
		}
	}
	if largest > budget+framing {
		t.Errorf("a worker sent a %d-byte frame, the chunk budget is %d", largest, budget)
	}
	// 400 objects: a 200 × 200 cross block, 512 cells a chunk.
	core, pairChunks := testCore(t, cfg, []int{200, 200}), 0
	for _, r := range dissim.ShardRanges(400, 2) {
		pairChunks += core.rangePairChunks(r)
	}
	if chunks != pairChunks || chunks < 80 {
		t.Errorf("the workers returned their rows in %d frames, the pair chunks number %d", chunks, pairChunks)
	}
	t.Logf("%d row chunks, the largest worker frame %d bytes", chunks, largest)
}

// TestShardProcRelaysPairChunksOnly: a worker is relayed the pair chunks
// it evaluates and nothing else. On every worker link of K = 2 and K = 3
// sessions over numeric and alphanumeric attributes, no relayed holder
// frame is a ppc/local chunk — the coordinator installs those itself —
// and the frames relayed for each holder number exactly its pair chunks
// toward the worker's range.
func TestShardProcRelaysPairChunksOnly(t *testing.T) {
	parts := pipelineParts(t, 8)
	counts := []int{8, 9, 10}
	base := Config{Schema: pipelineSchema(), Variant: Float64Variant, LocalChunkBytes: 256}
	want, err := runSerialTP(base, parts, nil, deterministicRandom(50), nil)
	if err != nil {
		t.Fatalf("single-TP baseline: %v", err)
	}
	for _, k := range []int{2, 3} {
		cfg := base
		cfg.TPShards = k
		pool := newShardWorkerPool(t, k, ShardServerConfig{Schema: pipelineSchema()})
		tp := newTap(Config{PlaintextChannels: true})
		cfg.ShardDial = pool.dialer(fmt.Sprintf("pairs-only-%d", k), tp.workerLinks(pool.servers[0].fp, nil))
		got, err := RunInMemory(cfg, parts, nil, deterministicRandom(50))
		if err != nil {
			t.Fatalf("K = %d workers: %v", k, err)
		}
		assertSameOutcome(t, fmt.Sprintf("K = %d workers", k), want, got)
		core := testCore(t, cfg, counts)
		for s, r := range dissim.ShardRanges(core.total, k) {
			relayed := make([]int, len(counts))
			for _, f := range tp.sent(TPName, ShardName(s), kindShardFrame) {
				m, err := wire.ParseFrame(f.Msg.Payload)
				if err != nil {
					t.Fatalf("K = %d shard %d: relayed frame %d: %v", k, s, f.N, err)
				}
				if m.Kind != kindNumS && m.Kind != kindAlphaM {
					t.Errorf("K = %d shard %d: relayed a %s frame from %s", k, s, m.Kind, m.From)
				}
				relayed[f.Msg.Attr]++
			}
			for hi, n := range relayed {
				if want := core.pairFrames(hi, r); n != want {
					t.Errorf("K = %d shard %d: relayed %d frames of holder %s, its pair chunks toward rows [%d,%d) number %d",
						k, s, n, core.holders[hi], r[0], r[1], want)
				}
			}
			if n := len(tp.sent(ShardName(s), TPName, kindShardRows)); n != core.rangePairChunks(r) {
				t.Errorf("K = %d shard %d: returned %d row chunks for %d pair chunks", k, s, n, core.rangePairChunks(r))
			}
		}
		pool.close()
	}
}

// TestChaosShardProcKillOutsideWindow: without a reconnect window a severed
// worker link fails the session promptly and classified — ErrDisconnected
// (or the peers' ErrAborted view), never a hang — and leaves no goroutine
// behind in the coordinator.
func TestChaosShardProcKillOutsideWindow(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	cfg := chaosConfig()
	cfg.TPShards = 2
	cfg.ShardDial = pool.dialer("proc-kill",
		func(shard, dial int, c wire.Conduit) wire.Conduit {
			if shard == 1 && dial == 0 {
				return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultCut, Frame: 4})
			}
			return c
		})
	out, err := RunInMemoryWrapped(cfg, parts, pipelineReqs(), deterministicRandom(45), nil)
	if err == nil {
		t.Fatalf("cut worker link: session succeeded, outcome %v", out)
	}
	if !errors.Is(err, ErrDisconnected) && !errors.Is(err, ErrAborted) && !errors.Is(err, ErrSessionTimeout) {
		t.Fatalf("cut worker link: unclassified error: %v", err)
	}
}

// TestChaosShardProcRedialRefusedFatal: a redial answered with a typed
// fatal refusal (ErrResumeAborted from the control plane) must end the
// degraded session classified ErrDisconnected, with the refusal kept in the
// chain, without burning the window.
func TestChaosShardProcRedialRefusedFatal(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	inner := pool.dialer("proc-refuse",
		func(shard, dial int, c wire.Conduit) wire.Conduit {
			if shard == 0 && dial == 0 {
				return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultFlap, Frame: 3})
			}
			return c
		})
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2,
		ResumeWindow: 10 * time.Second, SessionTimeout: time.Minute}
	cfg.ShardDial = func(ctx context.Context, shard int, state ResumeState) (wire.Conduit, ResumeGrant, error) {
		if state.Epoch > 0 {
			return nil, ResumeGrant{}, fmt.Errorf("pool: %w", ErrResumeAborted)
		}
		return inner(ctx, shard, state)
	}
	start := time.Now()
	_, err := RunInMemory(cfg, parts, pipelineReqs(), deterministicRandom(46))
	if err == nil {
		t.Fatal("refused redial: session succeeded")
	}
	if !errors.Is(err, ErrDisconnected) && !errors.Is(err, ErrAborted) {
		t.Fatalf("refused redial: unclassified error: %v", err)
	}
	if !errors.Is(err, ErrResumeAborted) {
		t.Fatalf("refused redial: refusal class lost from the chain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("refused redial burned the window: took %v", elapsed)
	}
}

// TestChaosShardProcWindowExpiry is TestChaosReconnectWindowExpiry on a
// worker link: when no replacement worker can be dialed inside the window,
// the session fails classified ErrSessionTimeout with
// wire.ErrReconnectExpired kept in the chain, as a holder lane's does.
func TestChaosShardProcWindowExpiry(t *testing.T) {
	leakcheck.Check(t)
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	inner := pool.dialer("proc-expiry",
		func(shard, dial int, c wire.Conduit) wire.Conduit {
			if shard == 0 && dial == 0 {
				return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultFlap, Frame: 3})
			}
			return c
		})
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2,
		ResumeWindow: 200 * time.Millisecond, SessionTimeout: time.Minute}
	cfg.ShardDial = func(ctx context.Context, shard int, state ResumeState) (wire.Conduit, ResumeGrant, error) {
		if state.Epoch > 0 {
			return nil, ResumeGrant{}, errors.New("pool: worker unreachable")
		}
		return inner(ctx, shard, state)
	}
	_, err := RunInMemory(cfg, pipelineParts(t, 8), pipelineReqs(), deterministicRandom(48))
	if !errors.Is(err, ErrSessionTimeout) {
		t.Fatalf("want ErrSessionTimeout after the worker link's window expired, got %v", err)
	}
	if !errors.Is(err, wire.ErrReconnectExpired) {
		t.Fatalf("wire.ErrReconnectExpired lost from the chain: %v", err)
	}
}

// TestChaosShardProcWorkerFailureAborts: a worker whose pipeline fails
// tells the coordinator at once. One holder pair chunk is corrupted on its
// holder→shard lane — its variant byte names int64 in a float64 session —
// which the coordinator, checking the header alone, relays untouched, and
// which the worker refuses to evaluate. With no phase watchdog and a 30 s
// session bound, the session must fail in well under a second, with an
// abort naming the worker and its reason.
func TestChaosShardProcWorkerFailureAborts(t *testing.T) {
	leakcheck.Check(t)
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("workers-%d", k), func(t *testing.T) {
			pool := newShardWorkerPool(t, k, ShardServerConfig{Schema: pipelineSchema()})
			cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: k,
				PlaintextChannels: true, SessionTimeout: 30 * time.Second}
			cfg.ShardDial = pool.dialer(fmt.Sprintf("worker-fails-%d", k), nil)
			tp := newTap(cfg)
			var mu sync.Mutex
			corrupted := "" // the shard whose lane carried the corrupted chunk
			corrupt := func(f *tapFrame) ([][]byte, error) {
				mu.Lock()
				defer mu.Unlock()
				if f.Msg.Kind != kindNumS || corrupted != "" {
					return f.pass()
				}
				corrupted = f.To
				m := *f.Msg
				r := bodyReader{p: m.Payload}
				m.Payload = bytes.Clone(m.Payload)
				m.Payload[intsLen(r.int(), r.int(), r.int())] = tagInt64
				return [][]byte{wire.AppendFrame(nil, &m)}, nil
			}
			for s := range k {
				tp.onSend("", ShardName(s), corrupt)
			}
			start := time.Now()
			_, err := RunInMemoryWrapped(cfg, pipelineParts(t, 8), pipelineReqs(), deterministicRandom(51), tp.wrap)
			took := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			if corrupted == "" {
				t.Fatalf("no pair chunk crossed a shard lane (session error %v)", err)
			}
			want := fmt.Sprintf("peer %s: ", corrupted)
			if !errors.Is(err, ErrAborted) || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "variant byte") {
				t.Fatalf("session error %v, want an abort from %s saying why its pipeline failed", err, corrupted)
			}
			if took > time.Second {
				t.Errorf("the session took %v to report the worker's failure", took)
			}
			t.Logf("failed in %v: %v", took, err)
		})
	}
}

// TestChaosShardProcSilentCoordinator: a coordinator that goes silent after
// its offer cannot hold a worker's run. The worker arms its watchdog with
// the offer's PhaseTimeout, so within two of them its run ends with a
// classified timeout sent to the coordinator as an abort, the link closes
// and the worker forgets the run; no goroutine of the run is left.
func TestChaosShardProcSilentCoordinator(t *testing.T) {
	leakcheck.Check(t)
	const phase = 300 * time.Millisecond
	ended := make(chan string, 1)
	pool := newShardWorkerPool(t, 1, ShardServerConfig{Schema: pipelineSchema(), Logf: func(format string, args ...any) {
		if line := fmt.Sprintf(format, args...); strings.HasPrefix(line, "event=shard-run-") {
			ended <- line
		}
	}})
	cfg, _, err := Config{Schema: pipelineSchema(), Variant: Float64Variant}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	tp := &ThirdParty{cfg: cfg, holders: []string{"A", "B"}, counts: []int{2, 2},
		guard: newGuard(TPName, cfg), masters: map[string][]byte{"A": {1}, "B": {2}}}
	defer tp.guard.release()
	if tp.identity, err = keys.NewIdentity(TPName, rand.Reader); err != nil {
		t.Fatal(err)
	}
	tp.cfg.ShardDial = pool.dialer("silent-coordinator", nil)
	link, err := tp.dialShard(0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer link.close()
	offer := shardOfferBody{Lo: 0, Hi: 4, Holders: tp.holders, Counts: tp.counts,
		Fingerprint: schemaFingerprint(cfg.Schema), Variant: cfg.Variant, RNG: cfg.RNG, PhaseTimeout: phase}
	offer.Seeds, offer.RowSeeds = tp.seedTables()
	start := time.Now()
	if err := link.send(wire.Message{From: TPName, To: ShardName(0), Kind: kindShardOffer, Attr: -1}, offer); err != nil {
		t.Fatalf("send offer: %v", err)
	}
	m, err := link.ep.Recv()
	took := time.Since(start)
	if err != nil {
		t.Fatalf("the worker link ended without an abort: %v", err)
	}
	if err := peerAbortError(m); m.Kind != kindAbort || !strings.Contains(err.Error(), ErrSessionTimeout.Error()) || !strings.Contains(err.Error(), `phase "relay"`) {
		t.Fatalf("the worker answered the silence with %q (%v), want an abort naming its watchdog", m.Kind, err)
	}
	if took > 2*phase {
		t.Errorf("the worker's run ended %v after the offer, its PhaseTimeout is %v", took, phase)
	}
	if _, err := link.ep.Recv(); err == nil {
		t.Error("the worker link stayed open after the abort")
	}
	// The worker logs the run's end once it has dropped the run.
	if line := <-ended; !strings.HasPrefix(line, "event=shard-run-failed") {
		t.Errorf("the run ended with %q", line)
	}
	srv := pool.servers[0]
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.runs) != 0 {
		t.Errorf("the worker still holds %d runs", len(srv.runs))
	}
}

// TestChaosShardProcLongChunksNeedNoBeat: a worker sends nothing while it
// evaluates a chunk, so the coordinator's watchdog waits out the worker's
// longest chunk, as the third party's own waits out its longest at one
// range. A mod-p per-pair session at one frame a payload — one chunk a
// share, the longest there are — passes, at K = 2 with workers, the
// PhaseTimeout it passes at one range: the time the whole one-range
// session took, so the watchdog ticks while each session runs.
func TestChaosShardProcLongChunksNeedNoBeat(t *testing.T) {
	leakcheck.Check(t)
	cfg, parts, reqs := pairCPUParts(200)
	cfg.Variant, cfg.Mode, cfg.LocalChunkBytes = ModPVariant, protocol.PerPair, oneFrameBudget
	start := time.Now()
	if _, err := RunInMemory(cfg, parts, reqs, deterministicRandom(52)); err != nil {
		t.Fatalf("one range: %v", err)
	}
	cfg.PhaseTimeout = time.Since(start)
	want, err := RunInMemory(cfg, parts, reqs, deterministicRandom(52))
	if err != nil {
		t.Fatalf("one range under a %v PhaseTimeout: %v", cfg.PhaseTimeout, err)
	}
	cfg.TPShards = 2
	cfg.ShardDial = newShardWorkerPool(t, 2, ShardServerConfig{Schema: cfg.Schema}).dialer("long-chunks", nil)
	got, err := RunInMemory(cfg, parts, reqs, deterministicRandom(52))
	if err != nil {
		t.Fatalf("K = 2 workers under a %v PhaseTimeout: %v", cfg.PhaseTimeout, err)
	}
	assertSameOutcome(t, "K = 2 workers at one chunk a share", want, got)
}

// eagerWorker stands in for a shard worker that answers the offer with
// (all-zero) rows for every pair chunk of its range at once, without
// waiting for a single relayed frame, and then drains its link — so the
// coordinator's rows collectors finish while its lane readers are still
// mid-stream.
func eagerWorker(t *testing.T, schema dataset.Schema) ShardDialFunc {
	srv, err := NewShardServer(ShardServerConfig{Schema: schema})
	if err != nil {
		t.Fatal(err)
	}
	return func(_ context.Context, shard int, _ ResumeState) (wire.Conduit, ResumeGrant, error) {
		near, far := wire.Pipe()
		go func() {
			defer far.Close()
			id, err := keys.NewIdentity(ShardName(shard), rand.Reader)
			if err != nil {
				t.Error(err)
				return
			}
			secured, _, err := handshake(far, ShardName(shard), TPName, id, schemaFingerprint(schema), false)
			if err != nil {
				return
			}
			ep := wire.NewEndpoint(secured)
			var offer shardOfferBody
			if _, err := ep.Expect(kindShardOffer, &offer); err != nil {
				return
			}
			core, err := srv.offerCore(shard, offer)
			if err != nil {
				t.Error(err)
				return
			}
			err = core.rowChunks([2]int{offer.Lo, offer.Hi}, func(int) float64 { return 0 }, func(b shardRowsBody) error {
				return ep.SendBody(wire.Message{From: ShardName(shard), To: TPName, Kind: kindShardRows, Attr: b.Attr}, b)
			})
			if err != nil {
				return
			}
			for {
				if _, err := ep.Recv(); err != nil {
					return
				}
			}
		}()
		return near, ResumeGrant{}, nil
	}
}

// rowChunks hands send a worker's rows body for every pair chunk the
// holders send toward global rows r, by comparison attribute, holder and
// share in their send order, each cell the value cell(n) gives for the
// n-th cell handed over.
func (c *shardCore) rowChunks(r [2]int, cell func(n int) float64, send func(shardRowsBody) error) error {
	n := 0
	for attr, a := range c.cfg.Schema.Attrs {
		if tagBased(a.Type) {
			continue
		}
		for hi := range c.holders {
			for _, sh := range c.shares(hi, a.Type, c.partyRows(r)) {
				cols := c.counts[sh.j]
				for _, ch := range c.cfg.pairChunksRange(c.num, a.Type, sh.lo, sh.hi, cols) {
					cells := make([]float64, (ch[1]-ch[0])*cols)
					for i := range cells {
						cells[i] = cell(n)
						n++
					}
					if err := send(rowsChunk(attr, sh.j, sh.k, ch[0], ch[1], cols, cells)); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// TestChaosShardProcPumpFailsAfterSlices is the -race regression for the
// coordinator's error hand-off: the lane readers that relay to a worker
// outlive its rows collector, so a reader whose holder lane dies after
// every row is in reports its failure while the session body is deciding
// whether it succeeded. The decision must read that failure under the
// lock and the session must end with the relay error, not publish.
//
// C is the holder whose rows reach shard 1; its lane there fails on the
// coordinator's side after the hello and two chunk frames, either severed
// or by a receive error that leaves the conduit open. A severed lane is
// seen by C too, whose abort then reaches the coordinator's other readers
// of C while the failed one may still be unwinding: the abort must yield
// to the failure the coordinator saw first.
func TestChaosShardProcPumpFailsAfterSlices(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault error
	}{
		{"sever", errSever},
		{"recv-error", errors.New("C's lane to shard 1 fails")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			cfg, _, err := chaosConfig().normalized() // the fingerprint covers defaulted weights
			if err != nil {
				t.Fatal(err)
			}
			cfg.TPShards = 2
			cfg.ShardDial = eagerWorker(t, cfg.Schema)
			tp := newTap(cfg)
			tp.onRecv(ShardName(1), "C", func(f *tapFrame) ([][]byte, error) {
				if f.N > 3 {
					return nil, tc.fault
				}
				return f.pass()
			})
			_, err = RunInMemoryWrapped(cfg, pipelineParts(t, 8), pipelineReqs(), deterministicRandom(47), tp.wrap)
			if err == nil {
				t.Fatal("session with a dead relay lane published")
			}
			if !strings.Contains(err.Error(), "C's lane to shard worker 1") {
				t.Fatalf("session error does not name the failed relay: %v", err)
			}
		})
	}
}

// TestShardProcRegistrationOrderedByEpoch pins the supersede fence on the
// worker: registrations are handled concurrently, so the hello of a link
// the coordinator already replaced can finish its handshake after its
// successor's. The higher epoch must win in either arrival order, and the
// loser must die silently — an abort frame on a replaced link either has
// no reader or one that takes it for the session's.
func TestShardProcRegistrationOrderedByEpoch(t *testing.T) {
	leakcheck.Check(t)
	for _, order := range [][2]uint32{{1, 0}, {0, 1}} {
		t.Run(fmt.Sprintf("epoch-%d-then-%d", order[0], order[1]), func(t *testing.T) {
			events := make(chan string, 16) // a handful of lifecycle lines per registration
			pool := newShardWorkerPool(t, 1, ShardServerConfig{Schema: pipelineSchema(),
				Logf: func(format string, args ...any) { events <- fmt.Sprintf(format, args...) }})
			defer pool.close()
			dial := pool.dialer("epoch-order", nil)
			cfg, _, err := Config{Schema: pipelineSchema(), Variant: Float64Variant}.normalized()
			if err != nil {
				t.Fatal(err)
			}
			tp := &ThirdParty{cfg: cfg, guard: newGuard(TPName, cfg)}
			defer tp.guard.release()
			if tp.identity, err = keys.NewIdentity(TPName, rand.Reader); err != nil {
				t.Fatal(err)
			}
			// register completes one registration and returns once the
			// worker has decided what to do with it.
			register := func(epoch uint32) *wire.Endpoint {
				raw, _, err := dial(context.Background(), 0, ResumeState{Epoch: epoch})
				if err != nil {
					t.Fatalf("dial epoch %d: %v", epoch, err)
				}
				secured, err := tp.shardSecure(0, raw)
				if err != nil {
					t.Fatalf("handshake epoch %d: %v", epoch, err)
				}
				t.Cleanup(func() { secured.Close() })
				for {
					select {
					case ev := <-events:
						if strings.HasPrefix(ev, "event=shard-register") {
							return wire.NewEndpoint(secured)
						}
					case <-time.After(5 * time.Second):
						t.Fatalf("worker never logged the epoch %d registration", epoch)
					}
				}
			}
			eps := map[uint32]*wire.Endpoint{}
			eps[order[0]] = register(order[0])
			eps[order[1]] = register(order[1])

			// The loser's link just closes: no abort frame.
			if m, err := eps[0].Recv(); !errors.Is(err, wire.ErrClosed) {
				t.Fatalf("epoch 0 link: want a silent close, got message %+v, err %v", m, err)
			}
			// The winner's run is alive: it answers a bad offer itself.
			offer := shardOfferBody{Fingerprint: "bogus"}
			if err := eps[1].SendBody(wire.Message{From: TPName, To: ShardName(0), Kind: kindShardOffer, Attr: -1}, offer); err != nil {
				t.Fatalf("offer on the epoch 1 link: %v", err)
			}
			m, err := eps[1].Recv()
			if err != nil || m.Kind != kindAbort || !strings.Contains(peerAbortError(m).Error(), "fingerprint") {
				t.Fatalf("epoch 1 link: want the run's own fingerprint abort, got %+v, err %v", m, err)
			}
		})
	}
}

// TestShardProcDrainingWorkerRejects: a draining worker answers
// registrations with a typed netid rejection, so a session dialing it
// fails instead of hanging.
func TestShardProcDrainingWorkerRejects(t *testing.T) {
	srv, err := NewShardServer(ShardServerConfig{Schema: pipelineSchema()})
	if err != nil {
		t.Fatalf("shard server: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listener: %v", err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); srv.Serve(ln) }()
	addr := ln.Addr().String()

	// A live worker rejects a non-registration hello by version.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if err := netid.AnnounceResumeWithin(conn, TPName, "s", 0, 1, 0, 0, 5*time.Second); err != nil {
		t.Fatalf("announce: %v", err)
	}
	_, _, err = netid.AwaitResumeGrant(conn, 5*time.Second)
	var rej *netid.RejectedError
	if !errors.As(err, &rej) || rej.Code != netid.RejectVersion {
		t.Fatalf("v3 hello to a shard worker: want RejectVersion, got %v", err)
	}
	conn.Close()

	srv.Close()
	<-serveDone

	// Close unblocked Serve; the listener is gone, so a draining worker is
	// simply unreachable (the pre-close drain rejection is raced by the
	// listener teardown and not separately observable here).
	if _, err := net.Dial("tcp", addr); err == nil {
		t.Fatal("dial after Close succeeded")
	}
}

// TestShardProcRefusesRetiredHellos: the bare name label and the version-1
// hello reach a shard worker's listener as they reach any other — both are
// refused by version and the connection closed, leaving no run and no
// goroutine behind, and a real session registered on the same listeners
// afterwards is bit-identical to the single-TP reference.
func TestShardProcRefusesRetiredHellos(t *testing.T) {
	leakcheck.Check(t)
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	for _, raw := range []string{"\x02TP", "\xff\x01\x02TP\x00"} {
		conn, err := net.Dial("tcp", pool.addrs[0])
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(raw)); err != nil {
			t.Fatal(err)
		}
		_, _, err = netid.AwaitResumeGrant(conn, 5*time.Second)
		var rej *netid.RejectedError
		if !errors.As(err, &rej) || rej.Code != netid.RejectVersion {
			t.Fatalf("hello %q to a shard worker: want RejectVersion, got %v", raw, err)
		}
		if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
			t.Fatalf("hello %q: connection not closed after the refusal: %v", raw, err)
		}
	}

	parts := pipelineParts(t, 1)
	want, err := runSerialTP(Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1},
		parts, nil, deterministicRandom(43), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, TPShards: 2}
	cfg.ShardDial = pool.dialer("after-refusals", nil)
	got, err := RunInMemory(cfg, parts, nil, deterministicRandom(43))
	if err != nil {
		t.Fatalf("session after the refusals: %v", err)
	}
	assertSameOutcome(t, "session after the refusals", want, got)
}

// rowsHarness runs worker 0's rows collector for global rows [5, 13) of a
// pipelineSchema session over a census of 5, 5 and 6 objects at a 16-byte
// chunk budget — a row a chunk — installing into matrices; peer is the
// worker's end of the link.
type rowsHarness struct {
	core     *shardCore
	r        [2]int
	comp     []int // the comparison attributes
	share    []int // where the chunks of the first share of 3+ chunks are in a generation
	g        *laneGroup
	matrices []*dissim.Matrix
	peer     *wire.Endpoint
	done     chan error
}

func newRowsHarness(t *testing.T) *rowsHarness {
	t.Helper()
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, LocalChunkBytes: 16}
	h := &rowsHarness{core: testCore(t, cfg, []int{5, 5, 6}), r: [2]int{5, 13}, done: make(chan error, 1)}
	g, err := h.group()
	if err != nil {
		t.Fatal(err)
	}
	h.g, h.comp = g, g.attrs
	shares := map[[4]int][]int{} // attribute, pair and first row of a share: its chunks
	var order [][4]int
	for i, b := range h.gen(1) {
		key := [4]int{b.Attr, b.J, b.K, b.Lo}
		for k, idx := range shares {
			if last := h.gen(1)[idx[len(idx)-1]]; k[0] == b.Attr && k[1] == b.J && k[2] == b.K && last.Hi == b.Lo {
				key = k
			}
		}
		if shares[key] == nil {
			order = append(order, key)
		}
		shares[key] = append(shares[key], i)
	}
	for _, k := range order {
		if len(shares[k]) >= 3 && h.share == nil {
			h.share = shares[k]
		}
	}
	if len(h.comp) < 2 || h.share == nil {
		t.Fatalf("%d comparison attributes, no share of 3+ chunks: the harness needs both", len(h.comp))
	}
	a, b := wire.Pipe()
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	h.peer = wire.NewEndpoint(b)
	link := &shardLink{s: 0, ep: wire.NewEndpoint(a)}
	go func() { h.done <- h.core.collectShardRows(context.Background(), 0, link, g) }()
	return h
}

// group is a fresh lane group of the harness's rows over fresh matrices,
// which are h.matrices from then on.
func (h *rowsHarness) group() (*laneGroup, error) {
	attrs := h.core.cfg.Schema.Attrs
	h.matrices = make([]*dissim.Matrix, len(attrs))
	for attr, a := range attrs {
		if !tagBased(a.Type) {
			h.matrices[attr] = dissim.New(h.core.total)
		}
	}
	return h.core.shardGroup("", nil, h.r, h.matrices)
}

// gen is a generation of a worker's rows: a body for every pair chunk of
// the range, in send order, the cells counting up from v.
func (h *rowsHarness) gen(v float64) []shardRowsBody {
	var out []shardRowsBody
	h.core.rowChunks(h.r, func(n int) float64 { return v + float64(n) }, func(b shardRowsBody) error {
		out = append(out, b)
		return nil
	})
	return out
}

// send sends body as a rows chunk in an envelope of attribute attr.
func (h *rowsHarness) send(attr int, body wire.BodyAppender) error {
	return h.peer.SendBody(wire.Message{From: ShardName(0), To: TPName, Kind: kindShardRows, Attr: attr}, body)
}

// installed is what the collector installed of attr's rows.
func (h *rowsHarness) installed(attr int) []float64 {
	return h.matrices[attr].PackedRowsView(h.r[0], h.r[1])
}

// max is attr's largest installed cell as its assembler records it, once
// the local rows — which the collector does not install — are in, zero.
func (h *rowsHarness) max(t *testing.T, attr int) float64 {
	t.Helper()
	asm := h.g.asms[attr]
	for p := range h.core.counts {
		if lo, hi := asm.PartyRows(p); lo < hi {
			if err := asm.SetLocalRows(p, lo, hi, make([]float64, hi*(hi-1)/2-lo*(lo-1)/2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, top, err := asm.Done()
	if err != nil {
		t.Fatal(err)
	}
	return top
}

// expect is what installing bodies, each once, into fresh matrices leaves
// of the harness's rows, by attribute.
func (h *rowsHarness) expect(t *testing.T, bodies []shardRowsBody) [][]float64 {
	t.Helper()
	kept := h.matrices
	defer func() { h.matrices = kept }()
	g, err := h.group()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bodies {
		enc, err := wire.EncodeBody(b)
		if err != nil {
			t.Fatal(err)
		}
		var body shardRowsBody
		if err := wire.DecodeBody(enc, &body); err != nil {
			t.Fatal(err)
		}
		if err := h.core.installRows(g.asms[b.Attr], body); err != nil {
			t.Fatal(err)
		}
	}
	out := make([][]float64, len(h.matrices))
	for _, attr := range h.comp {
		out[attr] = h.installed(attr)
	}
	return out
}

// TestShardSliceDedup drives the rows collector's duplicate-chunk guard
// directly: the first generation installs a share's first two chunks,
// then a restarted worker resends every chunk after the replay, with
// different cells. The installed cells must not change — the first
// install wins — and the rest install from the second generation, each
// counted once; the dropped copies, whose cells are the largest sent, must
// not raise the attribute's maximum. A resent range that is no chunk of
// the share's schedule is refused, not dropped.
func TestShardSliceDedup(t *testing.T) {
	h := newRowsHarness(t)
	first, second := h.gen(1), h.gen(1000)
	c0, c1, c2 := first[h.share[0]], first[h.share[1]], first[h.share[2]]
	for _, i := range h.share[:2] {
		second[i] = h.gen(1e6)[i]
	}
	go func() {
		h.send(c0.Attr, c0)
		h.send(c1.Attr, c1)
		for _, b := range second {
			h.send(b.Attr, b)
		}
	}()
	if err := <-h.done; err != nil {
		t.Fatalf("collect: %v", err)
	}
	kept := slices.Clone(second)
	kept[h.share[0]], kept[h.share[1]] = c0, c1
	want := h.expect(t, kept)
	for _, attr := range h.comp {
		if got := h.installed(attr); !slices.Equal(got, want[attr]) {
			t.Errorf("attribute %d: installed %v, want %v", attr, got, want[attr])
		}
		if got := h.max(t, attr); got != slices.Max(want[attr]) {
			t.Errorf("attribute %d: max %v, want %v", attr, got, slices.Max(want[attr]))
		}
	}

	h = newRowsHarness(t)
	whole := rowsChunk(c0.Attr, c0.J, c0.K, c0.Lo, c1.Hi, c0.cols, make([]float64, (c1.Hi-c0.Lo)*c0.cols))
	go func() {
		for _, b := range []shardRowsBody{c0, c1, c0, whole} {
			h.send(b.Attr, b)
		}
	}()
	err := <-h.done
	if wantErr := fmt.Sprintf("chunk 2 covers rows [%d,%d), schedule says [%d,%d)", whole.Lo, whole.Hi, c2.Lo, c2.Hi); err == nil || !strings.Contains(err.Error(), wantErr) {
		t.Fatalf("a resent range off the schedule: got %v, want an error saying %q", err, wantErr)
	}
}

// TestShardSliceChunksRefused: a returned rows chunk off its share's
// schedule, of a pair or attribute the range has no share of, in an
// envelope of another attribute, with a cell that is no dissimilarity,
// with too few cells or bytes past its last cell, a whole share in one
// frame, or a whole slice in one frame of the retired layout (Attr |
// float64 Max | cells) is refused, and installs nothing.
func TestShardSliceChunksRefused(t *testing.T) {
	chunk := func(h *rowsHarness, i int) shardRowsBody { return h.gen(1)[h.share[i]] }
	withCell := func(v float64) func(h *rowsHarness) error {
		return func(h *rowsHarness) error {
			b := chunk(h, 0)
			cells := make([]float64, (b.Hi-b.Lo)*b.cols)
			for i := range cells {
				cells[i] = 1
			}
			cells[1] = v
			return h.send(b.Attr, rowsChunk(b.Attr, b.J, b.K, b.Lo, b.Hi, b.cols, cells))
		}
	}
	first := func(h *rowsHarness) shardRowsBody { return chunk(h, 0) }
	raw := func(payload func(h *rowsHarness) []byte) func(h *rowsHarness) error {
		return func(h *rowsHarness) error {
			return h.send(first(h).Attr, shardFrameBody{Frame: payload(h)}) // the bytes as they are
		}
	}
	for _, tc := range []struct {
		name string
		send func(h *rowsHarness) error
		want func(h *rowsHarness) string
	}{
		{"off schedule", func(h *rowsHarness) error {
			b := chunk(h, 1)
			return h.send(b.Attr, b)
		}, func(h *rowsHarness) string {
			c0, c1 := chunk(h, 0), chunk(h, 1)
			return fmt.Sprintf("covers rows [%d,%d), schedule says [%d,%d)", c1.Lo, c1.Hi, c0.Lo, c0.Hi)
		}},
		{"envelope attribute", func(h *rowsHarness) error {
			b := first(h)
			other := h.comp[0]
			if other == b.Attr {
				other = h.comp[1]
			}
			return h.send(other, b)
		}, said("in an envelope of attribute")},
		{"wrong pair", func(h *rowsHarness) error {
			b := first(h)
			b.J, b.K = b.K, b.J
			return h.send(b.Attr, b)
		}, said("which has no share")},
		{"wrong attribute", func(h *rowsHarness) error {
			b := first(h)
			b.Attr = len(h.core.cfg.Schema.Attrs) - 1 // the categorical city
			return h.send(b.Attr, b)
		}, said("sent rows of attribute 3")},
		{"NaN cell", withCell(math.NaN()), said("invalid dissimilarity NaN")},
		{"negative cell", withCell(-1), said("invalid dissimilarity -1")},
		{"+Inf cell", withCell(math.Inf(1)), said("invalid dissimilarity +Inf")},
		{"short cell block", func(h *rowsHarness) error {
			b := first(h)
			b.cols--
			return h.send(b.Attr, b)
		}, said("bytes for")},
		{"trailing bytes", raw(func(h *rowsHarness) []byte {
			enc, _ := wire.EncodeBody(first(h))
			return append(enc, 0)
		}), said("trailing bytes")},
		{"one-frame slice", raw(func(h *rowsHarness) []byte {
			return appendFloat64s(appendFloat64(appendInt(nil, first(h).Attr), 2), []float64{1, 2})
		}), said("malformed")},
		{"one-frame slice without its max", func(h *rowsHarness) error {
			b := first(h)
			b.Hi = h.gen(1)[h.share[len(h.share)-1]].Hi
			return h.send(b.Attr, rowsChunk(b.Attr, b.J, b.K, b.Lo, b.Hi, b.cols, make([]float64, (b.Hi-b.Lo)*b.cols)))
		}, func(h *rowsHarness) string {
			c0 := chunk(h, 0)
			return fmt.Sprintf("schedule says [%d,%d)", c0.Lo, c0.Hi)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newRowsHarness(t)
			if err := tc.send(h); err != nil {
				t.Fatal(err)
			}
			err, want := <-h.done, tc.want(h)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("got %v, want an error saying %q", err, want)
			}
			for _, attr := range h.comp {
				if slices.Max(h.installed(attr)) != 0 {
					t.Errorf("attribute %d: a refused chunk was installed: %v", attr, h.installed(attr))
				}
			}
		})
	}
}

// said is the expectation of an error saying text.
func said(text string) func(*rowsHarness) string { return func(*rowsHarness) string { return text } }

// TestShardOfferValidation exercises the worker's offer hygiene: a
// mismatched schema fingerprint, a shard index disagreeing with the
// registration, and a range outside the census must all be refused as
// aborts on the coordinator's link, not computed.
func TestShardOfferValidation(t *testing.T) {
	leakcheck.Check(t)
	pool := newShardWorkerPool(t, 1, ShardServerConfig{Schema: pipelineSchema()})
	dial := pool.dialer("offer-validation", nil)

	for _, tc := range []struct {
		name   string
		mutate func(*shardOfferBody)
	}{
		{"fingerprint", func(o *shardOfferBody) { o.Fingerprint = "bogus" }},
		{"shard-index", func(o *shardOfferBody) { o.Shard = 3 }},
		{"range", func(o *shardOfferBody) { o.Hi = 1 << 30 }},
		{"seed-shape", func(o *shardOfferBody) { o.Seeds = o.Seeds[:1] }},
		{"row-seed-shape", func(o *shardOfferBody) { o.RowSeeds = o.RowSeeds[:1] }},
		{"row-seed-pairs", func(o *shardOfferBody) { o.RowSeeds[1] = nil }},
		{"row-seeds-missing", func(o *shardOfferBody) { o.RowSeeds = nil }},
		{"count-shape", func(o *shardOfferBody) { o.Counts = o.Counts[:1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, _, err := Config{Schema: pipelineSchema(), Variant: Float64Variant}.normalized()
			if err != nil {
				t.Fatal(err)
			}
			tp := &ThirdParty{cfg: cfg, holders: []string{"A", "B"}, counts: []int{2, 2},
				guard: newGuard(TPName, cfg), masters: map[string][]byte{"A": {1}, "B": {2}}}
			tp.cfg.ShardDial = dial
			var idErr error
			tp.identity, idErr = keys.NewIdentity(TPName, rand.Reader)
			if idErr != nil {
				t.Fatal(idErr)
			}
			defer tp.guard.release()
			link, err := tp.dialShard(0)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			defer link.close()
			seeds, rowSeeds := tp.seedTables()
			offer := shardOfferBody{
				Shard: 0, Lo: 0, Hi: 3,
				Holders:     tp.holders,
				Counts:      tp.counts,
				Fingerprint: schemaFingerprint(cfg.Schema),
				Variant:     cfg.Variant,
				RNG:         cfg.RNG,
				Seeds:       seeds,
				RowSeeds:    rowSeeds,
			}
			tc.mutate(&offer)
			if err := link.send(wire.Message{From: TPName, To: ShardName(0), Kind: kindShardOffer, Attr: -1}, offer); err != nil {
				t.Fatalf("send offer: %v", err)
			}
			m, err := link.ep.Recv()
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			if m.Kind != kindAbort {
				t.Fatalf("want an abort for a %s-mutated offer, got %q", tc.name, m.Kind)
			}
		})
	}
}

// TestShardProcOfferParamsCannotCrashWorker: the offer once carried the
// coordinator's integer mask bounds and parallelism, and a worker trusted
// them — an offer with MaskRange 0 for an int64 per-pair session over a
// range that starts mid-holder made the keystream positioning panic in a
// stage goroutine, killing every session of the process, and a crafted
// parallelism sized the worker's compute. That gob-era offer is now
// refused as malformed with a typed abort, and so is an offer whose census
// cannot fit, before the worker allocates for it; an offer in the fixed
// layout over such a range must leave the worker answering with rows or
// an abort, its core sized from the worker's own cores;
// and the same ShardServer must then complete a normal session.
func TestShardProcOfferParamsCannotCrashWorker(t *testing.T) {
	leakcheck.Check(t)
	pool := newShardWorkerPool(t, 1, ShardServerConfig{Schema: pipelineSchema()})
	cfg, _, err := Config{Schema: pipelineSchema(), Variant: Int64Variant, Mode: protocol.PerPair, Parallelism: 1}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	tp := &ThirdParty{cfg: cfg, holders: []string{"A", "B"}, counts: []int{2, 2},
		guard: newGuard(TPName, cfg), masters: map[string][]byte{"A": {1}, "B": {2}}}
	defer tp.guard.release()
	if tp.identity, err = keys.NewIdentity(TPName, rand.Reader); err != nil {
		t.Fatal(err)
	}
	// An offer whose masking mode or generator kind is unknown is refused
	// outright: the worker's first answer is a typed abort, not rows.
	for _, bad := range []struct {
		name  string
		offer shardOfferBody
	}{{"masking mode", shardOfferBody{Mode: protocol.Mode(2)}}, {"generator kind", shardOfferBody{RNG: rng.Kind(9)}}} {
		tp.cfg.ShardDial = pool.dialer("crafted-"+bad.name, nil)
		link, err := tp.dialShard(0)
		if err != nil {
			t.Fatalf("%s: dial: %v", bad.name, err)
		}
		offer := bad.offer
		offer.Lo, offer.Hi, offer.Holders, offer.Counts = 0, 4, tp.holders, tp.counts
		offer.Fingerprint = schemaFingerprint(cfg.Schema)
		offer.Seeds, offer.RowSeeds = tp.seedTables()
		if err := link.send(wire.Message{From: TPName, To: ShardName(0), Kind: kindShardOffer, Attr: -1}, offer); err != nil {
			t.Fatalf("%s: send offer: %v", bad.name, err)
		}
		m, err := link.ep.Recv()
		if err != nil {
			t.Fatalf("%s: the worker link ended without an abort: %v", bad.name, err)
		}
		var body abortBody
		if m.Kind != kindAbort || wire.DecodeBody(m.Payload, &body) != nil || !strings.Contains(body.Reason, bad.name) {
			t.Fatalf("%s: the worker answered with %q %q, want an abort naming it", bad.name, m.Kind, body.Reason)
		}
		link.close()
	}
	// The offer layout that still carried the mask bounds and the
	// coordinator's parallelism, as gob wrote it: a crafted width sized the
	// compute-token channel and, on an alphanumeric attribute, grew each
	// engine's edit-distance scratches to that many.
	type intParams struct{ MaskRange, MaxMagnitude int64 }
	type boundedOffer struct {
		Shard           int
		Lo, Hi          int
		Holders         []string
		Counts          []int
		Fingerprint     string
		Mode            protocol.Mode
		Variant         Variant
		RNG             rng.Kind
		IntParams       intParams
		FloatParams     protocol.FloatParams
		LocalChunkBytes int
		Parallelism     int
		Seeds           [][]rng.Seed
		RowSeeds        [][]rng.Seed
	}
	wide := boundedOffer{
		Lo: 0, Hi: 4, Holders: tp.holders, Counts: tp.counts,
		Fingerprint: schemaFingerprint(cfg.Schema),
		Mode:        protocol.PerPair, Variant: Int64Variant, RNG: cfg.RNG,
		IntParams:   intParams{MaskRange: 0, MaxMagnitude: 1},
		Parallelism: 1 << 40,
	}
	wide.Seeds, wide.RowSeeds = tp.seedTables()
	tp.cfg.ShardDial = pool.dialer("gob-era-offer", nil)
	link, err := tp.dialShard(0)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	gobOffer := wire.Message{From: TPName, To: ShardName(0), Kind: kindShardOffer, Attr: -1, Payload: gobEncode(t, wide)}
	if err := link.ep.Send(&gobOffer); err != nil {
		t.Fatalf("send the gob-era offer: %v", err)
	}
	m, err := link.ep.Recv()
	if err != nil {
		t.Fatalf("the worker link ended without an abort for the gob-era offer: %v", err)
	}
	if err := peerAbortError(m); m.Kind != kindAbort || !errors.Is(err, ErrAborted) || !strings.Contains(err.Error(), wire.ErrMalformed.Error()) {
		t.Fatalf("the worker answered the gob-era offer with %q (%v), want an abort naming it malformed", m.Kind, err)
	}
	link.close()

	// An offer whose census cannot fit is refused with a typed abort before
	// anything is built for it: a census of 2^31 rows, whose triangle's
	// float64 cells would take 2^64 bytes, and censuses whose total or
	// triangle overflows an int. The range is B's first 2^17 rows, whose
	// chunk schedules alone would take megabytes to lay out.
	for _, counts := range [][]int{{1 << 30, 1 << 30}, {math.MaxInt, 1}, {1 << 32, 0}} {
		tp.cfg.ShardDial = pool.dialer(fmt.Sprintf("census-%d-%d", counts[0], counts[1]), nil)
		link, err := tp.dialShard(0)
		if err != nil {
			t.Fatalf("census %v: dial: %v", counts, err)
		}
		offer := shardOfferBody{Lo: counts[0], Hi: counts[0] + 1<<17, Holders: tp.holders, Counts: counts,
			Fingerprint: schemaFingerprint(cfg.Schema), Mode: cfg.Mode, Variant: cfg.Variant, RNG: cfg.RNG}
		offer.Seeds, offer.RowSeeds = tp.seedTables()
		var m *wire.Message
		// The worker answers an offer once: one reading.
		grew, _ := alloccheck.Least(1, func() {
			if err = link.send(wire.Message{From: TPName, To: ShardName(0), Kind: kindShardOffer, Attr: -1}, offer); err == nil {
				m, err = link.ep.Recv()
			}
		})
		if err != nil {
			t.Fatalf("census %v: the worker link ended without an abort: %v", counts, err)
		}
		if err := peerAbortError(m); m.Kind != kindAbort || !errors.Is(err, ErrAborted) || !strings.Contains(err.Error(), "census") {
			t.Fatalf("census %v: the worker answered with %q (%v), want an abort naming the census", counts, m.Kind, err)
		}
		if grew >= 1<<20 {
			t.Errorf("census %v: %d bytes allocated while the worker refused the offer", counts, grew)
		}
		link.close()
	}

	// The fixed layout has no parallelism to craft: a decoded offer gets a
	// core sized from the worker's own cores. Only the sizing is checked:
	// nothing is evaluated here.
	offer := shardOfferBody{
		Shard: 0, Lo: 3, Hi: 4, // B's second row: the range starts mid-holder
		Holders: tp.holders, Counts: tp.counts,
		Fingerprint: schemaFingerprint(cfg.Schema),
		Mode:        protocol.PerPair, Variant: Int64Variant, RNG: cfg.RNG,
	}
	offer.Seeds, offer.RowSeeds = tp.seedTables()
	payload, err := wire.EncodeBody(offer)
	if err != nil {
		t.Fatal(err)
	}
	var decoded shardOfferBody
	if err := wire.DecodeBody(payload, &decoded); err != nil {
		t.Fatalf("the fixed-layout offer does not decode: %v", err)
	}
	core, err := pool.servers[0].offerCore(0, decoded)
	if err != nil {
		t.Fatalf("fixed-layout offer: %v", err)
	}
	if own := parallel.Workers(0); core.workers != own || cap(core.compute) != own || core.engines.Workers() != own {
		t.Fatalf("a fixed-layout offer sized the worker's core %d wide (%d compute tokens, %d-wide engines), want its own %d",
			core.workers, cap(core.compute), core.engines.Workers(), own)
	}

	tp.cfg.ShardDial = pool.dialer("crafted-offer", nil)
	if link, err = tp.dialShard(0); err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer link.close()
	if err := link.send(wire.Message{From: TPName, To: ShardName(0), Kind: kindShardOffer, Attr: -1}, offer); err != nil {
		t.Fatalf("send offer: %v", err)
	}
	// An S chunk of B's row 1, attribute 0 (numeric), encoded as B's shard
	// lane carries it: the worker's pair readers positioned the pair's
	// keystream at B's row 1 as they started, and the chunk is evaluated or
	// refused, never a crash.
	near, far := wire.Pipe()
	chunk := numBody(2, 1, 2, tagInt64, 1, 2, make([]byte, 16))
	if err := wire.NewEndpoint(near).SendBody(wire.Message{From: "B", To: ShardName(0), Kind: kindNumS, Attr: 0}, chunk); err != nil {
		t.Fatal(err)
	}
	frame, err := far.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := link.send(wire.Message{From: TPName, To: ShardName(0), Kind: kindShardFrame, Attr: 1}, shardFrameBody{Frame: frame}); err != nil {
		t.Fatalf("relay B's chunk: %v", err)
	}
	if m, err = link.ep.Recv(); err != nil {
		t.Fatalf("worker link after the crafted offer: %v", err)
	}
	if m.Kind != kindShardRows && m.Kind != kindAbort {
		t.Fatalf("worker answered the crafted offer with %q", m.Kind)
	}
	link.close()

	parts := pipelineParts(t, 1)
	base := Config{Schema: pipelineSchema(), Variant: Int64Variant, Mode: protocol.PerPair, Parallelism: 1}
	want, err := runSerialTP(base, parts, nil, deterministicRandom(49), nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	pool.setAddr(1, pool.addrs[0]) // both ranges on the one worker
	session := base
	session.TPShards = 2
	session.ShardDial = pool.dialer("after-crafted-offer", nil)
	got, err := RunInMemory(session, parts, nil, deterministicRandom(49))
	if err != nil {
		t.Fatalf("session after the crafted offer: %v", err)
	}
	assertSameOutcome(t, "session after the crafted offer", want, got)
}

// benchShardProcSession runs one full session with the third party split
// into k row-range shards (one range at k = 1), every holder↔TP lane
// (control and shard) behind a store-and-forward link: 1 ms propagation,
// 64 MB/s bandwidth. The shards' pair chunks are evaluated behind the
// cross-process control protocol — real localhost TCP, v4 registration,
// AES-GCM worker links — by ShardServers in this process (the protocol
// cost without subprocess spawn noise). The two-holder shape keeps the
// responder→TP S matrix the dominant payload, so shard scaling shows up
// as K lanes draining it concurrently.
func benchShardProcSession(b *testing.B, k int) {
	parts := pairCapParts(b, 400, 400)
	pool := newShardWorkerPool(b, k, ShardServerConfig{Schema: parts[0].Table.Schema()})
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant, TPShards: k}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		linkSeed := uint64(0)
		tpLink := func(owner, peer string, c wire.Conduit) wire.Conduit {
			if !strings.HasPrefix(owner, TPName) && !strings.HasPrefix(peer, TPName) {
				return c
			}
			linkSeed++
			return wire.Link(c, time.Millisecond, 0, 64<<20, linkSeed)
		}
		run := pool.withWorkers(cfg, fmt.Sprintf("bench-%d", i))
		if _, err := RunInMemoryWrapped(run, parts, nil, deterministicRandom(28), tpLink); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionShardProc is the session-shardproc family's in-tree
// smoke variant (CI runs it at -benchtime=1x): the session over
// bandwidth-limited 1 ms TP links at one range, and sharded at K 2 and 4
// with its pair chunks evaluated by workers.
func BenchmarkSessionShardProc(b *testing.B) {
	b.Run("one-range", func(b *testing.B) { benchShardProcSession(b, 1) })
	for _, k := range []int{2, 4} {
		b.Run(fmt.Sprintf("workers-%d", k), func(b *testing.B) { benchShardProcSession(b, k) })
	}
}
