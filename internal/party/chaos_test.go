package party

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/leakcheck"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// chaosConfig is the session shape the fault sweep runs: several
// attributes so every phase exists, secured channels (the deployment
// posture), tiny chunk frames so streams span many wire frames, and the
// lifecycle watchdog armed tight enough that a test never hangs. The
// timeouts are generous against race-detector scheduling noise — a
// session this small moves a frame every few milliseconds when healthy.
func chaosConfig() Config {
	return Config{
		Schema:          pipelineSchema(),
		Variant:         Float64Variant,
		Parallelism:     2,
		LocalChunkBytes: 256,
		SessionTimeout:  30 * time.Second,
		PhaseTimeout:    1500 * time.Millisecond,
	}
}

// linkFault wraps exactly one party's end of one directed session link
// with a scripted wire fault; every other conduit is untouched.
func linkFault(owner, peer string, spec wire.FaultSpec) ConduitWrap {
	return func(o, p string, c wire.Conduit) wire.Conduit {
		if o == owner && p == peer {
			return wire.Fault(c, spec)
		}
		return c
	}
}

// TestChaosFaultSweep injects every fault class into sessions at ordinals
// covering every protocol phase — handshake, census, group key, the
// local-matrix and pairwise chunk streams, result publication — and
// asserts the lifecycle contract: the session never hangs (the watchdog
// converts starvation into ErrSessionTimeout), every failure is
// classified (ErrAborted / ErrSessionTimeout / wrapped wire.ErrClosed),
// and no goroutine outlives the session.
//
// Frame ordinals are 1-based sends on the faulted link's raw transport:
// on a holder→TP link frame 1 is the hello, frame 2 the census count and
// frames 3+ the attribute chunk streams; on a holder→holder link frame 2
// is the group key (A→B) or the first disguised payload; on a TP→holder
// link frame 2 is the census broadcast and frame 3 the published result.
func TestChaosFaultSweep(t *testing.T) {
	scenarios := []struct {
		name        string
		owner, peer string
		spec        wire.FaultSpec
	}{
		{"cut-handshake", "A", "TP", wire.FaultSpec{Kind: wire.FaultCut, Frame: 1}},
		{"drop-census-count", "A", "TP", wire.FaultSpec{Kind: wire.FaultDrop, Frame: 2}},
		{"cut-group-key", "A", "B", wire.FaultSpec{Kind: wire.FaultCut, Frame: 2}},
		{"drop-local-stream", "B", "TP", wire.FaultSpec{Kind: wire.FaultDrop, Frame: 4}},
		{"cut-pair-stream", "C", "TP", wire.FaultSpec{Kind: wire.FaultCut, Frame: 5}},
		{"corrupt-secured-frame", "A", "TP", wire.FaultSpec{Kind: wire.FaultCorrupt, Frame: 3, Seed: 9}},
		{"cut-disguise", "A", "C", wire.FaultSpec{Kind: wire.FaultCut, Frame: 3}},
		{"transient-unretried", "B", "TP", wire.FaultSpec{Kind: wire.FaultTransient, Frame: 4}},
		{"drop-result", "TP", "A", wire.FaultSpec{Kind: wire.FaultDrop, Frame: 3}},
	}
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			leakcheck.Check(t)
			out, err := RunInMemoryWrappedContext(context.Background(), chaosConfig(), parts, reqs,
				deterministicRandom(21), linkFault(sc.owner, sc.peer, sc.spec))
			if err == nil {
				t.Fatalf("fault %s on %s->%s: session succeeded, outcome %v", sc.spec.Kind, sc.owner, sc.peer, out)
			}
			if !errors.Is(err, ErrAborted) && !errors.Is(err, ErrSessionTimeout) && !errors.Is(err, wire.ErrClosed) {
				t.Fatalf("fault %s on %s->%s: unclassified error: %v", sc.spec.Kind, sc.owner, sc.peer, err)
			}
		})
	}
}

// TestChaosWatchdogNamesStalledPhase pins the watchdog's diagnostic: a
// peer that silently stops sending mid-stream becomes a descriptive
// ErrSessionTimeout naming the starved party's current phase, and the
// abort cascade classifies every other party's failure.
func TestChaosWatchdogNamesStalledPhase(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	// Holder A's stream to the TP black-holes from frame 3 on: hellos and
	// census complete, then the TP starves waiting for A's first local
	// chunk while A believes it is sending normally.
	_, err := RunInMemoryWrappedContext(context.Background(), chaosConfig(), parts, pipelineReqs(),
		deterministicRandom(22), linkFault("A", "TP", wire.FaultSpec{Kind: wire.FaultDrop, Frame: 3}))
	if !errors.Is(err, ErrSessionTimeout) {
		t.Fatalf("want ErrSessionTimeout in the cascade, got %v", err)
	}
	if !strings.Contains(err.Error(), "no progress in phase") {
		t.Fatalf("timeout lacks the phase diagnostic: %v", err)
	}
	// Peers of the starved party unwind too, but HOW is scheduling-
	// dependent: a party reading the abort frame's conduit classifies
	// ErrAborted, one parked on a different conduit observes the close, one
	// whose own watchdog raced first reports its own timeout. The
	// deterministic abort-classification path is pinned separately by
	// TestChaosLateChunksAfterAbort.
}

// TestChaosSurvivableStall: a stall shorter than the watchdog bound is
// absorbed — the session completes and the report is bit-identical to the
// fault-free run.
func TestChaosSurvivableStall(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	want, err := RunInMemoryContext(context.Background(), chaosConfig(), parts, reqs, deterministicRandom(23))
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	got, err := RunInMemoryWrappedContext(context.Background(), chaosConfig(), parts, reqs,
		deterministicRandom(23), linkFault("B", "TP", wire.FaultSpec{Kind: wire.FaultStall, Frame: 4, Stall: 200 * time.Millisecond}))
	if err != nil {
		t.Fatalf("stalled run: %v", err)
	}
	assertSameOutcome(t, "survivable stall", want, got)
}

// TestChaosSurvivableTransientWithRetry: a one-shot transient send error
// under a Retry layer (below the secure channel, so sequence numbers stay
// aligned) is absorbed — the session completes bit-identically.
func TestChaosSurvivableTransientWithRetry(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	want, err := RunInMemoryContext(context.Background(), chaosConfig(), parts, reqs, deterministicRandom(24))
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	wrap := func(o, p string, c wire.Conduit) wire.Conduit {
		if o == "C" && p == "TP" {
			return wire.Retry(wire.Fault(c, wire.FaultSpec{Kind: wire.FaultTransient, Frame: 5}), 2)
		}
		return c
	}
	got, err := RunInMemoryWrappedContext(context.Background(), chaosConfig(), parts, reqs,
		deterministicRandom(24), wrap)
	if err != nil {
		t.Fatalf("transient+retry run: %v", err)
	}
	assertSameOutcome(t, "survivable transient", want, got)
}

// TestChaosFaultFreeBitIdenticalWithLifecycle pins that the lifecycle
// plumbing — bound conduits, armed watchdogs, context linking — is pure
// supervision: fault-free sessions with timeouts armed publish reports
// bit-identical to sessions with the lifecycle disabled, at Parallelism
// 1, 2 and all cores.
func TestChaosFaultFreeBitIdenticalWithLifecycle(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	for _, workers := range []int{1, 2, 0} {
		plain := chaosConfig()
		plain.Parallelism = workers
		plain.SessionTimeout = 0
		plain.PhaseTimeout = 0
		want, err := RunInMemory(plain, parts, reqs, deterministicRandom(25))
		if err != nil {
			t.Fatalf("workers=%d without lifecycle: %v", workers, err)
		}
		guarded := chaosConfig()
		guarded.Parallelism = workers
		got, err := RunInMemoryContext(context.Background(), guarded, parts, reqs, deterministicRandom(25))
		if err != nil {
			t.Fatalf("workers=%d with lifecycle: %v", workers, err)
		}
		assertSameOutcome(t, fmt.Sprintf("workers=%d", workers), want, got)
	}
}

// TestChaosCallerCancelAborts: a cancelled caller context aborts every
// party with a classified error instead of leaving anything parked.
func TestChaosCallerCancelAborts(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunInMemoryContext(ctx, chaosConfig(), pipelineParts(t, 8), pipelineReqs(), deterministicRandom(26))
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("want ErrAborted from cancelled context, got %v", err)
	}
}

// abortInjectingConduit rewrites the n-th sent frame of the watched kind
// into a crafted abort frame and keeps sending the remaining genuine
// frames afterwards — a peer that aborts mid-stream but whose already-
// queued chunk frames still arrive late. Plaintext sessions only.
type abortInjectingConduit struct {
	wire.Conduit
	from string

	mu   sync.Mutex
	seen int
}

func (c *abortInjectingConduit) Send(frame []byte) error {
	m, err := wire.ParseFrame(frame)
	if err != nil || m.Kind != kindLocal {
		return c.Conduit.Send(frame)
	}
	c.mu.Lock()
	c.seen++
	inject := c.seen == 1
	c.mu.Unlock()
	if !inject {
		return c.Conduit.Send(frame)
	}
	payload, err := wire.EncodeBody(abortBody{Reason: "chaos test injected abort"})
	if err != nil {
		return err
	}
	abort := &wire.Message{From: c.from, To: TPName, Kind: kindAbort, Attr: -1, Payload: payload}
	if err := c.Conduit.Send(wire.AppendFrame(nil, abort)); err != nil {
		return err
	}
	// The genuine chunk — and everything after it — still goes out, now
	// arriving AFTER the abort.
	return c.Conduit.Send(frame)
}

// TestChaosLateChunksAfterAbort covers the post-abort wire tail: chunk
// frames that arrive after an abort frame terminated the stream must
// surface the peer's classified reason — never a kind-mismatch or schedule
// error — and the late frames are simply never consumed. Runs under -race
// in CI.
func TestChaosLateChunksAfterAbort(t *testing.T) {
	leakcheck.Check(t)
	cfg := chaosConfig()
	cfg.PlaintextChannels = true // the wrap crafts protocol frames
	wrap := func(o, p string, c wire.Conduit) wire.Conduit {
		if o == "B" && p == "TP" {
			return &abortInjectingConduit{Conduit: c, from: "B"}
		}
		return c
	}
	_, err := RunInMemoryWrappedContext(context.Background(), cfg, pipelineParts(t, 8), pipelineReqs(),
		deterministicRandom(27), wrap)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("want ErrAborted from injected abort, got %v", err)
	}
	if !strings.Contains(err.Error(), "chaos test injected abort") {
		t.Fatalf("abort reason not propagated: %v", err)
	}
}

// chunkDuplicatingConduit re-sends the first frame of the watched kind
// immediately after the genuine send — a peer whose retransmit logic has
// gone wrong. Plaintext sessions only.
type chunkDuplicatingConduit struct {
	wire.Conduit

	mu   sync.Mutex
	done bool
}

func (c *chunkDuplicatingConduit) Send(frame []byte) error {
	if err := c.Conduit.Send(frame); err != nil {
		return err
	}
	m, err := wire.ParseFrame(frame)
	if err != nil || m.Kind != kindLocal {
		return nil
	}
	c.mu.Lock()
	dup := !c.done
	c.done = true
	c.mu.Unlock()
	if dup {
		return c.Conduit.Send(frame)
	}
	return nil
}

// TestChaosDuplicateLocalChunkFrame: a duplicated chunk frame in the
// local-matrix stream is a protocol violation the third party must turn
// into a descriptive error — the lane reader finds a chunk outside the
// agreed schedule — never a panic, never a hang.
func TestChaosDuplicateLocalChunkFrame(t *testing.T) {
	leakcheck.Check(t)
	cfg := chaosConfig()
	cfg.PlaintextChannels = true // the wrap decodes and replays frames
	wrap := func(o, p string, c wire.Conduit) wire.Conduit {
		if o == "A" && p == "TP" {
			return &chunkDuplicatingConduit{Conduit: c}
		}
		return c
	}
	_, err := RunInMemoryWrappedContext(context.Background(), cfg, pipelineParts(t, 8), pipelineReqs(),
		deterministicRandom(29), wrap)
	if err == nil {
		t.Fatal("duplicated chunk frame was accepted")
	}
	if !strings.Contains(err.Error(), "schedule") && !strings.Contains(err.Error(), "chunk") {
		t.Fatalf("duplicate chunk error not descriptive: %v", err)
	}
}

// gatedConduit parks its first Recv until release closes, after telling
// entered it has begun, and counts every Recv.
type gatedConduit struct {
	wire.Conduit
	entered, release chan struct{}
	recvs            atomic.Int32
}

func (c *gatedConduit) Recv() ([]byte, error) {
	if c.recvs.Add(1) == 1 {
		close(c.entered)
		<-c.release
	}
	return c.Conduit.Recv()
}

// failingConduit fails its first Recv once ready closes.
type failingConduit struct {
	wire.Conduit
	ready <-chan struct{}
	err   error
}

func (c *failingConduit) Recv() ([]byte, error) {
	<-c.ready
	return nil, c.err
}

// TestChaosLaneFailureStopsSiblingReaders: the first lane error returns at
// once, and the other lanes' readers stop before their next frame — even
// with frames still queued for them in an in-memory pipe, and even for a
// frame one of them was already receiving when the failure came: it is
// dropped, not installed.
func TestChaosLaneFailureStopsSiblingReaders(t *testing.T) {
	cfg, num, err := Config{Schema: dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}},
		LocalChunkBytes: 64}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	holders, counts := []string{"A", "B"}, []int{8, 8}
	seeds := [][]rng.Seed{make([]rng.Seed, 1)}
	core := newShardCore(cfg, num, holders, counts, 1, protocol.NewEnginePool(1), seeds, seeds)
	asm, err := dissim.NewSliceAssembler(counts, 0, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.splitBlocks(asm, 0); err != nil {
		t.Fatal(err)
	}

	// A's lane holds its whole local-matrix stream, queued before any read.
	in, out := wire.Pipe()
	sender := wire.NewEndpoint(in)
	chunks := cfg.localChunksRange(0, counts[0])
	if len(chunks) < 3 {
		t.Fatalf("A's stream has %d frames; the test needs a few", len(chunks))
	}
	cellsOf := func(ch [2]int) []float64 { return make([]float64, ch[1]*(ch[1]-1)/2-ch[0]*(ch[0]-1)/2) }
	for _, ch := range chunks {
		msg := wire.Message{From: "A", To: TPName, Kind: kindLocal, Attr: 0}
		if err := sender.SendBody(msg, localBody{N: counts[0], Lo: ch[0], Hi: ch[1], Cells: cellsOf(ch)}); err != nil {
			t.Fatal(err)
		}
	}
	in.Close()
	a := &gatedConduit{Conduit: out, entered: make(chan struct{}), release: make(chan struct{})}
	t.Cleanup(func() { // runs once leakcheck has seen every reader exit
		if got := a.recvs.Load(); got != 1 {
			t.Errorf("A's reader received %d frames after B's lane failed, want only the one in flight", got)
		}
		left := 0
		for {
			if _, err := out.Recv(); err != nil {
				break
			}
			left++
		}
		if left != len(chunks)-1 {
			t.Errorf("%d of A's %d frames left in the pipe, want %d", left, len(chunks), len(chunks)-1)
		}
		if err := asm.SetLocalRows(0, chunks[0][0], chunks[0][1], cellsOf(chunks[0])); err != nil {
			t.Errorf("A's first chunk was installed after B's lane failed: %v", err)
		}
	})
	leakcheck.Check(t)

	// B's lane fails once A's reader is inside its first receive.
	severed := errors.New("lane B severed")
	b := &failingConduit{ready: a.entered, err: severed}
	g := &laneGroup{
		eps:    []*wire.Endpoint{wire.NewEndpoint(a), wire.NewEndpoint(b)},
		attrs:  []int{0},
		asms:   []*dissim.SliceAssembler{asm},
		finish: func(int) error { return errors.New("an attribute finished") },
	}
	if err := core.readLanes(context.Background(), g); !errors.Is(err, severed) {
		t.Fatalf("readLanes returned %v, want B's lane error", err)
	}
	close(a.release)
}
