package party

import (
	"context"
	"errors"
	"fmt"
	"strings"
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
	// A send that fails with an error of the transport's own, not one the
	// session knows, still ends the session classified.
	unretried := newTap(chaosConfig())
	unretried.onSend("B", TPName, func(f *tapFrame) ([][]byte, error) {
		if f.N == 4 {
			return nil, errors.New("chaos test: send failed")
		}
		return f.pass()
	})
	scenarios := []struct {
		name string
		wrap ConduitWrap
	}{
		{"cut-handshake", linkFault("A", "TP", wire.FaultSpec{Kind: wire.FaultCut, Frame: 1})},
		{"drop-census-count", linkFault("A", "TP", wire.FaultSpec{Kind: wire.FaultDrop, Frame: 2})},
		{"cut-group-key", linkFault("A", "B", wire.FaultSpec{Kind: wire.FaultCut, Frame: 2})},
		{"drop-local-stream", linkFault("B", "TP", wire.FaultSpec{Kind: wire.FaultDrop, Frame: 4})},
		{"cut-pair-stream", linkFault("C", "TP", wire.FaultSpec{Kind: wire.FaultCut, Frame: 5})},
		{"corrupt-secured-frame", linkFault("A", "TP", wire.FaultSpec{Kind: wire.FaultCorrupt, Frame: 3, Seed: 9})},
		{"cut-disguise", linkFault("A", "C", wire.FaultSpec{Kind: wire.FaultCut, Frame: 3})},
		{"transient-unretried", unretried.wrap},
		{"drop-result", linkFault("TP", "A", wire.FaultSpec{Kind: wire.FaultDrop, Frame: 3})},
	}
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			leakcheck.Check(t)
			out, err := RunInMemoryWrappedContext(context.Background(), chaosConfig(), parts, reqs,
				deterministicRandom(21), sc.wrap)
			if err == nil {
				t.Fatalf("%s: session succeeded, outcome %v", sc.name, out)
			}
			if !errors.Is(err, ErrAborted) && !errors.Is(err, ErrSessionTimeout) && !errors.Is(err, wire.ErrClosed) {
				t.Fatalf("%s: unclassified error: %v", sc.name, err)
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

// TestChaosLateChunksAfterAbort covers the post-abort wire tail: chunk
// frames that arrive after an abort frame terminated the stream must
// surface the peer's classified reason — never a kind-mismatch or schedule
// error — and the late frames are simply never consumed. Runs under -race
// in CI.
func TestChaosLateChunksAfterAbort(t *testing.T) {
	leakcheck.Check(t)
	cfg := chaosConfig()
	cfg.PlaintextChannels = true // the rule crafts protocol frames
	tp := newTap(cfg)
	// B aborts in front of its first local-matrix chunk, and the chunk —
	// and everything after it — still goes out, arriving after the abort.
	abort := abortFrame(t, "B", "chaos test injected abort")
	tp.onSend("B", TPName, first(kindLocal, func(f *tapFrame) ([][]byte, error) {
		return [][]byte{abort, f.Raw}, nil
	}))
	_, err := RunInMemoryWrappedContext(context.Background(), cfg, pipelineParts(t, 8), pipelineReqs(),
		deterministicRandom(27), tp.wrap)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("want ErrAborted from injected abort, got %v", err)
	}
	if !strings.Contains(err.Error(), "chaos test injected abort") {
		t.Fatalf("abort reason not propagated: %v", err)
	}
}

// abortFrame is the plaintext abort frame a holder sends the third party.
func abortFrame(t *testing.T, from, reason string) []byte {
	payload, err := wire.EncodeBody(abortBody{Reason: reason})
	if err != nil {
		t.Fatal(err)
	}
	return wire.AppendFrame(nil, &wire.Message{From: from, To: TPName, Kind: kindAbort, Attr: -1, Payload: payload})
}

// TestChaosPeerAbortReasonBounded: a peer's abort reason is cut to
// abortReasonLimit bytes at receipt, so a megabyte reason cannot become
// the session error a server holds and logs. Holder B's first local-matrix
// chunk is replaced by an abort carrying 1 MiB of reason; the third
// party's error stays under 1 KiB and still classifies B's abort.
func TestChaosPeerAbortReasonBounded(t *testing.T) {
	leakcheck.Check(t)
	cfg := chaosConfig()
	cfg.PlaintextChannels = true // the rule crafts protocol frames
	tp := newTap(cfg)
	abort := abortFrame(t, "B", strings.Repeat("x", 1<<20))
	tp.onSend("B", TPName, first(kindLocal, func(*tapFrame) ([][]byte, error) {
		return [][]byte{abort}, nil
	}))
	_, err := RunInMemoryWrappedContext(context.Background(), cfg, pipelineParts(t, 8), pipelineReqs(),
		deterministicRandom(27), tp.wrap)
	var tpErr error
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range joined.Unwrap() {
			if strings.HasPrefix(e.Error(), "third party: ") {
				tpErr = e
			}
		}
	}
	if tpErr == nil {
		t.Fatalf("no third-party error in %.500s", err)
	}
	if n := len(tpErr.Error()); n >= 1<<10 {
		t.Fatalf("third party's error is %d bytes: %.200s…", n, tpErr)
	}
	if !errors.Is(tpErr, ErrAborted) || !strings.Contains(tpErr.Error(), "peer B: ") {
		t.Fatalf("third party's error does not classify B's abort: %v", tpErr)
	}
}

// TestChaosDuplicateLocalChunkFrame: a duplicated chunk frame in the
// local-matrix stream is a protocol violation the third party must turn
// into a descriptive error — the lane reader's local-chunk check finds the
// copy where the schedule wants the next chunk — never a panic, never a
// hang.
func TestChaosDuplicateLocalChunkFrame(t *testing.T) {
	leakcheck.Check(t)
	cfg := chaosConfig()
	cfg.PlaintextChannels = true // the rule reads frame kinds
	cfg.LocalChunkBytes = 64     // several local chunks, so the copy lands where chunk 1 belongs
	tp := newTap(cfg)
	// A sends its first local-matrix chunk twice — a peer whose retransmit
	// logic has gone wrong.
	tp.onSend("A", TPName, first(kindLocal, func(f *tapFrame) ([][]byte, error) {
		return [][]byte{f.Raw, f.Raw}, nil
	}))
	_, err := RunInMemoryWrappedContext(context.Background(), cfg, pipelineParts(t, 8), pipelineReqs(),
		deterministicRandom(29), tp.wrap)
	if err == nil {
		t.Fatal("duplicated chunk frame was accepted")
	}
	if !scheduleRefusal("A local").MatchString(err.Error()) {
		t.Fatalf("duplicate chunk error is not the lane reader's schedule refusal: %v", err)
	}
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
	// A's reader parks inside its first receive until release closes;
	// B's lane fails once A's reader is parked there.
	tp := newTap(cfg)
	entered, release := make(chan struct{}), make(chan struct{})
	tp.onRecv(TPName, "A", func(f *tapFrame) ([][]byte, error) {
		if f.N == 1 {
			close(entered)
			<-release
		}
		return f.pass()
	})
	severed := errors.New("lane B severed")
	tp.onRecv(TPName, "B", func(*tapFrame) ([][]byte, error) {
		<-entered
		return nil, severed
	})
	a := tp.wrap(TPName, "A", out)
	bIn, bOut := wire.Pipe()
	defer bIn.Close()
	if err := bIn.Send([]byte("B's first frame")); err != nil {
		t.Fatal(err)
	}
	b := tp.wrap(TPName, "B", bOut)
	t.Cleanup(func() { // runs once leakcheck has seen every reader exit
		if got := len(tp.received("A", TPName)); got != 1 {
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

	g := &laneGroup{
		eps:    []*wire.Endpoint{wire.NewEndpoint(a), wire.NewEndpoint(b)},
		attrs:  []int{0},
		asms:   []*dissim.SliceAssembler{asm},
		finish: func(int) error { return errors.New("an attribute finished") },
	}
	if err := core.readLanes(context.Background(), g); !errors.Is(err, severed) {
		t.Fatalf("readLanes returned %v, want B's lane error", err)
	}
	close(release)
}
