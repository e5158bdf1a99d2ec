package party

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ppclust/internal/leakcheck"
	"ppclust/internal/wire"
)

// reconnConfig is the chaos shape with a reconnect window armed: severs
// of TP lanes park instead of aborting, and the in-memory driver stands
// in for the dialer/acceptor pair.
func reconnConfig() Config {
	cfg := chaosConfig()
	cfg.ResumeWindow = 10 * time.Second
	return cfg
}

// flapLaneOnce wraps only the FIRST conduit instance of the (owner, peer)
// lane with a scripted link flap; the replacement conduit a resume dials
// passes through untouched. Per-lane state is what separates "the link
// flapped once" from "the link flaps forever".
func flapLaneOnce(owner, peer string, frame int) ConduitWrap {
	var mu sync.Mutex
	done := false
	return func(o, p string, c wire.Conduit) wire.Conduit {
		if o != owner || p != peer {
			return c
		}
		mu.Lock()
		defer mu.Unlock()
		if done {
			return c
		}
		done = true
		return wire.Fault(c, wire.FaultSpec{Kind: wire.FaultFlap, Frame: frame})
	}
}

// chainWraps composes conduit wraps left to right.
func chainWraps(wraps ...ConduitWrap) ConduitWrap {
	return func(o, p string, c wire.Conduit) wire.Conduit {
		for _, w := range wraps {
			c = w(o, p, c)
		}
		return c
	}
}

// TestChaosReconnectEveryHolderFlaps is the tentpole differential: one
// session in which EVERY holder's TP control lane flaps mid-stream (plus
// one TP→holder direction, severing the census broadcast) completes and
// publishes reports bit-identical to the fault-free run, at Parallelism
// 1, 2 and all cores. Frame ordinals are raw-transport sends: frame 1 is
// the hello, so 2+ are post-handshake protocol frames the Reconn
// watermarks cover.
func TestChaosReconnectEveryHolderFlaps(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	for _, workers := range []int{1, 2, 0} {
		cfg := reconnConfig()
		cfg.Parallelism = workers
		want, err := RunInMemoryContext(context.Background(), chaosConfig(), parts, reqs, deterministicRandom(31))
		if err != nil {
			t.Fatalf("workers=%d fault-free run: %v", workers, err)
		}
		got, err := RunInMemoryWrappedContext(context.Background(), cfg, parts, reqs, deterministicRandom(31),
			chainWraps(
				flapLaneOnce("A", TPName, 3),
				flapLaneOnce("B", TPName, 4),
				flapLaneOnce("C", TPName, 5),
				flapLaneOnce(TPName, "A", 2),
			))
		if err != nil {
			t.Fatalf("workers=%d flapped run: %v", workers, err)
		}
		assertSameOutcome(t, fmt.Sprintf("reconnect workers=%d", workers), want, got)
	}
}

// eventLog is a recording Events: every event any party reports, in the
// order they arrive.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) record(e Event) error {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
	return nil
}

// of returns the events reported for link.
func (l *eventLog) of(link Link) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, e := range l.events {
		if e.Kind != EventCensus && e.Link == link {
			out = append(out, e)
		}
	}
	return out
}

// TestLinkEventsOnFlap: when holder A's TP control lane flaps once, the
// third party reports A's control lane down, with the sever's cause, and
// then up again at a rebind epoch.
func TestLinkEventsOnFlap(t *testing.T) {
	leakcheck.Check(t)
	var log eventLog
	cfg := reconnConfig()
	cfg.Events = log.record
	if _, err := RunInMemoryWrappedContext(context.Background(), cfg, pipelineParts(t, 8), pipelineReqs(),
		deterministicRandom(31), flapLaneOnce("A", TPName, 3)); err != nil {
		t.Fatalf("flapped run: %v", err)
	}
	got := log.of(Link{Peer: "A", Lane: 0})
	if len(got) < 2 || got[0].Kind != EventLinkDown || got[0].Cause == nil {
		t.Fatalf("the third party reported %+v for A's control lane, want a down event with its cause first", got)
	}
	if last := got[len(got)-1]; last.Kind != EventLinkUp || last.Epoch < 1 {
		t.Fatalf("the third party reported %+v for A's control lane, want an up event at epoch ≥ 1 last", got)
	}
}

// TestChaosReconnectShardedFlap pins shard-lane self-healing: at K=2 a
// flapped shard lane per holder rebinds through the same resume path and
// the sharded session stays bit-identical to its fault-free run.
func TestChaosReconnectShardedFlap(t *testing.T) {
	leakcheck.Check(t)
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: reconnConfig().Schema})
	cfg := reconnConfig()
	cfg.TPShards = 2
	cfg = pool.withWorkers(cfg, "flapped")
	clean := reconnConfig()
	clean.TPShards = 2
	clean.ResumeWindow = 0
	clean = pool.withWorkers(clean, "fault-free")
	want, err := RunInMemoryContext(context.Background(), clean, parts, reqs, deterministicRandom(32))
	if err != nil {
		t.Fatalf("fault-free sharded run: %v", err)
	}
	got, err := RunInMemoryWrappedContext(context.Background(), cfg, parts, reqs, deterministicRandom(32),
		chainWraps(
			flapLaneOnce("A", ShardName(0), 2),
			flapLaneOnce("B", ShardName(1), 3),
			flapLaneOnce("C", TPName, 4),
		))
	if err != nil {
		t.Fatalf("flapped sharded run: %v", err)
	}
	assertSameOutcome(t, "sharded reconnect", want, got)
}

// TestChaosReconnectWindowExpiry: when no replacement transport can be
// dialed, the degraded session fails within a bounded window, classified
// ErrSessionTimeout with wire.ErrReconnectExpired kept in the chain and
// naming the reconnect window — never a hang. TestChaosShardProcWindowExpiry
// is the same case on a worker link.
func TestChaosReconnectWindowExpiry(t *testing.T) {
	leakcheck.Check(t)
	cfg := reconnConfig()
	cfg.ResumeWindow = 200 * time.Millisecond
	cfg.Redial = func(context.Context, string, int, ResumeState) (wire.Conduit, ResumeGrant, error) {
		return nil, ResumeGrant{}, errors.New("dial refused")
	}
	_, err := RunInMemoryWrappedContext(context.Background(), cfg, pipelineParts(t, 8), pipelineReqs(),
		deterministicRandom(33), flapLaneOnce("A", TPName, 3))
	if !errors.Is(err, ErrSessionTimeout) {
		t.Fatalf("want ErrSessionTimeout after window expiry, got %v", err)
	}
	if !errors.Is(err, wire.ErrReconnectExpired) {
		t.Fatalf("wire.ErrReconnectExpired lost from the chain: %v", err)
	}
	if !strings.Contains(err.Error(), "reconnect window") {
		t.Fatalf("expiry error does not name the reconnect window: %v", err)
	}
	if !strings.Contains(err.Error(), "phase") {
		t.Fatalf("expiry error does not name the degraded phase: %v", err)
	}
}

// TestChaosReconnectRefusedClassified: a typed fatal refusal from the
// resume control plane (here: coordinator-side abort) ends the holder's
// session classified ErrDisconnected with the refusal preserved in the
// chain, instead of retrying until the window runs out.
func TestChaosReconnectRefusedClassified(t *testing.T) {
	leakcheck.Check(t)
	cfg := reconnConfig()
	// Keep the window short: the third party cannot hear the holders' abort
	// frames (every lane to it is down and nobody redials an aborting
	// session), so it legitimately waits out its window before failing.
	cfg.ResumeWindow = time.Second
	cfg.Redial = func(context.Context, string, int, ResumeState) (wire.Conduit, ResumeGrant, error) {
		return nil, ResumeGrant{}, fmt.Errorf("acceptor: %w", ErrResumeAborted)
	}
	_, err := RunInMemoryWrappedContext(context.Background(), cfg, pipelineParts(t, 8), pipelineReqs(),
		deterministicRandom(34), flapLaneOnce("A", TPName, 3))
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("want ErrDisconnected from refused resume, got %v", err)
	}
	if !errors.Is(err, ErrResumeAborted) {
		t.Fatalf("refusal class lost from the chain: %v", err)
	}
}

// TestChaosDisconnectClassified pins the non-resumable path: without a
// reconnect window a mid-session sever keeps the old abort behavior but
// is now classified ErrDisconnected — with wire.ErrClosed still in the
// chain, so transport-level branching keeps working.
func TestChaosDisconnectClassified(t *testing.T) {
	leakcheck.Check(t)
	_, err := RunInMemoryWrappedContext(context.Background(), chaosConfig(), pipelineParts(t, 8), pipelineReqs(),
		deterministicRandom(35), flapLaneOnce("B", TPName, 4))
	if err == nil {
		t.Fatal("severed session succeeded")
	}
	if !errors.Is(err, ErrDisconnected) {
		t.Fatalf("want ErrDisconnected classification, got %v", err)
	}
	if !errors.Is(err, wire.ErrClosed) {
		t.Fatalf("wire.ErrClosed lost from the chain: %v", err)
	}
}

// TestResumeValidationEdgeCases drives the third party's Resume
// validation directly against a hand-rolled lane: unknown lanes, a
// still-live conduit, stale epochs and watermarks in both directions,
// duplicate in-flight resumes, a successful grant-and-complete, and
// refusal after the session is gone.
func TestResumeValidationEdgeCases(t *testing.T) {
	leakcheck.Check(t)
	cfg := Config{ResumeWindow: 5 * time.Second, PlaintextChannels: true}
	tp := &ThirdParty{
		cfg:     cfg,
		guard:   newGuard(TPName, cfg),
		masters: map[string][]byte{"A": nil},
	}
	a, b := wire.Pipe()
	defer b.Close()
	lane := tp.armResume(a, "A", 0)
	rc := tp.resumeLanes[laneKey{"A", 0}].rc

	if _, err := tp.Resume("A", 7, 1, 0, 0); !errors.Is(err, ErrResumeUnknown) {
		t.Fatalf("unknown lane index: got %v", err)
	}
	if _, err := tp.Resume("Z", 0, 1, 0, 0); !errors.Is(err, ErrResumeUnknown) {
		t.Fatalf("unknown holder: got %v", err)
	}
	if _, err := tp.Resume("A", 0, 1, 0, 0); !errors.Is(err, ErrResumeDuplicate) {
		t.Fatalf("live lane must refuse as duplicate holder: got %v", err)
	}

	// Move the watermarks: two TP→holder frames, one the other way.
	for i := 0; i < 2; i++ {
		if err := lane.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		if _, err := b.Recv(); err != nil {
			t.Fatalf("peer recv %d: %v", i, err)
		}
	}
	if err := b.Send([]byte("up")); err != nil {
		t.Fatalf("peer send: %v", err)
	}
	if _, err := lane.Recv(); err != nil {
		t.Fatalf("recv: %v", err)
	}
	// Sever the transport; a parked send both observes the flap and pins
	// the replay path.
	b.Close()
	parked := make(chan error, 1)
	go func() { parked <- lane.Send([]byte("parked")) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, down := rc.State(); down {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("lane never observed the sever")
		}
		time.Sleep(time.Millisecond)
	}
	// TP watermarks now: sent=3 (two delivered + the parked, cached frame),
	// recv=1.
	if _, err := tp.Resume("A", 0, 0, 1, 1); !errors.Is(err, ErrResumeStale) {
		t.Fatalf("epoch not beyond current must be stale: got %v", err)
	}
	if _, err := tp.Resume("A", 0, 1, 1, 5); !errors.Is(err, ErrResumeStale) {
		t.Fatalf("claiming frames never sent must be stale: got %v", err)
	}
	if _, err := tp.Resume("A", 0, 1, 0, 1); !errors.Is(err, ErrResumeStale) {
		t.Fatalf("backward sent watermark must be stale: got %v", err)
	}
	ticket, err := tp.Resume("A", 0, 1, 1, 1)
	if err != nil {
		t.Fatalf("valid resume refused: %v", err)
	}
	if g := ticket.Grant(); g.Sent != 3 || g.Recv != 1 {
		t.Fatalf("grant watermarks = %+v, want Sent 3 Recv 1", g)
	}
	if _, err := tp.Resume("A", 0, 2, 1, 1); !errors.Is(err, ErrResumeDuplicate) {
		t.Fatalf("resume while one is in flight must be duplicate: got %v", err)
	}

	na, nb := wire.Pipe()
	defer nb.Close()
	completed := make(chan error, 1)
	go func() { completed <- ticket.Complete(na) }()
	// The holder installed 1 of 3 frames: the replay is frames 2 and 3.
	for i, want := range []string{string([]byte{1}), "parked"} {
		frame, err := nb.Recv()
		if err != nil {
			t.Fatalf("replay recv %d: %v", i, err)
		}
		if string(frame) != want {
			t.Fatalf("replay frame %d = %q, want %q", i, frame, want)
		}
	}
	if err := <-completed; err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := <-parked; err != nil {
		t.Fatalf("parked send after rebind: %v", err)
	}
	if got := rc.Epoch(); got != 1 {
		t.Fatalf("epoch after rebind = %d, want 1", got)
	}

	// Session over: every further resume is a typed abort refusal.
	tp.guard.fail(errors.New("session torn down"))
	if _, err := tp.Resume("A", 0, 5, 1, 1); !errors.Is(err, ErrResumeAborted) {
		t.Fatalf("resume after abort must refuse: got %v", err)
	}
}

// BenchmarkSessionReconnect is the session-reconnect family's in-tree
// smoke variant (CI runs it at -benchtime=1x): the fault-free watermark
// overhead of arming resume, against the unarmed baseline, plus the
// time-to-recover of a session that flaps its dominant stream mid-flight.
func BenchmarkSessionReconnect(b *testing.B) {
	parts := pairCapParts(b, 200, 200)
	base := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant}
	run := func(b *testing.B, cfg Config, wrap ConduitWrap) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(36), wrap); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("baseline", func(b *testing.B) { run(b, base, nil) })
	b.Run("armed", func(b *testing.B) {
		cfg := base
		cfg.ResumeWindow = 10 * time.Second
		run(b, cfg, nil)
	})
	b.Run("flap-recover", func(b *testing.B) {
		cfg := base
		cfg.ResumeWindow = 10 * time.Second
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wrap := flapLaneOnce("B", TPName, 6)
			if _, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(36), wrap); err != nil {
				b.Fatal(err)
			}
		}
	})
}
