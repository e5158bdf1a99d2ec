package party

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ppclust/internal/wire"
)

// The session error taxonomy. Every way a session can end abnormally is
// classified under one of these sentinels (or under the transport's
// wire.ErrClosed / wire.ErrFrameTooLarge, which the taxonomy wraps rather
// than replaces), so operators and the cmd binaries can branch on the
// class with errors.Is while the message keeps the full story.
var (
	// ErrSessionTimeout classifies watchdog failures: the whole session
	// exceeded Config.SessionTimeout, or no progress was observed for
	// Config.PhaseTimeout — a peer stopped sending mid-phase, a handshake
	// never answered, a result never came.
	ErrSessionTimeout = errors.New("party: session timed out")
	// ErrAborted classifies deliberate terminations: a peer sent an abort
	// frame naming its reason, or the caller cancelled the context passed
	// to RunContext.
	ErrAborted = errors.New("party: session aborted")
	// ErrDisconnected classifies mid-session transport severs that were
	// not (or could not be) resumed: a conduit closed under a live session
	// after the handshake, and either no reconnect window was configured
	// or the resume was refused. The chain keeps the underlying
	// wire.ErrClosed, so errors.Is sees both the class and the transport
	// fact. Handshake-time severs keep their plain transport
	// classification — no session existed yet to disconnect from.
	ErrDisconnected = errors.New("party: disconnected mid-session")
)

// errSessionDone is the cancel cause of a session that ended cleanly; it
// never escapes to callers.
var errSessionDone = errors.New("party: session complete")

// abortGrace bounds how long a failing party waits for its abort
// notifications to flush before tearing its conduits down. Stragglers
// blocked past the grace are unblocked by the teardown itself (the guard
// cancel closes every bound conduit, failing the pending sends).
const abortGrace = 2 * time.Second

// abortReasonLimit caps the reason string carried in an abort frame, so a
// pathological error chain cannot balloon the one frame that must still
// fit through a failing session's wire — and what a party keeps of a
// peer's, so a hostile one cannot balloon the session error it holds.
const abortReasonLimit = 512

// clipReason cuts an abort reason to abortReasonLimit bytes.
func clipReason(reason string) string { return reason[:min(len(reason), abortReasonLimit)] }

// guard owns one party's session lifecycle: the cancellable context, the
// conduits closed when it ends, the session and phase watchdogs, and the
// abort notification that tells peers why a failing party is leaving. It
// is the one place cancellation, deadlines and teardown ordering meet, and
// the only thing that closes a party's conduits:
//
//	failure (local error, watchdog, peer abort, caller cancel)
//	  → notify peers (abort frames, best-effort, bounded by abortGrace)
//	  → cancel the guard context with the classified cause
//	  → owned conduits close, unblocking every parked Send/Recv
//	  → lane readers and rows collectors drain out with the cause
//
// A clean session instead calls release, which detaches the close so
// nothing closes — conduit ownership stays with the caller, exactly as
// before the lifecycle hardening.
type guard struct {
	name         string
	phaseTimeout time.Duration // set once, by watch
	window       time.Duration // Config.ResumeWindow: the reconnect window of every link arm makes resumable
	events       Events        // Config.Events, a no-op when unset
	ctx          context.Context
	cancel       context.CancelCauseFunc
	stopDeadline context.CancelFunc // frees the SessionTimeout timer; nil without one
	stopClose    func() bool        // detaches closeOwned from ctx

	mu       sync.Mutex
	phase    string
	seq      uint64 // progress marks; compared by the watchdog tick
	lastSeq  uint64
	degraded int // resumable lanes currently down; suspends the watchdog
	watchdog *time.Timer
	notify   func(reason string) // sends abort frames; set once endpoints exist
	failed   bool
	cause    error // first failure's cause; recorded before peers are notified
	released bool
	owned    []wire.Conduit // closed when ctx ends, unless a clean release came first
}

// newGuard arms a party's lifecycle: the session deadline (if any) starts
// counting immediately — construction-time handshakes are inside the
// bound — and the phase watchdog starts in the named phase. Ending the
// guard context, by fail's cancel or by the deadline, closes every conduit
// the guard owns from one AfterFunc: no goroutine waits per conduit.
func newGuard(name string, cfg Config) *guard {
	g := &guard{name: name, window: cfg.ResumeWindow, events: cfg.Events, phase: "handshake"}
	if g.events == nil {
		g.events = func(Event) error { return nil }
	}
	base := context.Background()
	if cfg.SessionTimeout > 0 {
		base, g.stopDeadline = context.WithDeadlineCause(base, time.Now().Add(cfg.SessionTimeout),
			fmt.Errorf("%w: %s: session exceeded %v", ErrSessionTimeout, name, cfg.SessionTimeout))
	}
	g.ctx, g.cancel = context.WithCancelCause(base)
	g.stopClose = context.AfterFunc(g.ctx, g.closeOwned)
	g.watch(cfg.PhaseTimeout)
	return g
}

// watch arms the phase watchdog at d, counting progress from now; d ≤ 0
// leaves the party without one. A party arms it once: from its Config at
// construction, or, on a shard worker, from the PhaseTimeout the
// coordinator's offer carries.
func (g *guard) watch(d time.Duration) {
	if d <= 0 {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.phaseTimeout, g.lastSeq = d, g.seq
	g.watchdog = time.AfterFunc(d, g.tick)
}

// bind owns a conduit and wraps it so that every successful frame in
// either direction counts as progress for the phase watchdog, and errors
// seen once the session ended abnormally carry its classified cause. It
// must wrap the raw transport — below any channel protection — so the
// guard's close reaches the real blocking call.
func (g *guard) bind(c wire.Conduit) wire.Conduit {
	g.own(c)
	return &guardedConduit{inner: c, g: g}
}

// own registers c to be closed when the guard context ends, which
// unblocks every Send and Recv parked on it; a conduit owned after that
// is closed at once. Resumable links are owned, not bound: the raw
// transports beneath them are bound already, and a parked Reconn sees
// neither their close nor the guard's end.
func (g *guard) own(c wire.Conduit) {
	g.mu.Lock()
	// ctx ends before closeOwned runs, and closeOwned reads the list under
	// mu, so whatever is appended while ctx is live gets closed.
	live := g.ctx.Err() == nil
	if live {
		g.owned = append(g.owned, c)
	}
	g.mu.Unlock()
	if !live {
		c.Close()
	}
}

// closeOwned closes the owned conduits, newest first: a resumable link
// closes before the transport under it, so the close ends the link
// instead of parking it as a sever.
func (g *guard) closeOwned() {
	g.mu.Lock()
	owned := g.owned
	g.mu.Unlock()
	for i := len(owned) - 1; i >= 0; i-- {
		owned[i].Close()
	}
}

// ended reports the classified cause of a session that ended abnormally:
// the failure's cause, or the deadline's when it fired without one. It is
// nil while the session is live and after a clean release.
func (g *guard) ended() error {
	if g.ctx.Err() == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.failed:
		return g.cause
	case g.released:
		return nil
	}
	return context.Cause(g.ctx)
}

type guardedConduit struct {
	inner wire.Conduit
	g     *guard
}

// endedErr maps a transport error seen after an abnormal end to the
// session's cause: the error is almost always the ErrClosed of the
// guard's own close, and the cause is why that close happened.
func (c *guardedConduit) endedErr(err error) error {
	if cause := c.g.ended(); cause != nil {
		return fmt.Errorf("party: %s: conduit closed by session end: %w", c.g.name, cause)
	}
	return err
}

func (c *guardedConduit) Send(frame []byte) error {
	if c.g.ended() != nil {
		return c.endedErr(wire.ErrClosed)
	}
	if err := c.inner.Send(frame); err != nil {
		return c.endedErr(err)
	}
	c.g.touch()
	return nil
}

func (c *guardedConduit) SendOwned(frame []byte) error {
	if c.g.ended() != nil {
		return c.endedErr(wire.ErrClosed)
	}
	if err := wire.SendOwned(c.inner, frame); err != nil {
		return c.endedErr(err)
	}
	c.g.touch()
	return nil
}

func (c *guardedConduit) TakesOwned() bool { return wire.TakesOwned(c.inner) }

func (c *guardedConduit) Recv() ([]byte, error) {
	f, err := c.inner.Recv()
	if err != nil {
		return nil, c.endedErr(err)
	}
	c.g.touch()
	return f, nil
}

func (c *guardedConduit) RecvOwned() bool { return wire.RecvOwned(c.inner) }

func (c *guardedConduit) Close() error { return c.inner.Close() }

// touch marks progress; the watchdog only fires when a full PhaseTimeout
// elapses with no mark.
func (g *guard) touch() {
	g.mu.Lock()
	g.seq++
	g.mu.Unlock()
}

// setPhase names the session phase for watchdog diagnostics; entering a
// phase counts as progress.
func (g *guard) setPhase(phase string) {
	g.mu.Lock()
	g.phase = phase
	g.seq++
	g.mu.Unlock()
}

// phaseName reports the current phase for diagnostics.
func (g *guard) phaseName() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.phase
}

// noteDegraded marks one resumable lane down: while any lane is degraded
// the phase watchdog is suspended — the reconnect window, not the
// inactivity bound, governs how long a degraded session may sit idle.
// noteRestored ends one lane's degradation (rebind or window expiry) and
// counts as progress, so the watchdog re-arms from the recovery, not from
// the last pre-sever frame.
func (g *guard) noteDegraded() {
	g.mu.Lock()
	g.degraded++
	g.mu.Unlock()
}

func (g *guard) noteRestored() {
	g.mu.Lock()
	if g.degraded > 0 {
		g.degraded--
	}
	g.seq++
	g.mu.Unlock()
}

// failure reports why the guard is no longer watching: the recorded
// failure cause, errSessionDone after a clean release, or nil while live.
func (g *guard) failure() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.failed {
		return g.cause
	}
	if g.released {
		return errSessionDone
	}
	return nil
}

// setNotify installs the abort-frame sender once the party's endpoints
// exist. Failures before this point (mid-handshake) tear down without
// notifying; peers observe the conduit close instead.
func (g *guard) setNotify(fn func(reason string)) {
	g.mu.Lock()
	g.notify = fn
	g.mu.Unlock()
}

// tick is the phase watchdog: if no progress mark landed since the last
// tick, the session has stalled for at least PhaseTimeout — fail it with
// a descriptive timeout naming the phase. Otherwise re-arm. The effective
// bound is between one and two PhaseTimeouts from the last real progress.
func (g *guard) tick() {
	g.mu.Lock()
	if g.released || g.failed {
		g.mu.Unlock()
		return
	}
	if g.seq != g.lastSeq || g.degraded > 0 {
		g.lastSeq = g.seq
		g.watchdog.Reset(g.phaseTimeout)
		g.mu.Unlock()
		return
	}
	phase := g.phase
	g.mu.Unlock()
	g.fail(fmt.Errorf("%w: %s: no progress in phase %q for %v",
		ErrSessionTimeout, g.name, phase, g.phaseTimeout))
}

// fail ends the session abnormally: notify peers with the cause, then
// cancel the guard context so every bound conduit closes and every
// blocked call unwinds carrying the cause. Only the first failure
// notifies and sets the cause; later calls are no-ops.
func (g *guard) fail(cause error) {
	g.mu.Lock()
	if g.failed || g.released {
		g.mu.Unlock()
		return
	}
	g.failed = true
	// Record the cause before notifying: peers react to the abort frames by
	// closing conduits, which can bounce our own blocked calls back into
	// abort() before the cancel below has published the cause through the
	// context.
	g.cause = cause
	notify := g.notify
	owned := g.owned
	g.mu.Unlock()
	if notify != nil {
		// An abort frame sent on a resumable link that is down would park
		// until the teardown, so the grace would always run out: such a
		// link is closed first, and arm's down hook closes one that goes
		// down while the frames flush.
		for _, c := range owned {
			if rc, ok := c.(*wire.Reconn); ok {
				if _, _, down := rc.State(); down {
					rc.Close()
				}
			}
		}
		notify(clipReason(cause.Error()))
	}
	g.cancel(cause)
}

// release ends the guard's watch after a clean session: the watchdog
// stops, the close detaches WITHOUT running (ownership returns to the
// caller), and the context is cancelled only to free its timer. The
// detach comes before the cancel, which is what keeps the cancel from
// closing anything. Idempotent.
func (g *guard) release() {
	g.mu.Lock()
	if g.released {
		g.mu.Unlock()
		return
	}
	g.released = true
	if g.watchdog != nil {
		g.watchdog.Stop()
	}
	failed := g.failed
	g.mu.Unlock()
	if failed {
		// A release after a failure is teardown, not a clean handover: the
		// run goroutine can unwind during fail's notify grace, before fail's
		// cancel. Close synchronously, so abort senders parked in a downed
		// resumable lane unblock before the Run returns.
		g.closeOwned()
	} else {
		g.stopClose()
	}
	g.cancel(errSessionDone)
	if g.stopDeadline != nil {
		g.stopDeadline()
	}
}

// watchCaller links the caller's context into the session for the
// duration of a Run: caller cancellation becomes a classified abort. The
// returned stop function detaches it.
func (g *guard) watchCaller(ctx context.Context) func() bool {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.AfterFunc(ctx, func() {
		g.fail(fmt.Errorf("%w: %s: caller cancelled: %v", ErrAborted, g.name, context.Cause(ctx)))
	})
}

// abort is the error epilogue of a Run: ensure the failure went through
// fail (notifying peers exactly once) and return the error carrying its
// classification. If the guard was cancelled first — watchdog, caller
// cancel, session deadline — the cancellation cause is the story and the
// local error is usually just its echo through a closed conduit.
func (g *guard) abort(err error) error {
	g.mu.Lock()
	cause := g.cause
	g.mu.Unlock()
	if cause == nil {
		// No fail() yet — but the session deadline cancels the context
		// directly, so the context cause can still carry a classification.
		cause = context.Cause(g.ctx)
	}
	if cause != nil && !errors.Is(cause, errSessionDone) {
		g.fail(cause) // no-op unless the deadline fired without a fail()
		if errors.Is(err, ErrSessionTimeout) || errors.Is(err, ErrAborted) || errors.Is(err, ErrDisconnected) {
			return err
		}
		return fmt.Errorf("%w (local error: %v)", cause, err)
	}
	err = g.classify(err)
	g.fail(err)
	return err
}

// classify maps an unclassified local failure to its session class: a
// reconnect window that ran out is a timeout naming the degraded phase; a
// post-handshake transport close is a mid-session disconnect (the chain
// keeps wire.ErrClosed). Already-classified errors pass through.
func (g *guard) classify(err error) error {
	switch {
	case errors.Is(err, ErrSessionTimeout) || errors.Is(err, ErrAborted) || errors.Is(err, ErrDisconnected):
		return err
	case errors.Is(err, wire.ErrReconnectExpired):
		return fmt.Errorf("%w: %s: degraded past the reconnect window in phase %q: %w",
			ErrSessionTimeout, g.name, g.phaseName(), err)
	case errors.Is(err, wire.ErrClosed) && g.phaseName() != "handshake":
		return fmt.Errorf("%w: %s: %w", ErrDisconnected, g.name, err)
	}
	return err
}

// sendAbortAll broadcasts an abort frame to every endpoint, in parallel,
// waiting at most abortGrace for the flush. Sends that stay blocked past
// the grace are unblocked by the conduit teardown that follows fail's
// cancel; their goroutines then exit on the send error.
func sendAbortAll(from string, eps map[string]*wire.Endpoint, reason string) {
	var wg sync.WaitGroup
	for name, ep := range eps {
		if ep == nil {
			continue
		}
		wg.Add(1)
		go func(name string, ep *wire.Endpoint) {
			defer wg.Done()
			msg := wire.Message{From: from, To: name, Kind: kindAbort, Attr: -1}
			_ = ep.SendBody(msg, abortBody{Reason: reason}) // best-effort
		}(name, ep)
	}
	flushed := make(chan struct{})
	go func() {
		wg.Wait()
		close(flushed)
	}()
	select {
	case <-flushed:
	case <-time.After(abortGrace):
	}
}

// peerAbortError converts a received abort frame into its classified
// session error, the peer's reason clipped.
func peerAbortError(m *wire.Message) error {
	reason := "no reason given"
	var body abortBody
	if err := wire.DecodeBody(m.Payload, &body); err == nil && body.Reason != "" {
		reason = clipReason(body.Reason)
	}
	return &peerAbort{from: m.From, reason: reason}
}

// peerAbort is a peer's abort frame as a session error, classified under
// ErrAborted.
type peerAbort struct{ from, reason string }

func (e *peerAbort) Error() string {
	return fmt.Sprintf("%v: peer %s: %s", ErrAborted, e.from, e.reason)
}
func (e *peerAbort) Unwrap() error { return ErrAborted }

// expectMsg is Endpoint.Expect plus abort interception: an abort frame
// arriving where any protocol message is awaited terminates the wait with
// the peer's classified reason instead of a kind-mismatch error. Every
// direct endpoint read in the session goes through it, and so does the
// third party's lane reader (expectBody).
func expectMsg(ep *wire.Endpoint, kind wire.Kind, body any) (*wire.Message, error) {
	m, err := ep.Recv()
	if err != nil {
		return nil, err
	}
	if err := expectBody(m, kind, body); err != nil {
		return nil, err
	}
	return m, nil
}

// expectBody is expectMsg for a message already received.
func expectBody(m *wire.Message, kind wire.Kind, body any) error {
	if m.Kind == kindAbort {
		return peerAbortError(m)
	}
	if m.Kind != kind {
		return fmt.Errorf("party: expected message %q, got %q from %s", kind, m.Kind, m.From)
	}
	if body != nil {
		return wire.DecodeBody(m.Payload, body)
	}
	return nil
}
