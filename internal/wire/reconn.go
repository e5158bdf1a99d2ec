package wire

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrReconnectExpired classifies the terminal failure of a Reconn whose
// underlying conduit went down and was not rebound within the configured
// reconnect window. Session layers map it to their timeout class, naming
// the phase that was degraded when the window ran out.
var ErrReconnectExpired = errors.New("wire: reconnect window expired")

// Reconn layers mid-session survivability over a replaceable inner conduit.
//
// While the inner conduit is healthy, Reconn is transparent apart from
// frame counting: it tracks how many frames it has sent and received, and
// retains a copy of every sent frame that the peer has not yet confirmed
// installed. When the inner conduit fails with ErrClosed, Reconn does not
// surface the error — it parks senders and receivers and starts the
// reconnect window. A control plane that negotiates a replacement
// transport calls Rebind with the peer's receive watermark; Reconn prunes
// the confirmed prefix, replays the tail the peer never saw (in order,
// exactly once), and releases the parked operations onto the new conduit.
// The session layer above observes nothing: the same frames arrive in the
// same order as on a fault-free run.
//
// Failures that are not ErrClosed — an AES-GCM authentication failure from
// a Secure layer below, a session's cancellation cause — are
// treated as terminal immediately: they mean the channel is compromised or
// the session is over, not that the transport flapped.
//
// The retained-frame cache is unbounded between rebinds; it is pruned to
// the unconfirmed suffix at every Rebind. The fault-free cost is one copy
// per sent frame (the session-reconnect bench family measures it).
//
// Reconn owns no goroutines; its only background resource is the window
// timer armed while down. Close (or a terminal failure) releases
// everything, so leak-checked tests pass without special teardown.
type Reconn struct {
	window time.Duration

	mu   sync.Mutex
	cond *sync.Cond

	inner Conduit
	epoch uint32

	down      bool  // inner failed; ops park until Rebind or expiry
	hold      bool  // Rebind replay in progress; senders park, receivers run
	failed    error // terminal; every op returns it
	downCause error
	timer     *time.Timer

	sentSeq uint64 // frames accepted by Send
	recvSeq uint64 // frames returned by Recv
	owned   bool   // the inner conduit that delivered the last frame vouched for it
	acked   uint64 // peer-confirmed prefix of sentSeq
	flushed uint64 // highest seq known delivered to the current inner
	cache   [][]byte

	terminal  chan struct{}
	terminate sync.Once

	onDown   func(error)
	onUp     func()
	onExpire func(error)
}

// NewReconn wraps inner with reconnect-and-replay semantics and the given
// grace window. A window of zero (or less) disables parking: the first
// inner failure is terminal, matching a plain conduit.
func NewReconn(inner Conduit, window time.Duration) *Reconn {
	r := &Reconn{inner: inner, window: window, terminal: make(chan struct{})}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// SetHooks installs observer callbacks: onDown fires (on its own
// goroutine) when the inner conduit fails and the window opens, onUp when
// a Rebind swaps its conduit in, before it replays (a replay that fails
// takes the link down again), onExpire when the window runs out. Any hook
// may be nil. Call before the conduit carries traffic.
func (r *Reconn) SetHooks(onDown func(error), onUp func(), onExpire func(error)) {
	r.mu.Lock()
	r.onDown, r.onUp, r.onExpire = onDown, onUp, onExpire
	r.mu.Unlock()
}

// Epoch reports the current transport epoch: 0 for the original conduit,
// incremented by every successful Rebind. A resume hello proposes a higher
// epoch so both ends agree on which transport instance carries the replay.
func (r *Reconn) Epoch() uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// State reports the frame watermarks: frames sent (accepted by Send),
// frames received, and whether the conduit is currently down. Watermarks
// are exact once the caller has observed the op that moved them; a resume
// control plane reads them after its sender/receiver goroutines quiesced.
func (r *Reconn) State() (sent, recv uint64, down bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sentSeq, r.recvSeq, r.down || r.failed != nil
}

// Failed returns a channel closed when the Reconn reaches a terminal
// state (window expiry, non-flap error, or Close). Cause reports why.
func (r *Reconn) Failed() <-chan struct{} { return r.terminal }

// Cause reports the terminal error, or nil while the conduit is live or
// merely down.
func (r *Reconn) Cause() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// Send transmits frame, parking through down windows and replays. The
// frame is copied into the replay cache before the first transmission
// attempt, so callers may reuse the buffer as usual.
func (r *Reconn) Send(frame []byte) error {
	r.mu.Lock()
	for (r.down || r.hold) && r.failed == nil {
		r.cond.Wait()
	}
	if r.failed != nil {
		r.mu.Unlock()
		return r.failed
	}
	cp := append([]byte(nil), frame...)
	r.cache = append(r.cache, cp)
	r.sentSeq++
	seq := r.sentSeq
	for {
		inner, epoch := r.inner, r.epoch
		r.mu.Unlock()
		err := inner.Send(cp)
		r.mu.Lock()
		if err == nil {
			if seq > r.flushed {
				r.flushed = seq
			}
			r.mu.Unlock()
			return nil
		}
		if r.failed != nil {
			err := r.failed
			r.mu.Unlock()
			return err
		}
		if epoch == r.epoch && !r.down {
			r.noteDownLocked(err)
		}
		for (r.down || r.hold) && r.failed == nil {
			r.cond.Wait()
		}
		if r.failed != nil {
			err := r.failed
			r.mu.Unlock()
			return err
		}
		if seq <= r.flushed { // the rebind replay carried it
			r.mu.Unlock()
			return nil
		}
	}
}

// Recv returns the next frame, parking through down windows. Receivers do
// not wait out replays: the peer's replay must be drained concurrently or
// two ends replaying into bounded transport buffers would deadlock.
func (r *Reconn) Recv() ([]byte, error) {
	r.mu.Lock()
	for {
		if r.failed != nil {
			err := r.failed
			r.mu.Unlock()
			return nil, err
		}
		if r.down {
			r.cond.Wait()
			continue
		}
		inner, epoch := r.inner, r.epoch
		r.mu.Unlock()
		frame, err := inner.Recv()
		owned := err == nil && RecvOwned(inner) // asked before the lock is retaken
		r.mu.Lock()
		if err == nil {
			if epoch != r.epoch {
				// Read from a conduit a Rebind replaced meanwhile. The
				// peer was told a watermark that does not count this
				// frame and replays it on the replacement — or, on a link
				// rebound to a fresh peer, it is the old peer's last word.
				continue
			}
			r.recvSeq++
			r.owned = owned
			r.mu.Unlock()
			return frame, nil
		}
		if r.failed == nil && epoch == r.epoch && !r.down {
			r.noteDownLocked(err)
		}
	}
}

// RecvOwned forwards the vouch of the inner conduit the last frame came
// from: Reconn hands received frames through untouched, so a lane armed
// for reconnect costs its Endpoint no payload copy.
func (r *Reconn) RecvOwned() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.owned
}

// Close is terminal: parked and future operations fail with ErrClosed.
func (r *Reconn) Close() error {
	r.mu.Lock()
	if r.failed == nil {
		r.failLocked(ErrClosed)
	}
	inner := r.inner
	r.mu.Unlock()
	return inner.Close()
}

// noteDownLocked records an inner-conduit failure. Flap-class failures
// (ErrClosed with a positive window) open the reconnect window; everything
// else — channel authentication failures, cancellation causes — is
// terminal immediately.
func (r *Reconn) noteDownLocked(cause error) {
	if r.failed != nil || r.down {
		return
	}
	if r.window <= 0 || !errors.Is(cause, ErrClosed) {
		r.failLocked(cause)
		return
	}
	r.down = true
	r.downCause = cause
	r.timer = time.AfterFunc(r.window, r.expire)
	if hook := r.onDown; hook != nil {
		go hook(cause)
	}
	r.cond.Broadcast()
}

func (r *Reconn) expire() {
	r.mu.Lock()
	if r.failed != nil || !r.down {
		r.mu.Unlock()
		return
	}
	err := fmt.Errorf("%w after %v (conduit down: %v)", ErrReconnectExpired, r.window, r.downCause)
	r.failLocked(err)
	hook := r.onExpire
	r.mu.Unlock()
	if hook != nil {
		hook(err)
	}
}

func (r *Reconn) failLocked(err error) {
	r.failed = err
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
	r.terminate.Do(func() { close(r.terminal) })
	r.inner.Close()
	r.cond.Broadcast()
}

// Rebind swaps in a replacement conduit negotiated out of band. peerRecv
// is the peer's receive watermark for this lane — how many of our frames
// it had installed when the transport died; epoch is the agreed new
// transport epoch, strictly greater than the current one. Rebind prunes
// the confirmed prefix from the replay cache, replays the unconfirmed tail
// on the new conduit in order, then releases parked senders. Parked
// receivers are released as soon as the swap lands so they drain the
// peer's replay concurrently. On replay failure the Reconn returns to the
// down state (window permitting) and Rebind reports the error; a later
// Rebind may try again with a fresh conduit.
func (r *Reconn) Rebind(inner Conduit, peerRecv uint64, epoch uint32) error {
	r.mu.Lock()
	if r.failed != nil {
		err := r.failed
		r.mu.Unlock()
		return fmt.Errorf("wire: rebind on failed conduit: %w", err)
	}
	if !r.down {
		r.mu.Unlock()
		return errors.New("wire: rebind while conduit is up")
	}
	if r.hold {
		r.mu.Unlock()
		return errors.New("wire: rebind while a replay is in progress")
	}
	if epoch <= r.epoch {
		r.mu.Unlock()
		return fmt.Errorf("wire: rebind epoch %d not beyond current %d", epoch, r.epoch)
	}
	if peerRecv < r.acked || peerRecv > r.sentSeq {
		sent := r.sentSeq
		acked := r.acked
		r.mu.Unlock()
		return fmt.Errorf("wire: rebind watermark %d outside [%d, %d]", peerRecv, acked, sent)
	}
	r.cache = r.cache[peerRecv-r.acked:]
	r.acked = peerRecv
	replay := r.cache // frames (acked, sentSeq]; cache only appended to, safe to walk
	old := r.inner
	r.inner = inner
	r.epoch = epoch
	r.down = false
	r.downCause = nil
	r.hold = true
	if r.timer != nil {
		r.timer.Stop()
		r.timer = nil
	}
	r.cond.Broadcast() // receivers start draining the peer's replay now
	hook := r.onUp
	r.mu.Unlock()
	// The link is up from the swap on. The hook runs before the replay, so
	// nothing the replay brings about — the peer's answers to it — can be
	// seen before the link reports up.
	if hook != nil {
		hook()
	}
	old.Close()
	for i, frame := range replay {
		if err := inner.Send(frame); err != nil {
			r.mu.Lock()
			if r.flushed < r.acked+uint64(i) {
				r.flushed = r.acked + uint64(i)
			}
			r.hold = false
			if r.failed == nil && r.epoch == epoch && !r.down {
				r.noteDownLocked(err)
			}
			r.cond.Broadcast()
			r.mu.Unlock()
			return fmt.Errorf("wire: rebind replay frame %d/%d: %w", i+1, len(replay), err)
		}
	}
	r.mu.Lock()
	if r.flushed < r.acked+uint64(len(replay)) {
		r.flushed = r.acked + uint64(len(replay))
	}
	r.hold = false
	r.cond.Broadcast()
	r.mu.Unlock()
	return nil
}
