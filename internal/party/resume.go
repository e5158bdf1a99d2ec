package party

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ppclust/internal/keys"
	"ppclust/internal/wire"
)

// Mid-session reconnect and resume.
//
// When Config.ResumeWindow is positive, every holder↔TP lane — the
// control conduit and each shard conduit — is wrapped in a wire.Reconn
// directly above its AES-GCM channel. A transport sever then parks the
// lane instead of failing the session: both ends keep exact frame
// watermarks (protocol frames sent and installed), the holder redials
// through Config.Redial carrying its watermarks and an epoch proposal,
// the third party validates the hello against its own watermarks and
// grants the resume, and each side replays exactly the frames the other
// never installed — over a fresh AES-GCM channel keyed for the new epoch,
// so no nonce sequence is ever reused. The protocol layers above observe
// the same frames in the same order as on a fault-free run, which is why
// resumed sessions are bit-identical (pinned by the differential chaos
// tests).
//
// The typed refusals below are the resume control plane's vocabulary:
// which of them a redial surfaces decides whether the holder keeps
// retrying (duplicate, transient dial failure) or fails the session
// (stale watermarks, coordinator-side abort, unknown lane).
var (
	// ErrResumeStale refuses a resume hello whose watermarks or epoch are
	// inconsistent with the third party's state: a watermark that moved
	// backward, claims of frames never sent, or an epoch proposal not
	// beyond the current transport epoch. Fatal to the resume loop.
	ErrResumeStale = errors.New("party: resume hello is stale")
	// ErrResumeDuplicate refuses a resume hello for a lane whose original
	// conduit is still live, or while another resume for the lane is in
	// flight — a duplicate holder. Retryable: the genuine holder's next
	// attempt lands once the live conduit actually fails.
	ErrResumeDuplicate = errors.New("party: duplicate holder for resume lane")
	// ErrResumeAborted refuses a resume because the session is already
	// over on the coordinator side — aborted, failed, or cleanly
	// complete. Fatal to the resume loop.
	ErrResumeAborted = errors.New("party: session no longer resumable")
	// ErrResumeUnknown refuses a resume hello naming a lane the third
	// party never armed: unknown holder, lane index out of range, or a
	// session that was not configured for resume. Fatal.
	ErrResumeUnknown = errors.New("party: unknown resume lane")
)

// ResumeState is a holder's side of a resume negotiation: the transport
// epoch it proposes for the replacement conduit (strictly greater than
// any epoch the lane has used) and its frame watermarks — protocol frames
// it sent on the lane and frames it installed from the third party.
type ResumeState struct {
	Epoch uint32
	Sent  uint64
	Recv  uint64
}

// ResumeGrant is the third party's acceptance: its own watermarks for the
// lane. Sent tells the holder how many TP frames exist (the holder's
// receiver drains the replayed tail it is missing); Recv tells the holder
// which of its frames the TP installed, so the holder replays from
// exactly the first missing one.
type ResumeGrant struct {
	Sent uint64
	Recv uint64
}

// RedialFunc re-establishes one severed holder↔TP lane. It must dial a
// replacement transport, deliver state to the third party (in a
// deployment: a version-3 netid resume hello), and return the raw conduit
// together with the grant. The holder layers its own channel protection
// over the conduit. Errors wrapping ErrResumeStale, ErrResumeAborted or
// ErrResumeUnknown abort the session; anything else is retried with
// capped backoff until the reconnect window expires.
type RedialFunc func(ctx context.Context, holder string, lane int, state ResumeState) (wire.Conduit, ResumeGrant, error)

// Resume lane indices: 0 is the control conduit, s+1 is shard s — the
// same convention the netid resume hello carries on the wire.
func laneConduitName(lane int) string {
	if lane == 0 {
		return TPName
	}
	return ShardName(lane - 1)
}

// resumeChannelKey derives the AES-GCM key for one (lane, epoch): epoch 0
// is the handshake-time channel key, every later epoch salts the purpose
// so a rebound transport never reuses a nonce sequence.
func resumeChannelKey(master []byte, holder, lane string, epoch uint32) [32]byte {
	purpose := keys.PurposeChannel
	if epoch > 0 {
		purpose = fmt.Sprintf("%s/resume/%d", keys.PurposeChannel, epoch)
	}
	return keys.DeriveKey(master, purpose, holder, lane)
}

// Resume backoff: a redial loop starts fast (a flap is usually over by
// the time it is observed) and backs off to a bounded cadence so a long
// outage does not hammer the peer's acceptor.
const (
	resumeBackoffMin = 25 * time.Millisecond
	resumeBackoffMax = time.Second
)

// redialFunc re-establishes one severed link for a proposed epoch, given
// the frame watermarks the parked Reconn settled on. It returns the
// secured replacement and the peer's installed-frame watermark, from which
// the Reconn replays. Errors wrapping ErrResumeStale, ErrResumeAborted or
// ErrResumeUnknown are fatal; any other error is retried.
type redialFunc func(epoch uint32, sent, recv uint64) (secured wire.Conduit, peerRecv uint64, err error)

// Events observes a session from one party's side: the third party's
// census, and every resumable link of the party going down and coming up.
// The census is reported after it is gathered and before it is broadcast —
// the one point where the true session size is first known — and an error
// refuses the session: the third party aborts with it (classified, peers
// notified) before any partition-sized payload moves. The multi-tenant
// server enforces its per-session budget there. Link events run on
// lifecycle goroutines, must not block, and their error is ignored.
type Events func(Event) error

// EventKind says what an Event reports.
type EventKind uint8

const (
	// EventCensus carries the gathered per-holder object counts.
	EventCensus EventKind = iota
	// EventLinkDown reports a resumable link severed, its reconnect window
	// open.
	EventLinkDown
	// EventLinkUp reports a resumable link rebound, or a worker link
	// connected for the first time.
	EventLinkUp
)

// Event is one observation of a session.
type Event struct {
	Kind   EventKind
	Counts []int  // EventCensus: the per-holder counts, a copy
	Link   Link   // EventLinkDown, EventLinkUp: the link
	Cause  error  // EventLinkDown: why the link severed
	Epoch  uint32 // EventLinkUp: 0 on a worker link's first connect, ≥ 1 on a rebind
}

// Link names a resumable link from the reporting party's side: a
// holder↔TP lane by the party across it and its resume lane (0 = control,
// s+1 = shard s), or, with Worker set, the coordinator's link to the
// worker of shard Lane.
type Link struct {
	Peer   string
	Lane   int
	Worker bool
}

func (l Link) String() string {
	if l.Worker {
		return fmt.Sprintf("link to shard worker %d", l.Lane)
	}
	return fmt.Sprintf("lane %d to %s", l.Lane, l.Peer)
}

// arm makes a secured link resumable — a holder's TP lanes, the third
// party's holder lanes and the coordinator's worker links all go through
// here. It wraps the link in a wire.Reconn for the session's reconnect
// window, installs the hooks every resumable link shares, and owns it. A
// sever marks the session degraded (suspending the phase watchdog) and
// reports the link down; a rebind restores it and reports it up with its
// epoch; window expiry fails the session with a timeout naming the link.
// With a non-nil redial the sever also runs redialLoop, one per link at a
// time: a replay failure inside Rebind re-enters the down state and
// reports the link down again while the first loop is still retrying. A
// passive end (the third party's holder lanes) passes nil and waits for
// Resume.
func (g *guard) arm(secured wire.Conduit, link Link, redial redialFunc) *wire.Reconn {
	rc := wire.NewReconn(secured, g.window)
	var looping atomic.Bool
	rc.SetHooks(
		func(cause error) {
			if err := g.failure(); err != nil && err != errSessionDone {
				rc.Close() // a failed session resumes nothing (see fail)
				return
			}
			g.noteDegraded()
			g.events(Event{Kind: EventLinkDown, Link: link, Cause: cause})
			if redial != nil && looping.CompareAndSwap(false, true) {
				g.redialLoop(rc, link, redial)
				looping.Store(false)
			}
		},
		func() {
			g.noteRestored()
			g.events(Event{Kind: EventLinkUp, Link: link, Epoch: rc.Epoch()})
		},
		func(err error) {
			g.noteRestored()
			g.fail(fmt.Errorf("%w: %s: %s degraded past the reconnect window in phase %q: %w",
				ErrSessionTimeout, g.name, link, g.phaseName(), err))
		},
	)
	g.own(rc)
	return rc
}

// redialLoop drives one parked link back up: read the watermarks the link
// settled on, propose an epoch beyond both its own and any a
// half-completed earlier attempt may have installed on the peer, redial
// and rebind. It retries with capped backoff until the link rebinds, turns
// terminal (window expiry, which onExpire classifies, or close) or the
// session ends; a typed refusal fails the session as a disconnect.
func (g *guard) redialLoop(rc *wire.Reconn, link Link, redial redialFunc) {
	backoff := resumeBackoffMin
	for attempt := uint32(0); ; attempt++ {
		select {
		case <-rc.Failed():
			return
		case <-g.ctx.Done():
			return
		default:
		}
		sent, recv, down := rc.State()
		if !down {
			return
		}
		epoch := rc.Epoch() + 1 + attempt
		secured, peerRecv, err := redial(epoch, sent, recv)
		if err == nil {
			if err = rc.Rebind(secured, peerRecv, epoch); err == nil {
				return
			}
			secured.Close()
		} else if errors.Is(err, ErrResumeStale) || errors.Is(err, ErrResumeAborted) || errors.Is(err, ErrResumeUnknown) {
			g.fail(fmt.Errorf("%w: %s: redial of %s refused: %w", ErrDisconnected, g.name, link, err))
			return
		}
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-rc.Failed():
		case <-g.ctx.Done():
		}
		t.Stop()
		backoff = min(2*backoff, resumeBackoffMax)
	}
}

// armResume arms one secured TP lane and returns it for the endpoint to
// read: a sever parks the lane and redials through Config.Redial, carrying
// the lane's watermarks, and secures the replacement under the epoch key.
func (h *Holder) armResume(secured wire.Conduit, peer string, lane int) wire.Conduit {
	return h.guard.arm(secured, Link{Peer: peer, Lane: lane}, func(epoch uint32, sent, recv uint64) (wire.Conduit, uint64, error) {
		raw, grant, err := h.cfg.Redial(h.guard.ctx, h.name, lane, ResumeState{Epoch: epoch, Sent: sent, Recv: recv})
		if err != nil {
			return nil, 0, err
		}
		secured, err := h.resumeSecure(raw, peer, epoch)
		if err != nil {
			raw.Close()
			return nil, 0, err
		}
		return secured, grant.Recv, nil
	})
}

// resumeSecure layers the holder's lifecycle binding and epoch-keyed
// channel protection over a raw replacement transport — the same stack
// the handshake built, minus the hello (identity was established once;
// resume authenticates by knowing the epoch key).
func (h *Holder) resumeSecure(raw wire.Conduit, peer string, epoch uint32) (wire.Conduit, error) {
	bound := h.guard.bind(raw)
	if h.cfg.PlaintextChannels {
		return bound, nil
	}
	key := resumeChannelKey(h.masters[TPName], h.name, peer, epoch)
	return wire.Secure(bound, key, true)
}

// laneKey identifies one resumable lane on the third party.
type laneKey struct {
	holder string
	lane   int
}

// resumeLane is the third party's record of one armed lane.
type resumeLane struct {
	holder string
	lane   int
	rc     *wire.Reconn

	mu       sync.Mutex
	resuming bool // a granted resume is completing; refuses duplicates
}

// armResume arms one secured holder lane, records it in the resume
// registry, and returns it for the endpoint to read. The third party side
// is passive: it parks on a sever and waits for Resume to deliver a
// replacement.
func (tp *ThirdParty) armResume(secured wire.Conduit, holder string, lane int) wire.Conduit {
	rc := tp.guard.arm(secured, Link{Peer: holder, Lane: lane}, nil)
	if tp.resumeLanes == nil {
		tp.resumeLanes = make(map[laneKey]*resumeLane)
	}
	tp.resumeLanes[laneKey{holder, lane}] = &resumeLane{holder: holder, lane: lane, rc: rc}
	return rc
}

// Resumable reports whether this third party arms reconnect windows on
// its holder lanes — whether Resume can ever succeed.
func (tp *ThirdParty) Resumable() bool { return tp.cfg.ResumeWindow > 0 }

// Resume validates a holder's resume hello against the lane's state and,
// on success, claims the lane and returns a ticket. The caller (the
// server's acceptor, or the in-memory driver) sends the ticket's Grant to
// the holder, then calls Complete with the replacement transport — on its
// own goroutine, because Complete replays frames and the holder drains
// them concurrently with its own replay.
//
// Refusals are typed: ErrResumeUnknown (no such lane), ErrResumeAborted
// (session over), ErrResumeDuplicate (lane still live, or another resume
// in flight), ErrResumeStale (epoch or watermarks inconsistent).
func (tp *ThirdParty) Resume(holder string, lane int, epoch uint32, sent, recv uint64) (*ResumeTicket, error) {
	l := tp.resumeLanes[laneKey{holder, lane}]
	if l == nil {
		return nil, fmt.Errorf("%w: holder %q lane %d", ErrResumeUnknown, holder, lane)
	}
	if cause := tp.guard.failure(); cause != nil {
		return nil, fmt.Errorf("%w: %v", ErrResumeAborted, cause)
	}
	if cause := l.rc.Cause(); cause != nil {
		return nil, fmt.Errorf("%w: lane terminal: %v", ErrResumeAborted, cause)
	}
	tpSent, tpRecv, down := l.rc.State()
	if !down {
		return nil, fmt.Errorf("%w: holder %q lane %d is still connected", ErrResumeDuplicate, holder, lane)
	}
	if epoch <= l.rc.Epoch() {
		return nil, fmt.Errorf("%w: epoch %d not beyond current %d", ErrResumeStale, epoch, l.rc.Epoch())
	}
	if recv > tpSent {
		return nil, fmt.Errorf("%w: hello claims %d frames installed, only %d were sent", ErrResumeStale, recv, tpSent)
	}
	if sent < tpRecv {
		return nil, fmt.Errorf("%w: hello watermark moved backward (claims %d frames sent, %d already installed)",
			ErrResumeStale, sent, tpRecv)
	}
	l.mu.Lock()
	if l.resuming {
		l.mu.Unlock()
		return nil, fmt.Errorf("%w: another resume for holder %q lane %d is in flight", ErrResumeDuplicate, holder, lane)
	}
	l.resuming = true
	l.mu.Unlock()
	return &ResumeTicket{tp: tp, lane: l, epoch: epoch, holderRecv: recv, tpSent: tpSent, tpRecv: tpRecv}, nil
}

// ResumeTicket is a granted resume waiting for its replacement transport.
type ResumeTicket struct {
	tp         *ThirdParty
	lane       *resumeLane
	epoch      uint32
	holderRecv uint64
	tpSent     uint64
	tpRecv     uint64
}

// Grant is the acceptance the holder needs: the third party's watermarks.
func (t *ResumeTicket) Grant() ResumeGrant { return ResumeGrant{Sent: t.tpSent, Recv: t.tpRecv} }

// Abandon releases a granted ticket without a transport — the grant never
// reached the holder. The lane stays down, the window keeps running, and
// a later Resume (same holder, higher epoch) can claim it again.
func (t *ResumeTicket) Abandon() {
	t.lane.mu.Lock()
	t.lane.resuming = false
	t.lane.mu.Unlock()
}

// Complete installs the replacement transport: lifecycle binding and the
// epoch-keyed channel go over the raw conduit, then the lane rebinds and
// replays the frames the holder never installed. Call on its own
// goroutine — the replay only drains once the holder's side is rebound
// too. On error the lane returns to the down state (window permitting)
// and a later Resume may try again.
func (t *ResumeTicket) Complete(raw wire.Conduit) error {
	defer func() {
		t.lane.mu.Lock()
		t.lane.resuming = false
		t.lane.mu.Unlock()
	}()
	bound := t.tp.guard.bind(raw)
	secured := bound
	if !t.tp.cfg.PlaintextChannels {
		key := resumeChannelKey(t.tp.masters[t.lane.holder], t.lane.holder, laneConduitName(t.lane.lane), t.epoch)
		var err error
		secured, err = wire.Secure(bound, key, false)
		if err != nil {
			raw.Close()
			return err
		}
	}
	if err := t.lane.rc.Rebind(secured, t.holderRecv, t.epoch); err != nil {
		secured.Close()
		return err
	}
	return nil
}
