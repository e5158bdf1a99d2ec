package party

// Cross-process TP shards: the coordinator side.
//
// With Config.ShardDial set and TPShards > 1, a range's slices come from a
// ppc-shard worker process (shardserver.go) instead of lane readers in this
// process, and this file is the coordinator's half of the
// coordinator↔shard control protocol — remoteShard, the shardSource the
// session body plugs in:
//
//	coordinator                                 worker
//	    │  netid v4 shard-registration hello       │
//	    │──────────────────────────────────────────▶
//	    ◀──────────────────────────────────────────│  grant (0, 0)
//	    │  hello (X25519) ⇄ hello, then AES-GCM    │
//	    │──────────────────────────────────────────▶
//	    │  ppc/shard-offer (range+census+seeds)    │
//	    │──────────────────────────────────────────▶
//	    │  ppc/shard-frame (relayed holder bytes)  │
//	    │──────────────────────────────────────────▶   ◀─ ppc/shard-heartbeat
//	    ◀──────────────────────────────────────────│  ppc/shard-slice × attrs
//	    │  ppc/shard-done                          │
//	    │──────────────────────────────────────────▶
//
// The coordinator keeps the secured holder→shard conduits from the
// handshake and relays every frame, byte for byte, to the owning worker
// (one pump per (shard, holder) lane with the shared laneFrames stream
// length). The worker feeds the bytes to identical lane readers, which read
// the exact stream an in-process shard would — bit-identity across
// deployments is code identity, not re-derivation.
//
// Failure and healing: worker links are plain conduits when ResumeWindow
// is 0 (a severed worker fails the session, classified under
// ErrDisconnected) and Reconn-wrapped otherwise. A worker is always a
// fresh process for a given registration — it grants watermarks (0, 0)
// and the coordinator rebinds with peerRecv 0, so the Reconn's replay
// cursor never advances and a rebind replays the offer and every relayed
// frame from the beginning. The replacement worker recomputes the slice
// from scratch; the coordinator drops duplicate slices (first install
// wins — the generations are bit-identical). This trades replay-cache
// memory (the coordinator retains the shard's full relayed stream for
// the session's lifetime when ResumeWindow > 0) for healing that covers
// both process crashes and link flaps with one mechanism. Aborts
// propagate in both directions as kindAbort, exactly as on holder lanes.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ppclust/internal/wire"
)

// ShardDialFunc establishes the coordinator's transport to shard worker s.
// It performs the shard registration (netid.AnnounceShardRegistrationWithin
// with the given resume state; epoch 0 on first contact) and returns the raw
// conduit plus the worker's watermark grant, which is always (0, 0) — a
// worker is always fresh. Errors wrapping ErrResumeStale, ErrResumeAborted
// or ErrResumeUnknown (for example a mapped netid rejection) are fatal to
// the session; any other error is retried with capped backoff until the
// reconnect window expires.
type ShardDialFunc func(ctx context.Context, shard int, state ResumeState) (wire.Conduit, ResumeGrant, error)

// shardDoneGrace bounds the courtesy ppc/shard-done send at session end: a
// worker that died after delivering its slices would park the send in the
// Reconn, and the session must not wait on a corpse to publish results.
const shardDoneGrace = 250 * time.Millisecond

// shardLink is the coordinator's control link to one worker process.
type shardLink struct {
	s  int
	ep *wire.Endpoint
	rc *wire.Reconn // nil when ResumeWindow is 0

	// mu serializes senders — the offer, the per-holder relay pumps and
	// the done frame share one conduit, and Endpoint.Send is not
	// concurrency-safe.
	mu sync.Mutex
}

func (l *shardLink) send(m wire.Message, body any) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ep.SendBody(m, body)
}

// close severs the link. Closing the Reconn (not just the endpoint) is
// terminal: parked senders and receivers unpark with ErrClosed and the
// redial loop, if running, exits.
func (l *shardLink) close() {
	if l.rc != nil {
		l.rc.Close()
		return
	}
	l.ep.Close()
}

// shutdown ends a worker's run cleanly: a best-effort done frame bounded
// by shardDoneGrace, then the link closes.
func (l *shardLink) shutdown() {
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = l.send(wire.Message{From: TPName, To: ShardName(l.s), Kind: kindShardDone, Attr: -1}, shardDoneBody{})
	}()
	select {
	case <-done:
	case <-time.After(shardDoneGrace):
	}
	l.close()
}

// shardSecure runs the coordinator side of the worker-link handshake over
// a fresh raw transport: lifecycle binding, then the key agreement. The
// worker generates a fresh identity per connection, so every (re)dial
// derives a fresh key and nonce sequence. Worker links are always
// encrypted — Config.PlaintextChannels governs only the holder conduits,
// whose protection the parties agree on before any payload moves; a worker
// link's configuration rides the link itself, so it never starts plain.
func (tp *ThirdParty) shardSecure(s int, raw wire.Conduit) (wire.Conduit, error) {
	secured, _, err := handshake(tp.guard.bind(raw), TPName, ShardName(s), tp.identity,
		schemaFingerprint(tp.cfg.Schema), true)
	return secured, err
}

// shardConnect dials worker s for a transport epoch (0 on first contact)
// and runs the link handshake over the fresh transport. A worker is always
// fresh, so any grant but (0, 0) — a process with retained watermarks,
// which a full replay cannot reconcile — is refused as stale.
func (tp *ThirdParty) shardConnect(s int, epoch uint32) (wire.Conduit, error) {
	raw, grant, err := tp.cfg.ShardDial(tp.guard.ctx, s, ResumeState{Epoch: epoch})
	if err != nil {
		return nil, err
	}
	if grant != (ResumeGrant{}) {
		raw.Close()
		return nil, fmt.Errorf("%w: shard worker %d granted watermarks (%d, %d), want (0, 0)",
			ErrResumeStale, s, grant.Sent, grant.Recv)
	}
	secured, err := tp.shardSecure(s, raw)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return secured, nil
}

// dialShard establishes the control link to worker s and, when the session
// is resumable, arms it like a holder lane. A severed link redials through
// shardConnect (the pool restarts dead workers; a surviving worker
// discards its old run on re-registration) and rebinds with peerRecv 0, so
// the full cached stream replays into the fresh worker.
func (tp *ThirdParty) dialShard(s int) (*shardLink, error) {
	secured, err := tp.shardConnect(s, 0)
	if err != nil {
		return nil, fmt.Errorf("party: dialing shard worker %d: %w", s, err)
	}
	link := &shardLink{s: s}
	if tp.cfg.ResumeWindow > 0 {
		rc := wire.NewReconn(secured, tp.cfg.ResumeWindow)
		link.rc = rc
		tp.guard.keepUp(rc, fmt.Sprintf("link to shard worker %d", s),
			func(cause error) {
				if hook := tp.cfg.OnShardProcDown; hook != nil {
					hook(s, cause)
				}
			},
			func() {
				if hook := tp.cfg.OnShardProcUp; hook != nil {
					hook(s, rc.Epoch())
				}
			},
			func(epoch uint32, _, _ uint64) (wire.Conduit, uint64, error) {
				secured, err := tp.shardConnect(s, epoch)
				return secured, 0, err
			})
		// Owned like a holder's resumable lane (armResume): operations
		// parked in a down Reconn see neither the inner conduit's close nor
		// the guard's end, so without this a session that fails while the
		// link is down sits out the rest of the window.
		tp.guard.own(rc)
		link.ep = wire.NewEndpoint(rc)
	} else {
		link.ep = wire.NewEndpoint(secured)
	}
	if hook := tp.cfg.OnShardProcUp; hook != nil {
		hook(s, 0)
	}
	return link, nil
}

// remoteShard is the worker-process source of shard s: it dials the worker
// and hands it the slice offer; the source then relays the holders'
// shard-lane frames and collects the slices the worker returns.
func (tp *ThirdParty) remoteShard(core *shardCore, s int, r [2]int) (shardSource, error) {
	link, err := tp.dialShard(s)
	if err != nil {
		return nil, err
	}
	offer := shardOfferBody{
		Shard: s, Lo: r[0], Hi: r[1],
		Holders:     tp.holders,
		Counts:      tp.counts,
		Fingerprint: schemaFingerprint(tp.cfg.Schema),
		Mode:        tp.cfg.Mode, Variant: tp.cfg.Variant, RNG: tp.cfg.RNG,
		LocalChunkBytes: tp.cfg.LocalChunkBytes,
		Parallelism:     tp.cfg.Parallelism,
		Seeds:           core.seeds,
		RowSeeds:        core.rowSeeds,
	}
	if err := link.send(wire.Message{From: TPName, To: ShardName(s), Kind: kindShardOffer, Attr: -1}, offer); err != nil {
		link.close()
		return nil, fmt.Errorf("party: offering slice to shard worker %d: %w", s, err)
	}
	return func(ctx context.Context, out []attrSlice) error {
		// The end of ctx unparks the slice collector and relay sends.
		defer context.AfterFunc(ctx, link.close)()
		// Relay pumps: one per holder lane with frames, copying exactly the
		// lane's scheduled frame count and then reporting, nil or the first
		// error. A pump that fails reports and then closes the link, so the
		// collector unparks and the pump's error is the source's — at once,
		// even after the slices are in. A pump parked in a holder Recv when
		// some other component fails unwinds at guard teardown, like a lane
		// reader, so it is waited for on the clean path only.
		pumps := 0
		pumped := make(chan error, len(tp.holders))
		for hi, h := range tp.holders {
			frames := core.laneFrames(hi, r)
			if frames == 0 {
				continue
			}
			pumps++
			go func(src wire.Conduit) {
				for range frames {
					frame, err := src.Recv()
					if err == nil {
						m := wire.Message{From: TPName, To: ShardName(s), Kind: kindShardFrame, Attr: hi}
						err = link.send(m, shardFrameBody{Frame: frame})
					}
					if err != nil {
						pumped <- fmt.Errorf("party: relaying %s frames to shard worker %d: %w", h, s, err)
						link.close()
						return
					}
				}
				pumped <- nil
			}(tp.shardLanes[s][h])
		}
		if err := tp.collectShardSlices(s, link, out); err != nil {
			for {
				select {
				case perr := <-pumped:
					if perr != nil {
						return perr
					}
				default:
					return err
				}
			}
		}
		for range pumps {
			if err := <-pumped; err != nil {
				return err
			}
		}
		// Clean hand-off: end the worker's run and drop the link before
		// publishing — a worker is not a session peer and holds no results.
		link.shutdown()
		return nil
	}, nil
}

// collectShardSlices drains worker s's control stream until every
// comparison attribute's slice has landed in out. Duplicate slices — a
// restarted worker recomputes and resends everything after the replay —
// are dropped on arrival: the generations are bit-identical, so the first
// install wins and the merge below never sees a double.
func (tp *ThirdParty) collectShardSlices(s int, link *shardLink, out []attrSlice) error {
	attrs := tp.cfg.Schema.Attrs
	need := 0
	for _, a := range attrs {
		if !tagBased(a.Type) {
			need++
		}
	}
	got := make([]bool, len(attrs))
	for need > 0 {
		m, err := link.ep.Recv()
		if err != nil {
			return fmt.Errorf("party: shard worker %d: %w", s, err)
		}
		switch m.Kind {
		case kindShardBeat:
			// Liveness only; the bound transport already fed the watchdog.
		case kindAbort:
			return peerAbortError(m)
		case kindShardSlice:
			var body shardSliceBody
			if err := wire.DecodeBody(m.Payload, &body); err != nil {
				return fmt.Errorf("party: slice from shard worker %d: %w", s, err)
			}
			if body.Attr < 0 || body.Attr >= len(attrs) || tagBased(attrs[body.Attr].Type) {
				return fmt.Errorf("party: shard worker %d sent a slice for attribute %d", s, body.Attr)
			}
			if got[body.Attr] {
				continue
			}
			got[body.Attr] = true
			out[body.Attr] = attrSlice{cells: body.Cells, max: body.Max}
			need--
		default:
			return fmt.Errorf("party: unexpected %q from shard worker %d", m.Kind, s)
		}
	}
	return nil
}
