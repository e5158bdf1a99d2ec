package party

// Cross-process TP shards: the worker side. A ppc-shard process runs one
// ShardServer; each coordinator registration (netid v4 hello) starts one
// shardRun, which receives the offer, rebuilds the shard pipeline
// (shardCore) from it and feeds the relayed pair chunks to its pair-share
// readers, bounded by the shared pair frame counts (pairFrames). Each
// chunk is evaluated as it arrives and its rows go straight back as one
// ppc/shard-rows frame, staged into the frame a row at a time: the worker
// holds no slice, and never sees a holder's local-matrix chunks, which the
// coordinator installs itself. Each run is a party under its own guard
// (lifecycle.go), armed with the offer's PhaseTimeout: its first failure
// sends the coordinator one abort and closes the link, which ends the
// receive loop and the lane readers. The worker holds no durable state: a
// registration always answers with watermarks (0, 0), and a
// re-registration for the same (session, shard) supersedes the previous
// run — the coordinator replays the stream from the beginning and the
// worker re-evaluates, which is what makes a crashed worker process and a
// flapped link heal through the same path.

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/keys"
	"ppclust/internal/netid"
	"ppclust/internal/parallel"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// shardHandshakeTimeout bounds a connection's registration, key agreement
// and offer; the offer's PhaseTimeout bounds the run from then on.
const shardHandshakeTimeout = 10 * time.Second

// ShardServerConfig configures one shard worker.
type ShardServerConfig struct {
	// Schema is the worker's copy of the session agreement's attribute
	// list. An offer whose schema fingerprint disagrees is refused — the
	// worker evaluates protocol payloads and must share the agreement.
	Schema dataset.Schema
	// OnFrame, when set, observes every relayed holder frame — a pair
	// chunk — after it is fed to the pipeline: session, shard index and the
	// running frame total of the current run. The multi-process test
	// harness uses it to crash the worker at exact protocol points.
	OnFrame func(session string, shard, total int)
	// Logf receives worker lifecycle events; nil discards them.
	Logf func(format string, args ...any)
}

// shardRunKey identifies one coordinator's shard assignment: concurrent
// sessions (and a coordinator running several shards against one worker
// process) each get their own run.
type shardRunKey struct {
	session string
	shard   int
}

// ShardServer accepts shard registrations and runs one shard pipeline per
// registration. One process typically serves one shard per session, but
// nothing in the protocol requires that — runs are independent.
type ShardServer struct {
	cfg ShardServerConfig
	fp  string

	mu     sync.Mutex
	ln     net.Listener
	runs   map[shardRunKey]*shardRun
	closed bool
	wg     sync.WaitGroup
}

// NewShardServer validates the schema and prepares a worker.
func NewShardServer(cfg ShardServerConfig) (*ShardServer, error) {
	schema, err := cfg.Schema.Normalized()
	if err != nil {
		return nil, fmt.Errorf("party: shard server schema: %w", err)
	}
	cfg.Schema = schema
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &ShardServer{
		cfg:  cfg,
		fp:   schemaFingerprint(cfg.Schema),
		runs: make(map[shardRunKey]*shardRun),
	}, nil
}

// Serve accepts coordinator registrations on ln until Close. Each
// connection is handled on its own goroutine; Serve returns nil after
// Close, or the first non-temporary accept error.
func (s *ShardServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("party: shard server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.wg.Add(1)
		go func(conn net.Conn) {
			defer s.wg.Done()
			s.handle(conn)
		}(conn)
	}
}

// Close stops accepting, severs every active run — the coordinator sees
// the sever and redials elsewhere or fails classified — and waits for the
// handlers to drain. This is the worker half of the server's drain
// fan-out.
func (s *ShardServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	ln := s.ln
	runs := make([]*shardRun, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, r := range runs {
		r.guard.fail(errors.New("party: shard worker draining"))
	}
	s.wg.Wait()
}

// handle runs one registration: v4 hello, unconditional (0, 0) grant, key
// agreement, then the run under its own guard until the coordinator
// finishes, the run fails, or the link dies.
func (s *ShardServer) handle(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(shardHandshakeTimeout))
	hello, err := netid.ParseHello(conn)
	if err != nil {
		return
	}
	if !hello.ShardRegistration() || hello.Lane == 0 {
		s.cfg.Logf("event=shard-reject reason=version remote=%s", conn.RemoteAddr())
		netid.SendReject(conn, netid.RejectVersion, "shard worker accepts the v4 shard-registration hello only")
		return
	}
	shard := int(hello.Lane) - 1
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		netid.SendReject(conn, netid.RejectDraining, "shard worker draining")
		return
	}
	// The grant is unconditionally (0, 0): a worker is always fresh for a
	// registration. Whatever a previous generation or a severed link
	// accumulated is unusable after the coordinator's full replay, so
	// there are no watermarks to reconcile.
	if err := netid.SendAcceptResume(conn, 0, 0); err != nil {
		return
	}
	// The run is a party of its own: its guard binds the raw transport, so
	// a failure closes the link under the channel protection and the
	// receive loop ends.
	run := &shardRun{
		srv:   s,
		key:   shardRunKey{session: hello.Session, shard: shard},
		epoch: hello.Epoch,
		guard: newGuard(ShardName(shard), Config{}),
	}
	defer run.guard.release()
	secured, err := s.secure(run.guard.bind(wire.TCPPooled(conn)), shard)
	if err != nil {
		s.cfg.Logf("event=shard-handshake-failed shard=%d err=%v", shard, err)
		return
	}
	run.ep = wire.NewEndpoint(&serialSends{Conduit: secured})
	run.guard.setNotify(func(reason string) {
		sendAbortAll(ShardName(shard), map[string]*wire.Endpoint{TPName: run.ep}, reason)
	})
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if old := s.runs[run.key]; old != nil {
		if old.epoch > run.epoch {
			// Registrations are handled concurrently, so the one for the
			// link the coordinator has already replaced can finish its
			// handshake last. It must not displace its successor.
			s.mu.Unlock()
			s.cfg.Logf("event=shard-register-stale session=%q shard=%d epoch=%d current=%d",
				hello.Session, shard, hello.Epoch, old.epoch)
			return
		}
		// Re-registration after a crash of the coordinator's link (or a
		// coordinator that never learned its old link died): the stream
		// restarts from the beginning, so the old run must not keep
		// half-assembled state alive. It ends silently — the coordinator
		// has replaced that link and an abort frame has no reader there,
		// or worse, a reader that takes it for the session's.
		s.cfg.Logf("event=shard-superseded session=%q shard=%d epoch=%d by=%d",
			hello.Session, shard, old.epoch, hello.Epoch)
		old.guard.setNotify(nil)
		old.guard.fail(errors.New("party: shard run superseded"))
	}
	s.runs[run.key] = run
	s.mu.Unlock()
	s.cfg.Logf("event=shard-register session=%q shard=%d epoch=%d remote=%s",
		hello.Session, shard, hello.Epoch, conn.RemoteAddr())
	err = run.run(conn)
	s.mu.Lock()
	if s.runs[run.key] == run {
		delete(s.runs, run.key)
	}
	s.mu.Unlock()
	if err != nil {
		s.cfg.Logf("event=shard-run-failed session=%q shard=%d err=%v", hello.Session, shard, err)
	} else {
		s.cfg.Logf("event=shard-run-done session=%q shard=%d", hello.Session, shard)
	}
}

// secure is the worker side of the link handshake over raw: a fresh X25519
// identity per connection (the link is transport protection only — no
// session key material derives from it), then the key agreement. Like the
// coordinator's side, it never runs plain.
func (s *ShardServer) secure(raw wire.Conduit, shard int) (wire.Conduit, error) {
	name := ShardName(shard)
	identity, err := keys.NewIdentity(name, rand.Reader)
	if err != nil {
		return nil, err
	}
	secured, _, err := handshake(raw, name, TPName, identity, s.fp, false)
	return secured, err
}

// shardRun is one registration's lifetime on the worker.
type shardRun struct {
	srv   *ShardServer
	key   shardRunKey
	epoch uint32
	// guard is the run's lifecycle, as a holder's or the third party's is
	// theirs: the first failure sends the coordinator one abort, closes the
	// link and the feed pipes, and stops the lane readers.
	guard *guard
	// ep sends over serialSends: the lane readers build their rows frames
	// concurrently, each evaluating its chunk into a frame of its own, and
	// take turns only to seal and write it.
	ep *wire.Endpoint
}

// serialSends is a conduit whose Sends take turns; Recv is the inner
// conduit's own, and so is whether it hands over what it received.
type serialSends struct {
	wire.Conduit
	mu sync.Mutex
}

func (c *serialSends) Send(frame []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Conduit.Send(frame)
}

func (c *serialSends) RecvOwned() bool { return wire.RecvOwned(c.Conduit) }

// offerCore validates an offer against this worker's schema and
// registration and rebuilds the shard pipeline it asks for, its compute
// sized by the worker's own cores. An offer whose census cannot fit — its
// total, or its triangle's bytes, overflow an int — is refused before
// anything is built for it.
func (s *ShardServer) offerCore(shard int, offer shardOfferBody) (*shardCore, error) {
	if offer.Fingerprint != s.fp {
		return nil, errors.New("party: offer schema fingerprint disagrees with this worker's schema")
	}
	if offer.Shard != shard {
		return nil, fmt.Errorf("party: offer names shard %d, registration said %d", offer.Shard, shard)
	}
	if err := validHolderNames(offer.Holders); err != nil {
		return nil, err
	}
	if len(offer.Counts) != len(offer.Holders) {
		return nil, fmt.Errorf("party: offer carries %d counts for %d holders", len(offer.Counts), len(offer.Holders))
	}
	cfg, num, err := Config{
		Schema:          s.cfg.Schema,
		Mode:            offer.Mode,
		Variant:         offer.Variant,
		RNG:             offer.RNG,
		LocalChunkBytes: offer.LocalChunkBytes,
	}.normalized()
	if err != nil {
		return nil, err
	}
	nAttr, pairs := len(cfg.Schema.Attrs), len(sortedPairs(len(offer.Holders)))
	for name, table := range map[string][][]rng.Seed{"seeds": offer.Seeds, "row seeds": offer.RowSeeds} {
		if len(table) != nAttr {
			return nil, fmt.Errorf("party: offer carries %s for %d attributes, schema has %d", name, len(table), nAttr)
		}
		for attr, seeds := range table {
			if len(seeds) != pairs {
				return nil, fmt.Errorf("party: offer attribute %d carries %d pair %s, want %d", attr, len(seeds), name, pairs)
			}
		}
	}
	total := 0
	for i, c := range offer.Counts {
		if c < 0 {
			return nil, fmt.Errorf("party: offer census holds a negative count for %s", offer.Holders[i])
		}
		if c > math.MaxInt-total {
			return nil, errors.New("party: offer census total overflows an int")
		}
		total += c
	}
	// No process can hold the float64 cells of a triangle whose byte count
	// overflows an int, so neither can the coordinator that sent the offer.
	if total > 1 && (total-1 > math.MaxInt/total || total*(total-1)/2 > math.MaxInt/8) {
		return nil, fmt.Errorf("party: offer census of %d objects makes a triangle no process can hold", total)
	}
	if offer.Lo < 0 || offer.Hi < offer.Lo || offer.Hi > total {
		return nil, fmt.Errorf("party: offer range [%d,%d) outside the census total %d", offer.Lo, offer.Hi, total)
	}
	return newShardCore(cfg, num, offer.Holders, offer.Counts, parallel.Workers(0),
		protocol.NewEnginePool(0), offer.Seeds, offer.RowSeeds), nil
}

// run reads the offer — still under the handshake deadline on conn — arms
// the guard's watchdog with the offer's PhaseTimeout, rebuilds the shard
// pipeline and drives it: relayed pair chunks feed per-holder pipes, and
// one pair-share reader per pipe evaluates each chunk and sends its rows
// back. Every failure ends the run through the guard; run returns its
// classified error, or nil once the coordinator ended the run cleanly.
func (r *shardRun) run(conn net.Conn) error {
	r.guard.setPhase("offer")
	var offer shardOfferBody
	if _, err := expectMsg(r.ep, kindShardOffer, &offer); err != nil {
		return r.guard.abort(fmt.Errorf("party: shard offer: %w", err))
	}
	conn.SetDeadline(time.Time{})
	r.guard.setPhase("relay")
	r.guard.watch(offer.PhaseTimeout)
	core, err := r.srv.offerCore(r.key.shard, offer)
	if err != nil {
		return r.guard.abort(err)
	}
	rg := [2]int{offer.Lo, offer.Hi}

	// One pipe per holder — the write end receives the relayed frame bytes,
	// the read end reproduces exactly the pair chunks the holder sent the
	// range. The guard owns the pipes, so a failure unparks the readers
	// waiting on them. A holder with no frames for the range never has its
	// pipe read.
	feeds := make([]wire.Conduit, len(offer.Holders))
	eps := make([]*wire.Endpoint, len(offer.Holders))
	frames := make([]int, len(offer.Holders))
	for hi := range offer.Holders {
		a, b := wire.Pipe()
		r.guard.own(a)
		feeds[hi], eps[hi] = a, wire.NewEndpoint(b)
		frames[hi] = core.pairFrames(hi, rg)
	}

	// The pipeline computes on its own goroutine: the pair-share readers
	// evaluate each relayed chunk and send its rows straight back, one
	// ppc/shard-rows frame per chunk, staged into the frame a row at a
	// time — the worker holds no slice.
	g := &laneGroup{eps: eps, rows: rg,
		install: func(attr int, sh pairShare, lo, hi int, row protocol.RowFunc) error {
			body := shardRowsBody{Attr: attr, J: sh.j, K: sh.k, Lo: lo, Hi: hi,
				cols: core.counts[sh.j], row: row, workers: core.workers}
			return r.ep.SendBody(wire.Message{From: ShardName(r.key.shard), To: TPName, Kind: kindShardRows, Attr: attr}, body)
		}}
	for attr, a := range core.cfg.Schema.Attrs {
		if !tagBased(a.Type) {
			g.attrs = append(g.attrs, attr)
		}
	}
	computed := make(chan error, 1)
	go func() {
		err := core.readLanes(r.guard.ctx, g)
		if err != nil {
			err = r.guard.abort(err)
		}
		computed <- err
	}()
	if err = r.relay(feeds, frames, offer.Holders); err != nil {
		err = r.guard.abort(err)
	}
	// A clean end comes after every frame was fed, so the readers finish
	// on their own; a failure has closed the pipes under them.
	if cerr := <-computed; err == nil {
		err = cerr
	}
	return err
}

// relay is the run's receive loop: it feeds each relayed frame to its
// holder's pipe until the coordinator's done, after every frame the range
// has. The relayed frames all arrive on one link, so the loop must never
// block on one holder's pipe while another holder's reader waits for
// frames. It does not: a pipe queue is unbounded, so Send never blocks,
// and the pair frame count bounds how much a coordinator can make the
// worker hold.
func (r *shardRun) relay(feeds []wire.Conduit, frames []int, holders []string) error {
	fed, relayed := make([]int, len(feeds)), 0
	for {
		m, err := r.ep.Recv()
		if err != nil {
			return err
		}
		switch m.Kind {
		case kindShardFrame:
			var body shardFrameBody
			if err := wire.DecodeBody(m.Payload, &body); err != nil {
				return err
			}
			if m.Attr < 0 || m.Attr >= len(feeds) {
				return fmt.Errorf("party: relayed frame for holder %d outside the roster", m.Attr)
			}
			if fed[m.Attr] >= frames[m.Attr] {
				return fmt.Errorf("party: relayed frames for %s exceed the lane's %d", holders[m.Attr], frames[m.Attr])
			}
			fed[m.Attr]++
			// The received Message owns its payload, so the frame is handed
			// to the lane reader as it is, not copied into the pipe.
			if err := wire.SendOwned(feeds[m.Attr], body.Frame); err != nil {
				return err
			}
			relayed++
			if hook := r.srv.cfg.OnFrame; hook != nil {
				hook(r.key.session, r.key.shard, relayed)
			}
		case kindShardDone:
			if !slices.Equal(fed, frames) {
				return fmt.Errorf("party: coordinator ended the run after %d relayed frames, before the range's last", relayed)
			}
			return nil
		case kindAbort:
			return peerAbortError(m)
		default:
			return fmt.Errorf("party: unexpected %q from coordinator", m.Kind)
		}
	}
}
