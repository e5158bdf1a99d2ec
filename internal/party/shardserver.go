package party

// Cross-process TP shards: the worker side. A ppc-shard process runs one
// ShardServer; each coordinator registration (netid v4 hello) starts one
// shardRun, which receives the slice offer, rebuilds the shard pipeline
// (shardCore) from it, feeds the relayed holder frames to lane readers,
// bounded by the shared lane frame counts, and returns the finished
// slices. The worker holds no durable state: a registration always
// answers with watermarks (0, 0), and a re-registration for the same
// (session, shard) supersedes the previous run — the coordinator replays
// the stream from the beginning and the worker recomputes, which is what
// makes a crashed worker process and a flapped link heal through the same
// path.

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
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

const (
	// shardHandshakeTimeout bounds registration + key agreement per
	// connection.
	shardHandshakeTimeout = 10 * time.Second
	// shardHeartbeat is the cadence of worker→coordinator liveness
	// heartbeats.
	shardHeartbeat = time.Second
)

// ShardServerConfig configures one shard worker.
type ShardServerConfig struct {
	// Schema is the worker's copy of the session agreement's attribute
	// list. An offer whose schema fingerprint disagrees is refused — the
	// worker evaluates protocol payloads and must share the agreement.
	Schema dataset.Schema
	// OnFrame, when set, observes every relayed holder frame after it is
	// fed to the pipeline: session, shard index and the running frame
	// total of the current run. The multi-process test harness uses it to
	// crash the worker at exact protocol points.
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
	if err := cfg.Schema.Validate(); err != nil {
		return nil, fmt.Errorf("party: shard server schema: %w", err)
	}
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
		r.close(errors.New("party: shard worker draining"))
	}
	s.wg.Wait()
}

// handle runs one registration: v4 hello, unconditional (0, 0) grant, key
// agreement, then the run loop until the coordinator finishes, aborts, or
// the link dies.
func (s *ShardServer) handle(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(shardHandshakeTimeout))
	hello, err := netid.ParseHello(conn)
	if err != nil {
		conn.Close()
		return
	}
	if !hello.ShardRegistration() || hello.Lane == 0 {
		s.cfg.Logf("event=shard-reject reason=version remote=%s", conn.RemoteAddr())
		netid.SendReject(conn, netid.RejectVersion, "shard worker accepts the v4 shard-registration hello only")
		conn.Close()
		return
	}
	shard := int(hello.Lane) - 1
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		netid.SendReject(conn, netid.RejectDraining, "shard worker draining")
		conn.Close()
		return
	}
	// The grant is unconditionally (0, 0): a worker is always fresh for a
	// registration. Whatever a previous generation or a severed link
	// accumulated is unusable after the coordinator's full replay, so
	// there are no watermarks to reconcile.
	if err := netid.SendAcceptResume(conn, 0, 0); err != nil {
		conn.Close()
		return
	}
	secured, err := s.secure(conn, shard)
	if err != nil {
		s.cfg.Logf("event=shard-handshake-failed shard=%d err=%v", shard, err)
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	run := &shardRun{
		srv:     s,
		key:     shardRunKey{session: hello.Session, shard: shard},
		epoch:   hello.Epoch,
		conduit: secured,
		ep:      wire.NewEndpoint(secured),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		secured.Close()
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
			secured.Close()
			return
		}
		// Re-registration after a crash of the coordinator's link (or a
		// coordinator that never learned its old link died): the stream
		// restarts from the beginning, so the old run must not keep
		// half-assembled state alive. It dies silently — the coordinator
		// has replaced that link and an abort frame has no reader there,
		// or worse, a reader that takes it for the session's.
		s.cfg.Logf("event=shard-superseded session=%q shard=%d epoch=%d by=%d",
			hello.Session, shard, old.epoch, hello.Epoch)
		old.close(nil)
	}
	s.runs[run.key] = run
	s.mu.Unlock()
	s.cfg.Logf("event=shard-register session=%q shard=%d epoch=%d remote=%s",
		hello.Session, shard, hello.Epoch, conn.RemoteAddr())
	run.serve()
	s.mu.Lock()
	if s.runs[run.key] == run {
		delete(s.runs, run.key)
	}
	s.mu.Unlock()
}

// secure is the worker side of the link handshake: a fresh X25519
// identity per connection (the link is transport protection only — no
// session key material derives from it), then the key agreement. Like the
// coordinator's side, it never runs plain.
func (s *ShardServer) secure(conn net.Conn, shard int) (wire.Conduit, error) {
	name := ShardName(shard)
	identity, err := keys.NewIdentity(name, rand.Reader)
	if err != nil {
		return nil, err
	}
	secured, _, err := handshake(wire.TCPPooled(conn), name, TPName, identity, s.fp, false)
	return secured, err
}

// shardRun is one registration's lifetime on the worker.
type shardRun struct {
	srv     *ShardServer
	key     shardRunKey
	epoch   uint32
	conduit wire.Conduit
	ep      *wire.Endpoint

	sendMu    sync.Mutex
	closeOnce sync.Once
}

func (r *shardRun) send(kind wire.Kind, attr int, body any) error {
	r.sendMu.Lock()
	defer r.sendMu.Unlock()
	return r.ep.SendBody(wire.Message{From: ShardName(r.key.shard), To: TPName, Kind: kind, Attr: attr}, body)
}

// close tears the run's link down, first explaining the failure to the
// coordinator when there is one to explain (best-effort — on a dead link
// the send fails immediately).
func (r *shardRun) close(reason error) {
	r.closeOnce.Do(func() {
		if reason != nil {
			_ = r.send(kindAbort, -1, abortBody{Reason: clipReason(reason.Error())})
		}
		r.conduit.Close()
	})
}

// serve runs the registration to completion: offer, then the frame loop.
// An offer that arrives but does not decode — a malformed layout, another
// kind — is refused with an abort; a link that ends first has no one to
// tell.
func (r *shardRun) serve() {
	m, err := r.ep.Recv()
	if err != nil {
		r.close(nil)
		return
	}
	var offer shardOfferBody
	if err := expectBody(m, kindShardOffer, &offer); err != nil {
		r.srv.cfg.Logf("event=shard-offer-refused session=%q shard=%d err=%v", r.key.session, r.key.shard, err)
		r.close(err)
		return
	}
	if err := r.run(offer); err != nil {
		r.srv.cfg.Logf("event=shard-run-failed session=%q shard=%d err=%v", r.key.session, r.key.shard, err)
		r.close(err)
		return
	}
	r.srv.cfg.Logf("event=shard-run-done session=%q shard=%d", r.key.session, r.key.shard)
	r.close(nil)
}

// offerCore validates an offer against this worker's schema and
// registration and rebuilds the shard pipeline it asks for, its compute
// sized by the worker's own cores.
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
	for i, c := range offer.Counts {
		if c < 0 {
			return nil, fmt.Errorf("party: offer census holds a negative count for %s", offer.Holders[i])
		}
	}
	core := newShardCore(cfg, num, offer.Holders, offer.Counts, parallel.Workers(0),
		protocol.NewEnginePool(0), offer.Seeds, offer.RowSeeds)
	if offer.Lo < 0 || offer.Hi < offer.Lo || offer.Hi > core.total {
		return nil, fmt.Errorf("party: offer range [%d,%d) outside the census total %d", offer.Lo, offer.Hi, core.total)
	}
	return core, nil
}

// run rebuilds the shard pipeline from the offer and drives it: relayed
// frames feed per-holder pipes, one lane reader per pipe computes the
// slices, and the slices go back ascending by attribute. Returns nil on a
// clean coordinator-initiated end.
func (r *shardRun) run(offer shardOfferBody) error {
	s := r.srv
	core, err := s.offerCore(r.key.shard, offer)
	if err != nil {
		return err
	}
	cfg, nAttr := core.cfg, len(core.cfg.Schema.Attrs)
	rg := [2]int{offer.Lo, offer.Hi}

	// One pipe per holder — the write end receives the relayed frame bytes,
	// the read end reproduces exactly the stream an in-process shard's lane
	// reader sees. A holder with no frames for the range never has its pipe
	// read.
	feeds := make([]wire.Conduit, len(offer.Holders))
	eps := make([]*wire.Endpoint, len(offer.Holders))
	frames := make([]int, len(offer.Holders))
	for hi := range offer.Holders {
		a, b := wire.Pipe()
		feeds[hi], eps[hi] = a, wire.NewEndpoint(b)
		frames[hi] = core.laneFrames(hi, rg)
	}
	// stop ends the lane readers: they yield no frame once ctx ends, and
	// closing the feeds unparks the ones waiting for a frame.
	ctx, cancel := context.WithCancel(context.Background())
	stop := func() {
		cancel()
		for _, f := range feeds {
			f.Close()
		}
	}
	defer stop()

	var mu sync.Mutex
	var runErr error
	fail := func(err error) {
		mu.Lock()
		if runErr == nil {
			runErr = err
		}
		mu.Unlock()
		stop()
	}

	// The pipeline computes on its own goroutine and, on success, sends
	// the slices back itself — ascending by attribute, so the reply order
	// is deterministic.
	computeDone := make(chan struct{})
	go func() {
		defer close(computeDone)
		out := make([]attrSlice, nAttr)
		if err := core.readSlices(ctx, eps, rg, out); err != nil {
			fail(err)
			return
		}
		for attr, a := range cfg.Schema.Attrs {
			if tagBased(a.Type) {
				continue
			}
			if err := r.send(kindShardSlice, attr, shardSliceBody{Attr: attr, Cells: out[attr].cells, Max: out[attr].max}); err != nil {
				fail(err)
				return
			}
		}
	}()

	// Heartbeats, until the run ends or the first send fails.
	hbStop := make(chan struct{})
	var hbWg sync.WaitGroup
	hbWg.Add(1)
	go func() {
		defer hbWg.Done()
		t := time.NewTicker(shardHeartbeat)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				if err := r.send(kindShardBeat, -1, shardBeatBody{}); err != nil {
					return
				}
			}
		}
	}()

	// The relayed frames all arrive on one link, so the receive loop must
	// never block on one holder's pipe while another holder's reader waits
	// for frames. It does not: a pipe queue is unbounded, so Send never
	// blocks, and the lane frame count bounds how much a coordinator can
	// make the worker hold.
	relayed := 0
	fed := make([]int, len(offer.Holders))
	clean := false
	var recvErr error
loop:
	for {
		m, err := r.ep.Recv()
		if err != nil {
			recvErr = err
			break
		}
		switch m.Kind {
		case kindShardFrame:
			var body shardFrameBody
			if err := wire.DecodeBody(m.Payload, &body); err != nil {
				recvErr = err
				break loop
			}
			if m.Attr < 0 || m.Attr >= len(feeds) {
				recvErr = fmt.Errorf("party: relayed frame for holder %d outside the roster", m.Attr)
				break loop
			}
			if fed[m.Attr] >= frames[m.Attr] {
				recvErr = fmt.Errorf("party: relayed frames for %s exceed the lane's %d", offer.Holders[m.Attr], frames[m.Attr])
				break loop
			}
			fed[m.Attr]++
			if err := feeds[m.Attr].Send(body.Frame); err != nil {
				fail(err)
			}
			relayed++
			if hook := s.cfg.OnFrame; hook != nil {
				hook(r.key.session, r.key.shard, relayed)
			}
		case kindShardDone:
			clean = true
			break loop
		case kindAbort:
			recvErr = peerAbortError(m)
			break loop
		default:
			recvErr = fmt.Errorf("party: unexpected %q from coordinator", m.Kind)
			break loop
		}
	}
	close(hbStop)
	stop()
	<-computeDone
	hbWg.Wait()
	if clean {
		return nil
	}
	mu.Lock()
	err = runErr
	mu.Unlock()
	if err == nil {
		err = recvErr
	}
	return err
}
