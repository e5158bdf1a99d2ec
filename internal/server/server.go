// Package server is the multi-tenant third-party service: a session
// manager that runs many concurrent ppclust sessions on one listener,
// keyed by the session ID of the netid hello. Holders announcing
// the same session ID are matched into one session, each session runs its
// own party.ThirdParty under the PR 6 lifecycle guards, and the manager
// enforces admission control (bounded queue, then typed refusal — never a
// silent hang), per-session resource budgets against a global budget, and
// graceful drain. One tenant's faults never perturb another tenant's
// report: sessions share nothing but the listener, the engine pool's
// process-wide compute budget, and the metrics.
//
// Session states:
//
//	pending   — parked in the bounded admission queue; no slot, no budget
//	gathering — admitted (slot + budget reserved), waiting for the rest of
//	            its holders to connect; bounded by Config.GatherTimeout
//	running   — all holders present; admission accepts sent, the session's
//	            ThirdParty goroutine owns the conduits until it returns
//	done      — report delivered (or failure classified); slot and budget
//	            released, the next pending session promoted
//
// See docs/ARCHITECTURE.md ("Multi-tenant TP server") for the budget
// formula and drain semantics, and docs/WIRE.md for the hello and reject
// frame this package speaks through internal/netid.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ppclust/internal/netid"
	"ppclust/internal/party"
	"ppclust/internal/wire"
)

// Config configures a Manager. Holders and Session are the out-of-band
// session agreement every tenant session is served under; the remaining
// fields are server-local policy.
type Config struct {
	// Holders is the sorted roster every session must gather — each
	// session needs one connection per holder name (plus one per TP shard
	// when Session.TPShards > 1).
	Holders []string
	// Session is the shared session agreement (schema, variant, chunking,
	// timeouts, TP shard count) each per-session ThirdParty runs under.
	// When Session.TPShards > 1 the server serves the sharded third party:
	// the routing admission on a holder's control connection carries the
	// shard count, and the holder then dials one connection per shard lane.
	Session party.Config
	// ShardAddrs lists the workers of a sharded session: entry s is the
	// listen address of the ppc-shard worker that evaluates shard s's pair
	// chunks, and every session's coordinator dials it through the v4
	// shard-registration handshake. Session.TPShards > 1 requires exactly
	// one address per shard, and TPShards ≤ 1 none. Holders still dial
	// their K shard lanes to this server; only the pair-chunk evaluation
	// runs on the workers. A dead worker degrades its sessions within
	// Session.ResumeWindow (the coordinator redials the same address, so a
	// restarted worker heals them) and fails them classified past it.
	ShardAddrs []string
	// MaxSessions bounds concurrently admitted sessions (gathering plus
	// running). 0 or negative means 1.
	MaxSessions int
	// QueueDepth bounds the admission queue: sessions arriving while the
	// server is saturated park here until a slot frees. 0 disables
	// queueing (saturated arrivals are refused immediately).
	QueueDepth int
	// GlobalBudgetBytes caps the summed per-session memory reservations.
	// Each admitted session reserves Session.EstimateSessionBytes(holders,
	// MaxSessionObjects); a session that would push the sum past the cap
	// queues or is refused with the budget reason. 0 disables the budget.
	GlobalBudgetBytes int64
	// MaxSessionObjects caps a session's total object count, enforced at
	// census time (the first moment the true size is known): a larger
	// session is aborted with a classified error before any
	// partition-sized payload moves. Required (> 0) when
	// GlobalBudgetBytes is set — it is what prices a session's
	// reservation. 0 disables the cap.
	MaxSessionObjects int
	// GatherTimeout bounds how long an admitted session may wait for its
	// remaining holders. On expiry the gathered connections are refused
	// with the gather-timeout reason and the slot frees. 0 disables the
	// bound.
	GatherTimeout time.Duration
	// Random supplies the per-session ThirdParty randomness, keyed by
	// session ID. Nil (and nil readers) fall back to crypto/rand.
	Random func(session string) io.Reader
	// OnComplete, when set, observes every session outcome: the report on
	// success, the classified error on failure. Called from the session's
	// goroutine after its slot is released.
	OnComplete func(session string, report *party.TPReport, err error)
	// Logf receives the structured event log (event=session-admitted /
	// session-refused / session-complete / session-failed lines). Nil
	// silences it.
	Logf func(format string, args ...any)
}

// Manager is the session manager. Construct with New, feed it connections
// with Submit (or SubmitConn / Serve for TCP), and shut it down with Drain
// or Close.
type Manager struct {
	cfg        Config
	perSession int64 // budget reservation per admitted session
	shards     int   // TP shard count every session runs with (1 = single TP)
	connsPer   int   // connections a session gathers: holders × (1 + shard lanes)
	metrics    *Metrics

	rootCtx    context.Context
	rootCancel context.CancelFunc

	mu       sync.Mutex
	sessions map[string]*session // gathering + running, by ID
	pending  []*session          // admission queue, FIFO
	active   int                 // gathering + running (slot holders)
	reserved int64               // summed budget reservations
	draining bool

	wg sync.WaitGroup // running session goroutines
}

// session states.
const (
	statePending = iota
	stateGathering
	stateRunning
	stateDone
)

// session is one tenant: its identity, its gathered connections, and its
// admission state.
type session struct {
	id    string
	state int
	// conns is keyed by conduit key: the holder name for control
	// connections, party.ShardConduitKey(holder, s) for shard lanes —
	// exactly the conduit map party.NewThirdParty expects.
	conns  map[string]*tenantConn
	order  []string // conduit keys in join order, for deterministic replies
	gather *time.Timer
	// tp is the running ThirdParty, published under m.mu once the session
	// goroutine constructs it; the resume path validates version-3 hellos
	// against it. Nil while gathering and after done.
	tp *party.ThirdParty
	// resumed collects replacement conduits granted to reconnecting
	// holders; the session goroutine closes them with the originals.
	resumed []wire.Conduit
}

// tenantConn is one holder's connection into a session: the metered
// conduit the ThirdParty will run over and the pending admission reply.
// accepted records that the admission accept has been sent — a sharded
// session answers its connections at join time (the routing accept is what
// tells a holder to dial its shard lanes), and an accepted connection can no
// longer be sent a reject frame, only closed.
type tenantConn struct {
	conduit  wire.Conduit
	respond  Responder
	accepted bool
}

// Responder delivers the admission decision on one connection's transport.
// Accept carries the session's TP shard count (the routing admission) and
// is followed by the session handshake on the same connection;
// AcceptResume grants a version-3 resume hello, carrying the server's own
// frame watermarks for the severed lane so the holder knows where to
// restart its streams; Reject is terminal — the manager closes the conduit
// after it.
type Responder interface {
	Accept(shards int) error
	AcceptResume(sent, recv uint64) error
	Reject(code netid.RejectCode, detail string) error
}

// New validates the configuration and returns an idle Manager.
func New(cfg Config) (*Manager, error) {
	if err := party.ValidateHolders(cfg.Holders); err != nil {
		return nil, err
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 1
	}
	if cfg.QueueDepth < 0 {
		cfg.QueueDepth = 0
	}
	shards := cfg.Session.TPShards
	if shards < 1 {
		shards = 1
	}
	if shards > party.MaxTPShards {
		return nil, fmt.Errorf("server: %d TP shards exceeds the maximum of %d", shards, party.MaxTPShards)
	}
	switch {
	case shards <= 1 && len(cfg.ShardAddrs) > 0:
		return nil, errors.New("server: ShardAddrs requires Session.TPShards > 1")
	case shards > 1 && len(cfg.ShardAddrs) != shards:
		return nil, fmt.Errorf("server: %d shard worker addresses for %d shards (a sharded session needs one worker per shard)",
			len(cfg.ShardAddrs), shards)
	}
	connsPer := len(cfg.Holders)
	if shards > 1 {
		connsPer = len(cfg.Holders) * (1 + shards)
	}
	var perSession int64
	if cfg.GlobalBudgetBytes > 0 {
		if cfg.MaxSessionObjects <= 0 {
			return nil, errors.New("server: GlobalBudgetBytes requires MaxSessionObjects to price a session")
		}
		// The shard-aware estimate prices the aggregate sharded footprint
		// (slices partition the triangle; lane buffers scale with the shard
		// count but shrink with the per-shard chunk), not K full sessions.
		perSession = cfg.Session.EstimateSessionBytes(len(cfg.Holders), cfg.MaxSessionObjects)
		if perSession > cfg.GlobalBudgetBytes {
			return nil, fmt.Errorf("server: budget %d bytes admits no session (one session reserves %d)",
				cfg.GlobalBudgetBytes, perSession)
		}
	}
	metrics := &Metrics{}
	if shards > 1 {
		metrics.shardWire = make([]wire.Counter, shards)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		cfg:        cfg,
		perSession: perSession,
		shards:     shards,
		connsPer:   connsPer,
		metrics:    metrics,
		rootCtx:    ctx,
		rootCancel: cancel,
		sessions:   make(map[string]*session),
	}, nil
}

// Metrics exposes the manager's counters; see Metrics.Snapshot for the
// documented names.
func (m *Manager) Metrics() *Metrics { return m.metrics }

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// refuseConn answers one connection with a typed refusal (unless its accept
// already went out) and closes its conduit. Called with m.mu NOT held —
// replies may block on a slow client's socket.
func (m *Manager) refuseConn(tc *tenantConn, code netid.RejectCode, detail string) {
	if !tc.accepted {
		_ = tc.respond.Reject(code, detail)
	}
	_ = tc.conduit.Close()
}

// refuse rejects a single pre-session connection — version skew, unknown
// holder, duplicate, saturation with no queue — counting it and logging
// the typed reason.
func (m *Manager) refuse(hello netid.Hello, tc *tenantConn, code netid.RejectCode, detail string) {
	m.metrics.refused.Add(1)
	m.logf("event=session-refused session=%q holder=%s code=%s detail=%q",
		hello.Session, hello.Name, code, detail)
	m.refuseConn(tc, code, detail)
}

// refuseSession rejects every gathered connection of a pending or
// gathering session with one typed reason. Called with m.mu NOT held.
func (m *Manager) refuseSession(s *session, code netid.RejectCode, detail string) {
	m.metrics.refused.Add(1)
	m.logf("event=session-refused session=%q holders=%d code=%s detail=%q",
		s.id, len(s.conns), code, detail)
	for _, name := range s.order {
		m.refuseConn(s.conns[name], code, detail)
	}
}

// Submit routes one connection that has completed its hello into the
// manager: it joins its session (creating, queueing or refusing it per the
// admission policy) and, once the session has every holder, the session
// starts. Submit never blocks on admission — a queued session's
// connections simply wait, bounded by the dialer's own admission-response
// patience and the gather timer. The manager owns c from this call on:
// it is closed after the session runs, or with the refusal.
func (m *Manager) Submit(hello netid.Hello, c wire.Conduit, respond Responder) {
	metered := wire.Meter(c, &m.metrics.Wire)
	if hello.Lane > 0 && hello.Lane <= len(m.metrics.shardWire) {
		// Shard lanes are metered twice: into the summed session traffic
		// and into the lane's own counter.
		metered = wire.Meter(metered, &m.metrics.shardWire[hello.Lane-1])
	}
	tc := &tenantConn{conduit: metered, respond: respond}
	if hello.Version < netid.VersionSharded || hello.Version > netid.VersionResume {
		m.refuse(hello, tc, netid.RejectVersion,
			fmt.Sprintf("hello version %d, server speaks %d to %d", hello.Version, netid.VersionSharded, netid.VersionResume))
		return
	}
	if hello.Resume() {
		m.resume(hello, tc)
		return
	}
	if !slices.Contains(m.cfg.Holders, hello.Name) {
		m.refuse(hello, tc, netid.RejectUnknownHolder,
			fmt.Sprintf("holder %q not in roster %v", hello.Name, m.cfg.Holders))
		return
	}
	if hello.Lane > m.shards || (m.shards == 1 && hello.Lane > 0) {
		m.refuse(hello, tc, netid.RejectSession,
			fmt.Sprintf("shard lane %d outside the session's %d shards", hello.Lane-1, m.shards))
		return
	}
	key := hello.Name
	if hello.Lane > 0 {
		key = party.ShardConduitKey(hello.Name, hello.Lane-1)
	}

	m.mu.Lock()
	s, ok := m.sessions[hello.Session]
	if !ok {
		s = m.pendingSession(hello.Session)
	}
	if s == nil {
		// Admission refused outright; pick the reason that names the actual
		// constraint.
		code, detail := m.refusalLocked()
		m.mu.Unlock()
		m.refuse(hello, tc, code, detail)
		return
	}
	if s.state == stateRunning || s.conns[key] != nil {
		m.mu.Unlock()
		m.refuse(hello, tc, netid.RejectDuplicateHolder,
			fmt.Sprintf("session %q already has a connection for %q", hello.Session, key))
		return
	}
	s.conns[key] = tc
	s.order = append(s.order, key)
	start := s.state == stateGathering && len(s.conns) == m.connsPer
	var accepts []*tenantConn
	if start {
		m.startLocked(s)
	} else if s.state == stateGathering {
		// Sharded sessions answer their connections as they join: the
		// routing accept is what tells a holder to dial its shard lanes, so
		// deferring it to the full roster would deadlock the gather. The
		// accepts are sent outside the lock; a session that completes on
		// this join instead leaves them to runSession, which sends every
		// outstanding accept before the handshake — never concurrently with
		// it.
		accepts = m.pendingAcceptsLocked(s)
	}
	m.mu.Unlock()
	m.sendAccepts(accepts)
}

// resume handles a version-3 resume hello: a holder redialing a severed
// lane of a running session. The manager validates against the session's
// live ThirdParty (which owns the per-lane watermarks and the reconnect
// window), answers with a resume grant carrying the server's own
// watermarks, and hands the replacement conduit to the granted ticket on
// its own goroutine — the two ends replay their unconfirmed tails into
// each other concurrently. Resumes are deliberately admitted while
// draining: a drain lets running sessions finish, and a running session
// with a severed lane can only finish by healing it.
func (m *Manager) resume(hello netid.Hello, tc *tenantConn) {
	refuse := func(code netid.RejectCode, detail string) {
		m.metrics.reconnRefused.Add(1)
		m.logf("event=resume-refused session=%q holder=%s lane=%d code=%s detail=%q",
			hello.Session, hello.Name, hello.Lane, code, detail)
		m.refuseConn(tc, code, detail)
	}
	m.mu.Lock()
	s := m.sessions[hello.Session]
	var tp *party.ThirdParty
	if s != nil && s.state == stateRunning {
		tp = s.tp
	}
	m.mu.Unlock()
	if tp == nil {
		refuse(netid.RejectResume, fmt.Sprintf("session %q is not running here", hello.Session))
		return
	}
	if !tp.Resumable() {
		refuse(netid.RejectResume, "session was not armed with a reconnect window")
		return
	}
	ticket, err := tp.Resume(hello.Name, hello.Lane, hello.Epoch, hello.Sent, hello.Recv)
	if err != nil {
		code := netid.RejectResume
		if errors.Is(err, party.ErrResumeDuplicate) {
			code = netid.RejectDuplicateHolder
		}
		refuse(code, err.Error())
		return
	}
	grant := ticket.Grant()
	if err := tc.respond.AcceptResume(grant.Sent, grant.Recv); err != nil {
		// The grant never reached the holder, so it will redial; put the
		// lane back the way Resume found it by failing this attempt.
		ticket.Abandon()
		m.metrics.reconnRefused.Add(1)
		m.logf("event=resume-grant-failed session=%q holder=%s lane=%d err=%q",
			hello.Session, hello.Name, hello.Lane, err)
		_ = tc.conduit.Close()
		return
	}
	tc.accepted = true
	m.mu.Lock()
	if s.state == stateRunning {
		s.resumed = append(s.resumed, tc.conduit)
	}
	m.mu.Unlock()
	m.metrics.reconnAccepted.Add(1)
	m.logf("event=resume-accepted session=%q holder=%s lane=%d epoch=%d",
		hello.Session, hello.Name, hello.Lane, hello.Epoch)
	go func() {
		if err := ticket.Complete(tc.conduit); err != nil {
			m.logf("event=resume-rebind-failed session=%q holder=%s lane=%d err=%q",
				hello.Session, hello.Name, hello.Lane, err)
		}
	}()
}

// pendingAcceptsLocked collects (and marks) the unanswered accepts of a
// gathering sharded session, with m.mu held. Single-TP sessions defer all
// accepts to runSession: nothing tells their holders to dial more lanes.
func (m *Manager) pendingAcceptsLocked(s *session) []*tenantConn {
	if m.shards <= 1 {
		return nil
	}
	var out []*tenantConn
	for _, key := range s.order {
		if tc := s.conns[key]; !tc.accepted {
			tc.accepted = true
			out = append(out, tc)
		}
	}
	return out
}

// sendAccepts delivers admission accepts collected under the lock. Called
// with m.mu NOT held — replies may block on a slow client's socket.
func (m *Manager) sendAccepts(accepts []*tenantConn) {
	for _, tc := range accepts {
		if err := tc.respond.Accept(m.shards); err != nil {
			m.logf("event=admission-accept-failed err=%q", err)
		}
	}
}

// pendingSession resolves where a brand-new session lands, with m.mu held:
// a gathering session when a slot and budget are free, a queue entry when
// the queue has room, nil when the arrival must be refused.
func (m *Manager) pendingSession(id string) *session {
	if m.draining {
		return nil
	}
	s := &session{id: id, conns: make(map[string]*tenantConn)}
	if m.admitLocked(s) {
		return s
	}
	if len(m.pending) < m.cfg.QueueDepth {
		s.state = statePending
		m.pending = append(m.pending, s)
		m.sessions[id] = s
		m.metrics.queued.Add(1)
		return s
	}
	return nil
}

// refusalLocked names the constraint that blocked admission, with m.mu
// held: a full queue when one is configured, otherwise whichever of the
// session cap and the byte budget is exhausted.
func (m *Manager) refusalLocked() (netid.RejectCode, string) {
	switch {
	case m.draining:
		return netid.RejectDraining, "server is draining for shutdown"
	case m.cfg.QueueDepth > 0:
		return netid.RejectQueueFull,
			fmt.Sprintf("%d sessions active, queue of %d full", m.active, m.cfg.QueueDepth)
	case m.active < m.cfg.MaxSessions:
		return netid.RejectBudget,
			fmt.Sprintf("admitting would reserve %d bytes past the %d-byte budget", m.perSession, m.cfg.GlobalBudgetBytes)
	default:
		return netid.RejectCapacity,
			fmt.Sprintf("server at -max-sessions=%d with no admission queue", m.cfg.MaxSessions)
	}
}

// admitLocked tries to move a session into the gathering state, reserving
// its slot and budget, with m.mu held.
func (m *Manager) admitLocked(s *session) bool {
	if m.active >= m.cfg.MaxSessions {
		return false
	}
	if m.cfg.GlobalBudgetBytes > 0 && m.reserved+m.perSession > m.cfg.GlobalBudgetBytes {
		return false
	}
	m.active++
	m.reserved += m.perSession
	m.metrics.admitted.Add(1)
	m.metrics.activeSessions.Add(1)
	m.metrics.noteReserved(m.reserved)
	s.state = stateGathering
	m.sessions[s.id] = s
	if m.cfg.GatherTimeout > 0 {
		s.gather = time.AfterFunc(m.cfg.GatherTimeout, func() { m.gatherExpired(s) })
	}
	m.logf("event=session-admitted session=%q reserve=%d", s.id, m.perSession)
	return true
}

// releaseLocked frees a session's slot and budget and promotes the head of
// the admission queue, with m.mu held. A promoted session whose roster is
// already complete starts here (startLocked — same lock); a promoted
// sharded session still gathering has accepts to send, returned for the
// caller to deliver outside the lock.
func (m *Manager) releaseLocked(s *session) []*tenantConn {
	if s.gather != nil {
		s.gather.Stop()
	}
	delete(m.sessions, s.id)
	m.active--
	m.reserved -= m.perSession
	m.metrics.activeSessions.Add(-1)
	var accepts []*tenantConn
	for len(m.pending) > 0 {
		next := m.pending[0]
		if !m.admitLocked(next) {
			break
		}
		m.pending = m.pending[1:]
		m.metrics.queued.Add(-1)
		if len(next.conns) == m.connsPer {
			m.startLocked(next)
		} else {
			accepts = append(accepts, m.pendingAcceptsLocked(next)...)
		}
	}
	return accepts
}

// gatherExpired fires when an admitted session's roster never completed:
// the gathered connections are refused with the typed gather-timeout
// reason and the slot frees for the queue.
func (m *Manager) gatherExpired(s *session) {
	m.mu.Lock()
	if s.state != stateGathering {
		m.mu.Unlock()
		return
	}
	s.state = stateDone
	accepts := m.releaseLocked(s)
	m.mu.Unlock()
	m.sendAccepts(accepts)
	m.refuseSession(s, netid.RejectTimeout,
		fmt.Sprintf("session %q gathered %d of %d connections within %v",
			s.id, len(s.conns), m.connsPer, m.cfg.GatherTimeout))
}

// startLocked transitions a fully gathered session to running and hands it
// to its own goroutine, with m.mu held. The admission accepts are sent
// from that goroutine — never under the lock — before the ThirdParty's
// session handshake begins on the same connections.
func (m *Manager) startLocked(s *session) {
	s.state = stateRunning
	if s.gather != nil {
		s.gather.Stop()
	}
	m.wg.Add(1)
	go m.runSession(s)
}

// runSession is one tenant's lifetime: admission accepts, the per-session
// ThirdParty under the manager's root context, outcome accounting, conduit
// teardown, and the queue promotion its freed slot pays for.
func (m *Manager) runSession(s *session) {
	defer m.wg.Done()
	for _, name := range s.order {
		if tc := s.conns[name]; !tc.accepted {
			if err := tc.respond.Accept(m.shards); err != nil {
				// A broken admission reply means a broken connection; the
				// session handshake on it will fail and classify the session.
				m.logf("event=admission-accept-failed session=%q conn=%s err=%q", s.id, name, err)
			}
		}
	}
	report, err := m.serveSession(s)

	m.mu.Lock()
	s.state = stateDone
	s.tp = nil // resumes race the teardown; withdraw the handle first
	resumed := s.resumed
	accepts := m.releaseLocked(s)
	draining := m.draining
	m.mu.Unlock()
	m.sendAccepts(accepts)

	// Close the session's conduits only after the run: on success the
	// result frames are already flushed (TCP writes complete before Run
	// returns; pipe queues deliver buffered frames before ErrClosed), and
	// on failure the abort frames went out under the lifecycle guard's
	// grace.
	for _, tc := range s.conns {
		_ = tc.conduit.Close()
	}
	for _, c := range resumed {
		_ = c.Close()
	}

	switch {
	case err != nil:
		m.metrics.failed.Add(1)
		m.logf("event=session-failed session=%q err=%q", s.id, err)
	default:
		m.metrics.completed.Add(1)
		if draining {
			m.metrics.drained.Add(1)
		}
		m.logf("event=session-complete session=%q holders=%d objects=%d",
			s.id, len(s.conns), len(report.ObjectIDs))
	}
	if m.cfg.OnComplete != nil {
		m.cfg.OnComplete(s.id, report, err)
	}
}

// serveSession builds and runs one session's ThirdParty, observed by its
// own sessionEvents.
func (m *Manager) serveSession(s *session) (*party.TPReport, error) {
	cfg := m.cfg.Session
	ev := &sessionEvents{m: m, id: s.id, workers: make([]atomic.Bool, m.shards)}
	defer ev.settle()
	cfg.Events = ev.observe
	if m.shards > 1 {
		cfg.ShardDial = m.shardDialer(s.id)
	}
	// s.conns is already keyed the way party.NewThirdParty expects: holder
	// names for control conduits, ShardConduitKey for shard lanes.
	conduits := make(map[string]wire.Conduit, len(s.conns))
	for name, tc := range s.conns {
		conduits[name] = tc.conduit
	}
	var random io.Reader
	if m.cfg.Random != nil {
		random = m.cfg.Random(s.id)
	}
	tp, err := party.NewThirdParty(m.cfg.Holders, cfg, conduits, random)
	if err != nil {
		return nil, err
	}
	// Publish the handle the resume path validates against; withdrawn by
	// runSession before the conduits close.
	m.mu.Lock()
	s.tp = tp
	m.mu.Unlock()
	return tp.RunContext(m.rootCtx)
}

// Drain performs the graceful shutdown: stop admitting (new arrivals get
// the retryable draining refusal), refuse the queue and every
// still-gathering session — with no new connections they can never
// complete — and let running sessions finish. When ctx expires first, the
// stragglers are aborted through the root context (classified under the
// session error taxonomy, holders notified) and Drain waits for their
// teardown. Idempotent; concurrent calls all wait for the same quiesce.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	pending := m.pending
	m.pending = nil
	for _, s := range pending {
		s.state = stateDone
		delete(m.sessions, s.id)
	}
	var gathering []*session
	for _, s := range m.sessions {
		if s.state == stateGathering {
			s.state = stateDone
			gathering = append(gathering, s)
		}
	}
	for _, s := range gathering {
		// Draining admits nothing, so promotions cannot happen and no
		// accepts come back.
		m.releaseLocked(s)
	}
	for range pending {
		m.metrics.queued.Add(-1)
	}
	m.mu.Unlock()

	if !already {
		m.logf("event=drain-started pending=%d gathering=%d", len(pending), len(gathering))
	}
	for _, s := range append(pending, gathering...) {
		m.refuseSession(s, netid.RejectDraining, "server is draining for shutdown")
	}

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Deadline: abort the stragglers and wait for their bounded unwind.
		// The root cancel classifies sessions already inside RunContext;
		// closing the conduits additionally unblocks a session still parked
		// in its construction-time handshake, which no caller context
		// bounds yet.
		m.rootCancel()
		m.mu.Lock()
		for _, s := range m.sessions {
			if s.state == stateRunning {
				for _, tc := range s.conns {
					_ = tc.conduit.Close()
				}
			}
		}
		m.mu.Unlock()
		<-done
		return fmt.Errorf("server: drain deadline: in-flight sessions aborted: %w", context.Cause(ctx))
	}
}

// Close is the immediate shutdown: every session — queued, gathering or
// running — is refused or aborted right now, classified. It is Drain with
// an already-expired deadline.
func (m *Manager) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := m.Drain(ctx)
	if err != nil && errors.Is(err, context.Canceled) {
		return nil
	}
	return err
}
