package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/keys"
	"ppclust/internal/netid"
	"ppclust/internal/party"
	"ppclust/internal/rng"
	"ppclust/internal/server"
	"ppclust/internal/wire"
)

// Link classes the wire byte counts are split by.
const (
	classTP     = iota // holder↔TP links, shard lanes included
	classHolder        // holder↔holder links
	classWorker        // coordinator↔shard-worker links
	numClasses
)

const (
	handshakeTimeout = 10 * time.Second
	admissionTimeout = 30 * time.Second
	// matrixTolerance is how far a session's assembled matrices may sit
	// from the plaintext oracle (the float64 protocol's documented error).
	matrixTolerance = 1e-9
)

// linkEnd is one conduit end the benchmark meters, at the outermost layer:
// the sizes are what an on-path observer of that link would count.
type linkEnd struct {
	owner string
	class int
	both  bool // the peer's end is not the benchmark's: count what this end receives too
	tcp   bool
	ctr   wire.Counter
}

// variant is how an in-memory session is wired: the workload's own shape,
// or the plain unsharded bare-pipe twin shard-workers verifies against.
type variant struct {
	wan    bool
	shards int
}

// env is one set-up of one workload: data, oracle, servers, and the
// reference result every later session must reproduce.
type env struct {
	w       *workload
	holders []string
	parts   []dataset.Partition
	cfg     party.Config
	reqs    map[string]party.ClusterRequest
	oracle  []*dissim.Matrix
	refHash string

	seq atomic.Int64 // session ids for the shard workers and the manager

	shardSrv  *party.ShardServer
	shardAddr string

	mgr  *server.Manager
	ln   net.Listener
	addr string

	reportMu   sync.Mutex
	reportWant map[string]chan *party.TPReport
}

// outcome is what one completed session produced.
type outcome struct {
	results map[string]*party.Result
	report  *party.TPReport
	dur     time.Duration
	bytes   [numClasses]int64
}

// detRandom gives every party the same identity stream in every session,
// so that sessions over the same data are bit-identical and their results
// can be compared by hash.
func detRandom(name string) io.Reader {
	return keys.StreamReader(rng.NewAESCTR(rng.SeedFromBytes([]byte("ppc-benchmark/" + name))))
}

// setup builds the workload's environment from seed and runs the warm-up
// sessions. The first session's matrices are checked against the plaintext
// oracle and its results become the reference hash.
func setup(w *workload, seed uint64, warmups int) (*env, error) {
	parts, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, holders: w.holderNames(), parts: parts, cfg: w.sessionConfig(), reqs: w.requests(),
		reportWant: map[string]chan *party.TPReport{}}
	if e.oracle, _, err = party.CentralizedMatrices(e.cfg.Schema, parts); err != nil {
		return nil, err
	}
	if err := e.startServers(); err != nil {
		e.close()
		return nil, err
	}
	if w.Shards > 1 {
		// Same data, bit-identical by contract: the sharded session must
		// publish exactly what the unsharded bare-pipe session publishes.
		out, err := e.runInMemory(variant{}, nil)
		if err == nil {
			err = e.adoptReference(out)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("unsharded reference session: %w", err)
		}
	}
	for i := 0; i < warmups; i++ {
		out, err := e.runSession(nil, i == 0)
		if err == nil && i == 0 && e.refHash == "" {
			err = e.adoptReference(out)
		} else if err == nil && i == 0 {
			err = e.checkMatrices(out)
		}
		if err == nil {
			err = e.check(out)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up session %d: %w", i, err)
		}
	}
	return e, nil
}

func (e *env) startServers() error {
	switch {
	case e.w.Shards > 1:
		srv, err := party.NewShardServer(party.ShardServerConfig{Schema: e.cfg.Schema})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		e.shardSrv, e.shardAddr = srv, ln.Addr().String()
		go srv.Serve(ln) // returns when Close closes the listener
	case e.w.Tenants:
		scfg := e.cfg
		scfg.PhaseTimeout = 30 * time.Second // a wedged session fails instead of hanging the run
		mgr, err := server.New(server.Config{
			Holders:     e.holders,
			Session:     scfg,
			MaxSessions: e.w.Clients,
			// A finished session's slot frees an instant after its holders
			// return, so a client's next session can arrive first; it parks
			// here instead of being refused.
			QueueDepth: 2 * e.w.Clients,
			Random:     func(string) io.Reader { return detRandom(party.TPName) },
			OnComplete: e.onComplete,
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			mgr.Close()
			return err
		}
		e.mgr, e.ln, e.addr = mgr, ln, ln.Addr().String()
		go mgr.Serve(ln, server.ServeConfig{}) // returns when close closes the listener
	}
	return nil
}

func (e *env) close() {
	if e.shardSrv != nil {
		e.shardSrv.Close()
	}
	if e.mgr != nil {
		e.ln.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		e.mgr.Drain(ctx)
		cancel()
		e.mgr.Close()
	}
}

func (e *env) onComplete(session string, report *party.TPReport, err error) {
	e.reportMu.Lock()
	ch := e.reportWant[session]
	delete(e.reportWant, session)
	e.reportMu.Unlock()
	if ch != nil {
		ch <- report // nil when the session failed
	}
}

// runSession runs one complete session of the workload. wantReport asks
// for the third party's report as well (tenants-small has to wait for the
// manager's completion hook to get it).
func (e *env) runSession(st *sessionTrace, wantReport bool) (*outcome, error) {
	if e.w.Tenants {
		return e.runTenant(st, wantReport)
	}
	return e.runInMemory(variant{wan: e.w.WAN, shards: e.w.Shards}, st)
}

// hashResults digests what every holder received: clusters, quality,
// silhouette and the echoed request.
func hashResults(results map[string]*party.Result) (string, error) {
	b, err := json.Marshal(results) // map keys are emitted sorted
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func (e *env) checkMatrices(out *outcome) error {
	if out.report == nil || len(out.report.AttributeMatrices) != len(e.oracle) {
		return errors.New("no third-party report to check against the oracle")
	}
	for i, m := range out.report.AttributeMatrices {
		if !m.EqualWithin(e.oracle[i], matrixTolerance) {
			return fmt.Errorf("attribute %d: assembled matrix differs from the plaintext oracle by more than %g", i, matrixTolerance)
		}
	}
	return nil
}

// adoptReference verifies out against the oracle and makes its results the
// hash every later session must match.
func (e *env) adoptReference(out *outcome) error {
	if err := e.checkMatrices(out); err != nil {
		return err
	}
	h, err := hashResults(out.results)
	e.refHash = h
	return err
}

// check verifies one session's published results.
func (e *env) check(out *outcome) error {
	if len(out.results) != len(e.holders) {
		return fmt.Errorf("%d of %d holders hold a result", len(out.results), len(e.holders))
	}
	h, err := hashResults(out.results)
	if err != nil {
		return err
	}
	if h != e.refHash {
		return fmt.Errorf("result hash %s differs from the verified reference %s", h[:12], e.refHash[:12])
	}
	return nil
}

// session is one session's plumbing: the conduit ends it meters and
// everything it has to close.
type session struct {
	e  *env
	v  variant
	st *sessionTrace

	mu      sync.Mutex
	ends    []*linkEnd
	closers []wire.Conduit
	errs    []error
}

// end dresses one raw conduit end the way the workload prescribes — link
// model on TP-side ends, the observer when tracing, the byte meter
// outermost — and registers it for accounting and teardown.
func (s *session) end(owner string, class int, c wire.Conduit, both, tcp bool) (wire.Conduit, *observer) {
	le := &linkEnd{owner: owner, class: class, both: both, tcp: tcp}
	if s.v.wan && class == classTP && tpSide(owner) {
		c = wire.Link(c, time.Millisecond, 0, 64<<20, 1)
	}
	var o *observer
	if s.st != nil {
		s.st.party(partyOf(owner))
		o = &observer{inner: c, st: s.st, end: le}
		c = o
	}
	c = wire.Meter(c, &le.ctr)
	s.mu.Lock()
	s.ends = append(s.ends, le)
	s.closers = append(s.closers, c)
	if o != nil {
		s.st.mu.Lock()
		s.st.observers = append(s.st.observers, o)
		s.st.mu.Unlock()
	}
	s.mu.Unlock()
	return c, o
}

func (s *session) fail(err error) {
	s.mu.Lock()
	s.errs = append(s.errs, err)
	s.mu.Unlock()
	s.closeAll() // unblock every other party
}

func (s *session) closeAll() {
	s.mu.Lock()
	cs := s.closers
	s.mu.Unlock()
	for _, c := range cs {
		c.Close()
	}
}

// account sums the session's wire bytes per link class.
func (s *session) account(out *outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, le := range s.ends {
		n, _ := le.ctr.Sent()
		if le.both {
			r, _ := le.ctr.Received()
			n += r
		}
		out.bytes[le.class] += int64(n)
	}
}

// holder runs one data holder over its conduits inside its run span.
func (s *session) holder(name string, table *dataset.Table, cfg party.Config, conduits map[string]wire.Conduit, out *outcome) {
	s.st.timeParty(name, func() {
		h, err := party.NewHolder(name, table, s.e.holders, cfg, s.e.reqs[name], conduits, detRandom(name))
		if err != nil {
			s.fail(fmt.Errorf("holder %s: %w", name, err))
			return
		}
		res, err := h.RunContext(context.Background())
		if err != nil {
			s.fail(fmt.Errorf("holder %s: %w", name, err))
			return
		}
		s.mu.Lock()
		out.results[name] = res
		s.mu.Unlock()
	})
}

// runInMemory is the benchmark's own session driver for the in-process
// workloads: the link and party wiring of party.RunInMemoryWrappedContext
// with a span around every party and the benchmark's wrappers on every
// conduit end.
func (e *env) runInMemory(v variant, st *sessionTrace) (*outcome, error) {
	start := time.Now()
	s := &session{e: e, v: v, st: st}
	defer s.closeAll()
	out := &outcome{results: map[string]*party.Result{}}

	// conduits[p][key] is party p's end of the link it knows as key.
	conduits := map[string]map[string]wire.Conduit{party.TPName: {}}
	for _, h := range e.holders {
		conduits[h] = map[string]wire.Conduit{}
	}
	pipe := func(a, keyInA, aOwner, b, keyInB, bOwner string, class int) {
		ca, cb := wire.Pipe()
		ea, oa := s.end(aOwner, class, ca, false, false)
		eb, ob := s.end(bOwner, class, cb, false, false)
		conduits[a][keyInA], conduits[b][keyInB] = ea, eb
		if st != nil && class == classTP {
			st.links = append(st.links, [2]*observer{oa, ob})
		}
	}
	for i, h := range e.holders {
		for _, peer := range e.holders[i+1:] {
			pipe(h, peer, h, peer, h, peer, classHolder)
		}
		pipe(h, party.TPName, h, party.TPName, h, party.TPName, classTP)
		if v.shards > 1 {
			for sh := 0; sh < v.shards; sh++ {
				lane := party.ShardName(sh)
				pipe(h, lane, h, party.TPName, party.ShardConduitKey(h, sh), lane, classTP)
			}
		}
	}

	cfg := e.cfg
	cfg.TPShards = v.shards
	if v.shards > 1 {
		cfg.ShardDial = s.shardDial(fmt.Sprintf("bench-%d", e.seq.Add(1)))
	}

	var wg sync.WaitGroup
	for _, p := range e.parts {
		wg.Add(1)
		go func(p dataset.Partition) {
			defer wg.Done()
			s.holder(p.Site, p.Table, cfg, conduits[p.Site], out)
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		st.timeParty(party.TPName, func() {
			tp, err := party.NewThirdParty(e.holders, cfg, conduits[party.TPName], detRandom(party.TPName))
			if err != nil {
				s.fail(fmt.Errorf("third party: %w", err))
				return
			}
			report, err := tp.RunContext(context.Background())
			if err != nil {
				s.fail(fmt.Errorf("third party: %w", err))
				return
			}
			out.report = report
		})
	}()
	wg.Wait()
	out.dur = time.Since(start)
	return s.done(out)
}

// done closes the session's accounting: byte totals, the trace record, and
// the first error if any party failed.
func (s *session) done(out *outcome) (*outcome, error) {
	var end int64
	if s.st != nil {
		end = s.st.tr.now()
	}
	s.closeAll()
	s.account(out)
	if s.st != nil {
		s.st.finish(end)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return out, errors.Join(s.errs...)
}

// shardDial registers the coordinator with the in-process shard worker
// over loopback TCP (netid v4 registration) and meters the link it
// returns; the coordinator layers key agreement and AES-GCM on top.
func (s *session) shardDial(id string) party.ShardDialFunc {
	return func(ctx context.Context, shard int, state party.ResumeState) (wire.Conduit, party.ResumeGrant, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", s.e.shardAddr)
		if err != nil {
			return nil, party.ResumeGrant{}, err
		}
		if err := netid.AnnounceShardRegistrationWithin(conn, party.TPName, id, shard,
			state.Epoch, state.Sent, state.Recv, handshakeTimeout); err != nil {
			conn.Close()
			return nil, party.ResumeGrant{}, err
		}
		sent, recv, err := netid.AwaitResumeGrant(conn, handshakeTimeout)
		if err != nil {
			conn.Close()
			return nil, party.ResumeGrant{}, err
		}
		c, _ := s.end(party.TPName, classWorker, wire.TCPPooled(conn), true, true)
		return c, party.ResumeGrant{Sent: sent, Recv: recv}, nil
	}
}

// runTenant is one tenants-small session: every holder dials the manager's
// loopback listener with the session hello, waits for admission and runs
// over the TCP conduit; holder↔holder links stay in memory. The manager
// owns the third party, so only the holders' ends are observed.
func (e *env) runTenant(st *sessionTrace, wantReport bool) (*outcome, error) {
	start := time.Now()
	s := &session{e: e, st: st}
	defer s.closeAll()
	out := &outcome{results: map[string]*party.Result{}}
	id := fmt.Sprintf("bench-%d", e.seq.Add(1))

	var reportCh chan *party.TPReport
	if wantReport {
		reportCh = make(chan *party.TPReport, 1)
		e.reportMu.Lock()
		e.reportWant[id] = reportCh
		e.reportMu.Unlock()
	}

	conduits := map[string]map[string]wire.Conduit{}
	for _, h := range e.holders {
		conduits[h] = map[string]wire.Conduit{}
	}
	for i, h := range e.holders {
		for _, peer := range e.holders[i+1:] {
			ca, cb := wire.Pipe()
			conduits[h][peer], _ = s.end(h, classHolder, ca, false, false)
			conduits[peer][h], _ = s.end(peer, classHolder, cb, false, false)
		}
	}

	var wg sync.WaitGroup
	for _, p := range e.parts {
		wg.Add(1)
		go func(p dataset.Partition) {
			defer wg.Done()
			dialed := time.Now()
			conn, err := net.Dial("tcp", e.addr)
			if err == nil {
				if err = netid.AnnounceSessionShardWithin(conn, p.Site, id, -1, handshakeTimeout); err == nil {
					_, err = netid.AwaitAdmissionRouting(conn, admissionTimeout)
				}
				if err != nil {
					conn.Close()
				}
			}
			if err != nil {
				s.fail(fmt.Errorf("holder %s admission: %w", p.Site, err))
				return
			}
			if st != nil {
				st.mu.Lock()
				st.admission = append(st.admission, float64(time.Since(dialed))/1e6)
				st.mu.Unlock()
			}
			// The session map is per holder, so writing this holder's TP
			// entry races with nothing.
			conduits[p.Site][party.TPName], _ = s.end(p.Site, classTP, wire.TCPPooled(conn), true, true)
			s.holder(p.Site, p.Table, e.cfg, conduits[p.Site], out)
		}(p)
	}
	wg.Wait()
	out.dur = time.Since(start)
	if reportCh != nil {
		select {
		case out.report = <-reportCh:
		case <-time.After(admissionTimeout):
			s.fail(errors.New("the manager never reported the session complete"))
		}
	}
	return s.done(out)
}
