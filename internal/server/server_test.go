package server

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/keys"
	"ppclust/internal/leakcheck"
	"ppclust/internal/netid"
	"ppclust/internal/party"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

var roster = []string{"A", "B"}

func testSchema() dataset.Schema {
	return dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
}

func testSession() party.Config {
	return party.Config{
		Schema:         testSchema(),
		Variant:        party.Float64Variant,
		SessionTimeout: 30 * time.Second,
	}
}

// testTables is a 5-object numeric dataset split A=3, B=2.
func testTables() map[string]*dataset.Table {
	a := dataset.MustNewTable(testSchema())
	for _, v := range []float64{20, 22, 71} {
		a.MustAppendRow(v)
	}
	b := dataset.MustNewTable(testSchema())
	for _, v := range []float64{25, 69} {
		b.MustAppendRow(v)
	}
	return map[string]*dataset.Table{"A": a, "B": b}
}

// sessionRandom keys every party's deterministic randomness stream by
// (session, party) so a tenant replayed solo sees identical bytes.
func sessionRandom(session string) func(name string) io.Reader {
	return func(name string) io.Reader {
		seed := rng.SeedFromBytes([]byte(session + "/" + name))
		return keys.StreamReader(rng.NewAESCTR(seed))
	}
}

func tpRandom(session string) io.Reader {
	return sessionRandom(session)(party.TPName)
}

// pipeResponder records the admission decision for one submitted conduit:
// Accept delivers nil, Reject delivers the typed error.
type pipeResponder struct{ ch chan error }

func newPipeResponder() *pipeResponder { return &pipeResponder{ch: make(chan error, 1)} }

func (r *pipeResponder) Accept(shards int) error { r.ch <- nil; return nil }

func (r *pipeResponder) AcceptResume(sent, recv uint64) error {
	return errors.New("join hello got a resume grant")
}

func (r *pipeResponder) Reject(code netid.RejectCode, detail string) error {
	r.ch <- &netid.RejectedError{Code: code, Detail: detail}
	return nil
}

func awaitDecision(t *testing.T, r *pipeResponder) error {
	t.Helper()
	select {
	case err := <-r.ch:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("no admission decision within 10s")
		return nil
	}
}

func expectAccept(t *testing.T, r *pipeResponder) {
	t.Helper()
	if err := awaitDecision(t, r); err != nil {
		t.Fatalf("expected accept, got %v", err)
	}
}

func expectReject(t *testing.T, r *pipeResponder, code netid.RejectCode) *netid.RejectedError {
	t.Helper()
	err := awaitDecision(t, r)
	if err == nil {
		t.Fatalf("expected %v rejection, got accept", code)
	}
	var rej *netid.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("decision %v is not a RejectedError", err)
	}
	if rej.Code != code {
		t.Fatalf("rejected with %v (%q), want %v", rej.Code, rej.Detail, code)
	}
	if !errors.Is(err, netid.ErrRejected) {
		t.Fatalf("rejection does not unwrap to ErrRejected: %v", err)
	}
	return rej
}

// tenant is one pipe-backed session: the server-side conduit ends (to
// Submit), the holder-side ends, and the recorded admission decisions.
type tenant struct {
	id     string
	server map[string]wire.Conduit
	holder map[string]wire.Conduit // each holder's TP conduit
	resp   map[string]*pipeResponder
	ab, ba wire.Conduit // A<->B link
}

func newTenant(t *testing.T, id string) *tenant {
	hA, sA := wire.Pipe()
	hB, sB := wire.Pipe()
	ab, ba := wire.Pipe()
	te := &tenant{
		id:     id,
		server: map[string]wire.Conduit{"A": sA, "B": sB},
		holder: map[string]wire.Conduit{"A": hA, "B": hB},
		resp:   map[string]*pipeResponder{"A": newPipeResponder(), "B": newPipeResponder()},
		ab:     ab, ba: ba,
	}
	t.Cleanup(func() {
		for _, c := range []wire.Conduit{hA, hB, ab, ba} {
			c.Close()
		}
	})
	return te
}

func (te *tenant) hello(name string) netid.Hello {
	return netid.Hello{Name: name, Session: te.id, Version: netid.VersionSharded}
}

func (te *tenant) submit(m *Manager, name string) {
	m.Submit(te.hello(name), te.server[name], te.resp[name])
}

func (te *tenant) submitAll(m *Manager) {
	te.submit(m, "A")
	te.submit(m, "B")
}

// runHolders drives both of the tenant's holder parties to completion and
// delivers their joined error.
func (te *tenant) runHolders(cfg party.Config) <-chan error {
	tables := testTables()
	random := sessionRandom(te.id)
	errs := make(chan error, 2)
	run := func(name string, conduits map[string]wire.Conduit) {
		h, err := party.NewHolder(name, tables[name], roster, cfg, party.ClusterRequest{K: 2}, conduits, random(name))
		if err != nil {
			errs <- err
			return
		}
		_, err = h.Run()
		errs <- err
	}
	go run("A", map[string]wire.Conduit{party.TPName: te.holder["A"], "B": te.ab})
	go run("B", map[string]wire.Conduit{party.TPName: te.holder["B"], "A": te.ba})
	out := make(chan error, 1)
	go func() { out <- errors.Join(<-errs, <-errs) }()
	return out
}

type completion struct {
	id     string
	report *party.TPReport
	err    error
}

type completions struct{ ch chan completion }

func newCompletions() *completions { return &completions{ch: make(chan completion, 16)} }

func (c *completions) hook(id string, report *party.TPReport, err error) {
	c.ch <- completion{id: id, report: report, err: err}
}

func (c *completions) next(t *testing.T) completion {
	t.Helper()
	select {
	case out := <-c.ch:
		return out
	case <-time.After(20 * time.Second):
		t.Fatal("no session completion within 20s")
		return completion{}
	}
}

func awaitHolders(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("holders did not finish within 20s")
		return nil
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s not reached within 10s", what)
}

func newManager(t *testing.T, cfg Config) (*Manager, *completions) {
	t.Helper()
	done := newCompletions()
	cfg.Holders = roster
	cfg.Session = testSession()
	cfg.Random = tpRandom
	cfg.OnComplete = done.hook
	cfg.Logf = t.Logf
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, done
}

func TestSingleSessionCompletes(t *testing.T) {
	defer leakcheck.Check(t)
	m, done := newManager(t, Config{MaxSessions: 2})

	te := newTenant(t, "trial-1")
	te.submitAll(m)
	holders := te.runHolders(testSession())
	expectAccept(t, te.resp["A"])
	expectAccept(t, te.resp["B"])
	if err := awaitHolders(t, holders); err != nil {
		t.Fatalf("holders failed: %v", err)
	}
	out := done.next(t)
	if out.err != nil {
		t.Fatalf("session failed: %v", out.err)
	}
	if out.id != "trial-1" || len(out.report.ObjectIDs) != 5 {
		t.Fatalf("completion %q with %d objects", out.id, len(out.report.ObjectIDs))
	}

	snap := m.Metrics().Snapshot()
	for name, want := range map[string]int64{
		"sessions_admitted":  1,
		"sessions_completed": 1,
		"sessions_active":    0,
		"sessions_refused":   0,
		"sessions_queued":    0,
	} {
		if snap[name] != want {
			t.Fatalf("%s = %d, want %d (snapshot %v)", name, snap[name], want, snap)
		}
	}
	if snap["wire_recv_bytes"] == 0 || snap["wire_sent_bytes"] == 0 {
		t.Fatalf("session traffic not metered: %v", snap)
	}
}

// TestQueueParksThenAdmits: with one slot and a one-deep queue, the second
// session parks (no response yet), the third is refused queue-full, and
// the parked session is promoted and served when the slot frees.
func TestQueueParksThenAdmits(t *testing.T) {
	defer leakcheck.Check(t)
	m, done := newManager(t, Config{MaxSessions: 1, QueueDepth: 1})

	t1, t2, t3 := newTenant(t, "t1"), newTenant(t, "t2"), newTenant(t, "t3")
	t1.submit(m, "A") // holds the only slot, gathering
	t2.submit(m, "A") // parks in the queue
	t3.submit(m, "A") // queue full: typed refusal
	expectReject(t, t3.resp["A"], netid.RejectQueueFull)
	if q := m.Metrics().Queued(); q != 1 {
		t.Fatalf("queued = %d, want 1", q)
	}
	select {
	case err := <-t2.resp["A"].ch:
		t.Fatalf("parked session answered early: %v", err)
	default:
	}

	t1.submit(m, "B")
	h1 := t1.runHolders(testSession())
	expectAccept(t, t1.resp["A"])
	expectAccept(t, t1.resp["B"])
	if err := awaitHolders(t, h1); err != nil {
		t.Fatalf("t1 holders: %v", err)
	}
	if out := done.next(t); out.id != "t1" || out.err != nil {
		t.Fatalf("first completion %q err=%v", out.id, out.err)
	}

	// The freed slot promotes t2; its roster completes and it runs.
	t2.submit(m, "B")
	h2 := t2.runHolders(testSession())
	expectAccept(t, t2.resp["A"])
	expectAccept(t, t2.resp["B"])
	if err := awaitHolders(t, h2); err != nil {
		t.Fatalf("t2 holders: %v", err)
	}
	if out := done.next(t); out.id != "t2" || out.err != nil {
		t.Fatalf("second completion %q err=%v", out.id, out.err)
	}

	mtr := m.Metrics()
	if mtr.Admitted() != 2 || mtr.Refused() != 1 || mtr.Completed() != 2 || mtr.Queued() != 0 {
		t.Fatalf("admitted=%d refused=%d completed=%d queued=%d",
			mtr.Admitted(), mtr.Refused(), mtr.Completed(), mtr.Queued())
	}
}

func TestCapacityRefusalWithoutQueue(t *testing.T) {
	m, _ := newManager(t, Config{MaxSessions: 1})
	t1, t2 := newTenant(t, "t1"), newTenant(t, "t2")
	t1.submit(m, "A")
	t2.submit(m, "A")
	rej := expectReject(t, t2.resp["A"], netid.RejectCapacity)
	if rej.Retryable() {
		t.Fatal("capacity refusal claims to be retryable")
	}
}

// TestBudgetRefusal: slots are free but the global byte budget prices in
// exactly one session, so the second arrival is refused with the budget
// reason — and admits fine once the first session's reservation releases.
func TestBudgetRefusal(t *testing.T) {
	session := testSession()
	budget := session.EstimateSessionBytes(len(roster), 100)
	m, done := newManager(t, Config{
		MaxSessions:       5,
		GlobalBudgetBytes: budget,
		MaxSessionObjects: 100,
	})

	t1 := newTenant(t, "t1")
	t1.submit(m, "A")
	t2 := newTenant(t, "t2")
	t2.submit(m, "A")
	expectReject(t, t2.resp["A"], netid.RejectBudget)

	t1.submit(m, "B")
	h1 := t1.runHolders(testSession())
	expectAccept(t, t1.resp["A"])
	expectAccept(t, t1.resp["B"])
	if err := awaitHolders(t, h1); err != nil {
		t.Fatalf("t1 holders: %v", err)
	}
	if out := done.next(t); out.err != nil {
		t.Fatalf("t1 failed: %v", out.err)
	}

	retry := newTenant(t, "t2")
	retry.submitAll(m)
	h2 := retry.runHolders(testSession())
	expectAccept(t, retry.resp["A"])
	expectAccept(t, retry.resp["B"])
	if err := awaitHolders(t, h2); err != nil {
		t.Fatalf("t2 retry holders: %v", err)
	}
	if out := done.next(t); out.id != "t2" || out.err != nil {
		t.Fatalf("t2 retry completion %q err=%v", out.id, out.err)
	}
	if hw := m.Metrics().Snapshot()["budget_reserved_high_water_bytes"]; hw != budget {
		t.Fatalf("reservation high water %d, want %d", hw, budget)
	}
}

// TestCensusCapAbortsOversizedSession: the per-session object cap bites at
// census time — before any partition-sized payload moves — aborting the
// session classified, with the holders notified.
func TestCensusCapAbortsOversizedSession(t *testing.T) {
	defer leakcheck.Check(t)
	m, done := newManager(t, Config{MaxSessions: 1, MaxSessionObjects: 4})

	te := newTenant(t, "big")
	te.submitAll(m)
	holders := te.runHolders(testSession())
	expectAccept(t, te.resp["A"])
	expectAccept(t, te.resp["B"])

	out := done.next(t)
	if out.err == nil {
		t.Fatal("oversized session completed")
	}
	if !strings.Contains(out.err.Error(), "server cap is 4") {
		t.Fatalf("cap reason lost: %v", out.err)
	}
	herr := awaitHolders(t, holders)
	if herr == nil {
		t.Fatal("holders of the aborted session returned results")
	}
	if !errors.Is(herr, party.ErrAborted) {
		t.Fatalf("holders not classified aborted: %v", herr)
	}
	if m.Metrics().Failed() != 1 {
		t.Fatalf("failed = %d, want 1", m.Metrics().Failed())
	}
}

// TestGatherTimeoutRefusesParkedHolders: an admitted session whose roster
// never completes is refused with the typed gather-timeout reason, its
// slot frees, and the same session ID may try again.
func TestGatherTimeoutRefusesParkedHolders(t *testing.T) {
	defer leakcheck.Check(t)
	m, done := newManager(t, Config{MaxSessions: 1, GatherTimeout: 50 * time.Millisecond})

	te := newTenant(t, "slow")
	te.submit(m, "A")
	rej := expectReject(t, te.resp["A"], netid.RejectTimeout)
	if !strings.Contains(rej.Detail, "1 of 2 connections") {
		t.Fatalf("gather-timeout detail %q", rej.Detail)
	}
	waitUntil(t, "slot release", func() bool { return m.Metrics().Active() == 0 })

	retry := newTenant(t, "slow")
	retry.submitAll(m)
	holders := retry.runHolders(testSession())
	expectAccept(t, retry.resp["A"])
	expectAccept(t, retry.resp["B"])
	if err := awaitHolders(t, holders); err != nil {
		t.Fatalf("retry holders: %v", err)
	}
	if out := done.next(t); out.id != "slow" || out.err != nil {
		t.Fatalf("retry completion %q err=%v", out.id, out.err)
	}
}

// TestDrainRefusesNewAndFinishesInFlight: drain lets the running session
// publish its report while new arrivals get the retryable draining
// refusal.
func TestDrainRefusesNewAndFinishesInFlight(t *testing.T) {
	defer leakcheck.Check(t)
	m, done := newManager(t, Config{MaxSessions: 2})

	te := newTenant(t, "inflight")
	te.submitAll(m) // running; its TP waits for holder hellos we delay

	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	waitUntil(t, "draining", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.draining
	})

	late := newTenant(t, "late")
	late.submit(m, "A")
	rej := expectReject(t, late.resp["A"], netid.RejectDraining)
	if !rej.Retryable() {
		t.Fatal("draining refusal not retryable")
	}

	holders := te.runHolders(testSession())
	expectAccept(t, te.resp["A"])
	expectAccept(t, te.resp["B"])
	if err := awaitHolders(t, holders); err != nil {
		t.Fatalf("in-flight holders: %v", err)
	}
	if out := done.next(t); out.err != nil {
		t.Fatalf("in-flight session failed during drain: %v", out.err)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain did not return")
	}
	snap := m.Metrics().Snapshot()
	if snap["sessions_drained"] != 1 || snap["sessions_completed"] != 1 {
		t.Fatalf("drained=%d completed=%d", snap["sessions_drained"], snap["sessions_completed"])
	}
}

// TestForcedDrainAbortsClassified: when the drain deadline passes, a
// session stuck mid-handshake (holders connected but silent) is torn down
// rather than waited on, its outcome delivered as a classified failure.
func TestForcedDrainAbortsClassified(t *testing.T) {
	defer leakcheck.Check(t)
	m, done := newManager(t, Config{MaxSessions: 1})

	te := newTenant(t, "stuck")
	te.submitAll(m) // running; holders never speak

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	err := m.Drain(ctx)
	if err == nil {
		t.Fatal("forced drain reported a clean quiesce")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain error %v does not carry the deadline cause", err)
	}
	out := done.next(t)
	if out.id != "stuck" || out.err == nil {
		t.Fatalf("stuck session outcome id=%q err=%v", out.id, out.err)
	}
	if m.Metrics().Failed() != 1 {
		t.Fatalf("failed = %d, want 1", m.Metrics().Failed())
	}
}

func TestUnknownDuplicateAndVersionRefusals(t *testing.T) {
	m, _ := newManager(t, Config{MaxSessions: 2})

	// Unknown holder name.
	c1, s1 := wire.Pipe()
	defer c1.Close()
	r1 := newPipeResponder()
	m.Submit(netid.Hello{Name: "Z", Session: "s", Version: netid.VersionSharded}, s1, r1)
	expectReject(t, r1, netid.RejectUnknownHolder)

	// Duplicate holder within a gathering session.
	te := newTenant(t, "s")
	te.submit(m, "A")
	c2, s2 := wire.Pipe()
	defer c2.Close()
	r2 := newPipeResponder()
	m.Submit(netid.Hello{Name: "A", Session: "s", Version: netid.VersionSharded}, s2, r2)
	expectReject(t, r2, netid.RejectDuplicateHolder)

	// Hellos from the future and from the retired past, either side of the
	// versions the server speaks.
	for _, version := range []int{netid.VersionResume + 1, netid.VersionSharded - 1} {
		c3, s3 := wire.Pipe()
		defer c3.Close()
		r3 := newPipeResponder()
		m.Submit(netid.Hello{Name: "B", Session: "s2", Version: version}, s3, r3)
		rej := expectReject(t, r3, netid.RejectVersion)
		if !strings.Contains(rej.Detail, "server speaks 2 to 3") {
			t.Fatalf("version detail %q", rej.Detail)
		}
	}
	if m.Metrics().Refused() != 4 {
		t.Fatalf("refused = %d, want 4", m.Metrics().Refused())
	}
}
