package server

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/leakcheck"
	"ppclust/internal/netid"
	"ppclust/internal/party"
	"ppclust/internal/wire"
)

// reportsIdentical demands bit-identity: the multi-tenant run must publish
// exactly the report a solo in-memory session with the same randomness
// publishes — tolerance zero, because another tenant's chaos must not leak
// into this tenant's arithmetic at all.
func reportsIdentical(a, b *party.TPReport) bool {
	if !reflect.DeepEqual(a.ObjectIDs, b.ObjectIDs) || !reflect.DeepEqual(a.Scales, b.Scales) {
		return false
	}
	if len(a.AttributeMatrices) != len(b.AttributeMatrices) {
		return false
	}
	for i := range a.AttributeMatrices {
		if !a.AttributeMatrices[i].EqualWithin(b.AttributeMatrices[i], 0) {
			return false
		}
	}
	return true
}

// soloReport replays one tenant in memory with the same per-(session,
// party) randomness the server run used, yielding its isolation baseline.
func soloReport(t *testing.T, session string) *party.TPReport {
	t.Helper()
	tables := testTables()
	parts := []dataset.Partition{{Site: "A", Table: tables["A"]}, {Site: "B", Table: tables["B"]}}
	reqs := map[string]party.ClusterRequest{"A": {K: 2}, "B": {K: 2}}
	out, err := party.RunInMemory(testSession(), parts, reqs, sessionRandom(session))
	if err != nil {
		t.Fatalf("solo baseline %q: %v", session, err)
	}
	return out.Report
}

func dialAnnounce(t *testing.T, addr, name, session string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := netid.AnnounceSessionShardWithin(conn, name, session, -1, 5*time.Second); err != nil {
		conn.Close()
		t.Fatalf("announce %s/%s: %v", session, name, err)
	}
	return conn
}

// TestMultiTenantIsolationAndRefusal is the end-to-end acceptance run:
// three tenants share one server at -max-sessions=3, a fourth is refused
// with the typed capacity reason while all slots are gathering, one
// tenant's wire chaos fails only itself — the survivors' reports are
// bit-identical to solo runs — and a graceful drain leaves no goroutines.
func TestMultiTenantIsolationAndRefusal(t *testing.T) {
	defer leakcheck.Check(t)
	sessions := []string{"alpha", "beta", "chaos"}
	m, done := newManager(t, Config{MaxSessions: len(sessions)})
	addr, stop := startServe(t, m, ServeConfig{})

	// Every tenant's first holder connects: all slots gathering.
	connA := map[string]net.Conn{}
	for _, id := range sessions {
		connA[id] = dialAnnounce(t, addr, "A", id)
	}
	waitUntil(t, "3 gathering sessions", func() bool { return m.Metrics().Active() == 3 })

	// The N+1-th session is refused, typed, while the server is saturated.
	overflow := dialAnnounce(t, addr, "A", "delta")
	defer overflow.Close()
	_, err := netid.AwaitAdmissionRouting(overflow, 10*time.Second)
	var rej *netid.RejectedError
	if !errors.As(err, &rej) || rej.Code != netid.RejectCapacity {
		t.Fatalf("overflow admission %v, want capacity rejection", err)
	}

	// Second holders arrive; every session starts. The chaos tenant's
	// holder A cuts its own TP link mid-protocol.
	tables := testTables()
	holderErrs := map[string]<-chan error{}
	for _, id := range sessions {
		id := id
		connB := dialAnnounce(t, addr, "B", id)
		random := sessionRandom(id)
		ab, ba := wire.Pipe()
		errs := make(chan error, 2)
		run := func(name, peer string, conn net.Conn, hh wire.Conduit) {
			if _, err := netid.AwaitAdmissionRouting(conn, 30*time.Second); err != nil {
				conn.Close()
				errs <- err
				return
			}
			tp := wire.TCPPooled(conn)
			defer tp.Close()
			if id == "chaos" && name == "A" {
				tp = wire.Fault(tp, wire.FaultSpec{Kind: wire.FaultCut, Frame: 2})
			}
			h, err := party.NewHolder(name, tables[name], roster, testSession(), party.ClusterRequest{K: 2},
				map[string]wire.Conduit{party.TPName: tp, peer: hh}, random(name))
			if err != nil {
				errs <- err
				return
			}
			_, err = h.Run()
			errs <- err
		}
		go run("A", "B", connA[id], ab)
		go run("B", "A", connB, ba)
		joined := make(chan error, 1)
		go func() {
			err := errors.Join(<-errs, <-errs)
			ab.Close()
			ba.Close()
			joined <- err
		}()
		holderErrs[id] = joined
	}

	outcomes := map[string]completion{}
	for range sessions {
		out := done.next(t)
		outcomes[out.id] = out
	}
	for _, id := range []string{"alpha", "beta"} {
		if err := awaitHolders(t, holderErrs[id]); err != nil {
			t.Fatalf("tenant %q holders: %v", id, err)
		}
		out := outcomes[id]
		if out.err != nil {
			t.Fatalf("tenant %q failed: %v", id, out.err)
		}
		if !reportsIdentical(out.report, soloReport(t, id)) {
			t.Fatalf("tenant %q report differs from its solo baseline — chaos leaked across tenants", id)
		}
	}
	if err := awaitHolders(t, holderErrs["chaos"]); err == nil {
		t.Fatal("chaos tenant's holders returned results over a cut link")
	}
	if out := outcomes["chaos"]; out.err == nil {
		t.Fatal("chaos tenant completed despite the cut link")
	}

	// Graceful shutdown: close the listener, drain, verify the ledger.
	stop()
	if err := m.Drain(contextWithTimeout(t, 10*time.Second)); err != nil {
		t.Fatalf("drain: %v", err)
	}
	snap := m.Metrics().Snapshot()
	for name, want := range map[string]int64{
		"sessions_admitted":  3,
		"sessions_refused":   1,
		"sessions_completed": 2,
		"sessions_failed":    1,
		"sessions_active":    0,
		"sessions_queued":    0,
	} {
		if snap[name] != want {
			t.Fatalf("%s = %d, want %d (snapshot %v)", name, snap[name], want, snap)
		}
	}
}
