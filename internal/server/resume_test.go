package server

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ppclust/internal/leakcheck"
	"ppclust/internal/netid"
	"ppclust/internal/party"
	"ppclust/internal/wire"
)

// resumeResponder records the decision on one resume hello: a grant with
// the server's watermarks, or the typed refusal.
type resumeResponder struct {
	grant chan party.ResumeGrant
	rej   chan error
}

func newResumeResponder() *resumeResponder {
	return &resumeResponder{grant: make(chan party.ResumeGrant, 1), rej: make(chan error, 1)}
}

func (r *resumeResponder) Accept(shards int) error {
	return errors.New("resume hello got a plain accept")
}

func (r *resumeResponder) AcceptResume(sent, recv uint64) error {
	r.grant <- party.ResumeGrant{Sent: sent, Recv: recv}
	return nil
}

func (r *resumeResponder) Reject(code netid.RejectCode, detail string) error {
	r.rej <- &netid.RejectedError{Code: code, Detail: detail}
	return nil
}

// managerRedial is the holder-side dialer for in-process manager tests: a
// redial becomes a fresh pipe submitted as a version-3 resume hello, and
// the grant (or typed refusal) comes back through the responder.
func managerRedial(m *Manager, session string) party.RedialFunc {
	return func(_ context.Context, holder string, lane int, st party.ResumeState) (wire.Conduit, party.ResumeGrant, error) {
		hc, sc := wire.Pipe()
		r := newResumeResponder()
		m.Submit(netid.Hello{Name: holder, Session: session, Version: netid.VersionResume,
			Lane: lane, Epoch: st.Epoch, Sent: st.Sent, Recv: st.Recv}, sc, r)
		select {
		case g := <-r.grant:
			return hc, g, nil
		case err := <-r.rej:
			hc.Close()
			var rej *netid.RejectedError
			if errors.As(err, &rej) && rej.Code == netid.RejectResume {
				// What the facade does with a terminal resume refusal:
				// surface it under the fatal resume class so the holder
				// stops redialing instead of burning the window.
				return nil, party.ResumeGrant{}, errors.Join(party.ErrResumeAborted, err)
			}
			return nil, party.ResumeGrant{}, err
		case <-time.After(10 * time.Second):
			hc.Close()
			return nil, party.ResumeGrant{}, errors.New("no resume decision within 10s")
		}
	}
}

// resumeSession is testSession with chunking small enough that the tiny
// test dataset still streams several frames per lane — the flap must land
// mid-stream, after the handshake.
func resumeSession() party.Config {
	c := testSession()
	c.LocalChunkBytes = 16
	return c
}

// resumeManager is newManager with a reconnect window armed on the
// session config.
func resumeManager(t *testing.T, window time.Duration, logf func(string, ...any)) (*Manager, *completions) {
	t.Helper()
	done := newCompletions()
	session := resumeSession()
	session.ResumeWindow = window
	cfg := Config{
		MaxSessions: 2,
		Holders:     roster,
		Session:     session,
		Random:      tpRandom,
		OnComplete:  done.hook,
		Logf:        logf,
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, done
}

// TestManagerResumeRoundTrip is the server-level differential: a tenant
// whose holder-A lane flaps mid-stream redials through the manager's
// version-3 resume path and the session completes with a report identical
// to the same tenant run fault-free, with the reconnect counters moved.
func TestManagerResumeRoundTrip(t *testing.T) {
	defer leakcheck.Check(t)

	// Fault-free reference run of the same session ID (same deterministic
	// randomness) on its own manager.
	ref, refDone := resumeManager(t, 10*time.Second, t.Logf)
	refTenant := newTenant(t, "sess")
	refHolders := refTenant.runHolders(resumeSession())
	refTenant.submitAll(ref)
	refOut := refDone.next(t)
	if refOut.err != nil {
		t.Fatalf("reference session failed: %v", refOut.err)
	}
	if err := awaitHolders(t, refHolders); err != nil {
		t.Fatalf("reference holders failed: %v", err)
	}

	// Flapped run: holder A's TP lane is cut at its 5th frame (mid
	// chunk-stream, after the handshake), then redialed through Submit.
	var logMu sync.Mutex
	var logged []string
	m, done := resumeManager(t, 10*time.Second, func(format string, args ...any) {
		t.Logf(format, args...)
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	})
	te := newTenant(t, "sess")
	te.holder["A"] = wire.Fault(te.holder["A"], wire.FaultSpec{Kind: wire.FaultFlap, Frame: 4})
	holderCfg := resumeSession()
	holderCfg.ResumeWindow = 10 * time.Second
	holderCfg.Redial = managerRedial(m, te.id)
	holders := te.runHolders(holderCfg)
	te.submitAll(m)

	out := done.next(t)
	if out.err != nil {
		t.Fatalf("flapped session failed: %v", out.err)
	}
	if err := awaitHolders(t, holders); err != nil {
		t.Fatalf("flapped holders failed: %v", err)
	}
	if got := m.Metrics().ReconnectsAccepted(); got != 1 {
		t.Errorf("reconnects_accepted = %d, want 1", got)
	}
	// reconnects_refused is deliberately unpinned: the holder can redial
	// before the server has observed the sever, earning one transient
	// duplicate refusal before the retry lands.
	if got := m.Metrics().Degraded(); got != 0 {
		t.Errorf("sessions_degraded gauge = %d after completion, want 0", got)
	}
	// Every sever of A's lane the server saw, it saw heal.
	downs, ups := 0, 0
	logMu.Lock()
	for _, line := range logged {
		if strings.Contains(line, " holder=A ") {
			downs += strings.Count(line, "event=lane-down ")
			ups += strings.Count(line, "event=lane-up ")
		}
	}
	logMu.Unlock()
	if downs == 0 || downs != ups {
		t.Errorf("logged %d event=lane-down and %d event=lane-up lines for holder A, want equal and non-zero", downs, ups)
	}

	// The resumed session's report is bit-identical to the fault-free run.
	if !reflect.DeepEqual(out.report.ObjectIDs, refOut.report.ObjectIDs) {
		t.Errorf("resumed ObjectIDs diverge: %v vs %v", out.report.ObjectIDs, refOut.report.ObjectIDs)
	}
	if !reflect.DeepEqual(out.report.Scales, refOut.report.Scales) {
		t.Errorf("resumed Scales diverge: %v vs %v", out.report.Scales, refOut.report.Scales)
	}
	for a := range refOut.report.AttributeMatrices {
		want, got := refOut.report.AttributeMatrices[a], out.report.AttributeMatrices[a]
		if !want.EqualWithin(got, 0) {
			t.Errorf("resumed attribute %d matrix diverges from the fault-free run", a)
		}
	}
}

// gateConduit parks its nth Send until the gate channel closes — the
// deterministic way to hold a session mid-stream (running, watermarks
// live) while a test pokes the manager, regardless of how fast the
// session would otherwise finish.
type gateConduit struct {
	wire.Conduit
	gate  <-chan struct{}
	after int
	n     int
}

func (g *gateConduit) Send(frame []byte) error {
	g.n++
	if g.n == g.after {
		<-g.gate
	}
	return g.Conduit.Send(frame)
}

// TestManagerResumeRefusals pins the typed refusals of the server resume
// path: an unknown session, a lane that is still connected, and a
// responder that cannot carry a grant.
func TestManagerResumeRefusals(t *testing.T) {
	defer leakcheck.Check(t)
	m, done := resumeManager(t, 10*time.Second, t.Logf)
	te := newTenant(t, "live")
	// Park holder A mid chunk-stream (the 5th frame is past the handshake,
	// cf. the flap point above) so the session stays observably running —
	// however fast the machine — until the refusal checks are done.
	gate := make(chan struct{})
	te.holder["A"] = &gateConduit{Conduit: te.holder["A"], gate: gate, after: 5}
	holderCfg := resumeSession() // holders never flap; no Redial needed
	holders := te.runHolders(holderCfg)

	// Unknown session: nothing is running under that ID.
	hc, sc := wire.Pipe()
	defer hc.Close()
	r := newResumeResponder()
	m.Submit(netid.Hello{Name: "A", Session: "ghost", Version: netid.VersionResume, Epoch: 1}, sc, r)
	select {
	case err := <-r.rej:
		var rej *netid.RejectedError
		if !errors.As(err, &rej) || rej.Code != netid.RejectResume {
			t.Fatalf("unknown-session resume rejected with %v, want %v", err, netid.RejectResume)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no decision on unknown-session resume")
	}

	te.submitAll(m)
	waitUntil(t, "session running", func() bool {
		m.mu.Lock()
		defer m.mu.Unlock()
		s := m.sessions["live"]
		return s != nil && s.state == stateRunning && s.tp != nil
	})

	// Live lane: the session is running and holder A never disconnected.
	hc2, sc2 := wire.Pipe()
	defer hc2.Close()
	r2 := newResumeResponder()
	m.Submit(netid.Hello{Name: "A", Session: "live", Version: netid.VersionResume, Epoch: 1}, sc2, r2)
	select {
	case err := <-r2.rej:
		var rej *netid.RejectedError
		if !errors.As(err, &rej) || rej.Code != netid.RejectDuplicateHolder {
			t.Fatalf("live-lane resume rejected with %v, want %v", err, netid.RejectDuplicateHolder)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no decision on live-lane resume")
	}
	if got := m.Metrics().ReconnectsRefused(); got != 2 {
		t.Errorf("reconnects_refused = %d, want 2", got)
	}

	close(gate)
	out := done.next(t)
	if out.err != nil {
		t.Fatalf("session failed: %v", out.err)
	}
	if err := awaitHolders(t, holders); err != nil {
		t.Fatalf("holders failed: %v", err)
	}
}
