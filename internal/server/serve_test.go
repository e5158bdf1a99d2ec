package server

import (
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"ppclust/internal/leakcheck"
	"ppclust/internal/netid"
	"ppclust/internal/party"
	"ppclust/internal/wire"
)

func contextWithTimeout(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// startServe runs the accept loop on an ephemeral listener and returns its
// address plus a stop func that closes the listener and waits for Serve to
// return cleanly.
func startServe(t *testing.T, m *Manager, sc ServeConfig) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- m.Serve(ln, sc) }()
	stop := func() {
		ln.Close()
		select {
		case err := <-served:
			if err != nil {
				t.Errorf("Serve: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after listener close")
		}
	}
	return ln.Addr().String(), stop
}

// runTCPSession drives one complete tenant session against a served
// address: each holder dials, announces with the join hello, waits for
// its admission accept, then runs the party protocol with the TCP conduit
// to the TP and an in-memory pipe to its peer.
func runTCPSession(t *testing.T, addr, session string) <-chan error {
	t.Helper()
	tables := testTables()
	random := sessionRandom(session)
	ab, ba := wire.Pipe()
	errs := make(chan error, 2)
	run := func(name, peer string, hh wire.Conduit) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			errs <- err
			return
		}
		if err := netid.AnnounceSessionShardWithin(conn, name, session, -1, 5*time.Second); err != nil {
			conn.Close()
			errs <- err
			return
		}
		if _, err := netid.AwaitAdmissionRouting(conn, 30*time.Second); err != nil {
			conn.Close()
			errs <- err
			return
		}
		tp := wire.TCPPooled(conn)
		defer tp.Close()
		h, err := party.NewHolder(name, tables[name], roster, testSession(), party.ClusterRequest{K: 2},
			map[string]wire.Conduit{party.TPName: tp, peer: hh}, random(name))
		if err != nil {
			errs <- err
			return
		}
		_, err = h.Run()
		errs <- err
	}
	go run("A", "B", ab)
	go run("B", "A", ba)
	out := make(chan error, 1)
	go func() {
		err := errors.Join(<-errs, <-errs)
		ab.Close()
		ba.Close()
		out <- err
	}()
	return out
}

// TestServeSilentConnDoesNotBlockOthers is the regression test for the
// serial-handshake accept loop: a client that connects and never sends its
// hello must not stall other tenants. The handshake timeout is set far
// above the test budget, so completion within it proves the handshakes ran
// concurrently, not back to back.
func TestServeSilentConnDoesNotBlockOthers(t *testing.T) {
	defer leakcheck.Check(t)
	m, done := newManager(t, Config{MaxSessions: 2})
	addr, stop := startServe(t, m, ServeConfig{HandshakeTimeout: 2 * time.Minute})

	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	holders := runTCPSession(t, addr, "busy")
	if err := awaitHolders(t, holders); err != nil {
		t.Fatalf("session behind a silent connection failed: %v", err)
	}
	if out := done.next(t); out.id != "busy" || out.err != nil {
		t.Fatalf("completion %q err=%v", out.id, out.err)
	}
	if elapsed := time.Since(start); elapsed > time.Minute {
		t.Fatalf("session took %v — handshake of the silent connection serialized the loop", elapsed)
	}

	silent.Close() // unblocks its handshake goroutine; Serve can then drain
	stop()
	if err := m.Drain(contextWithTimeout(t, 10*time.Second)); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServeLegacyHelloOverTCP: the two retired hellos — the bare name label
// pre-session holders announced themselves with, and the version-1 hello —
// are refused, not mis-served. The label's dialer reads no answer, so its
// connection is just closed; the version-1 dialer gets the typed version
// refusal it can read, then the close. Neither takes a session slot, and
// the default session (what an empty -session names) then completes on the
// same listener.
func TestServeLegacyHelloOverTCP(t *testing.T) {
	defer leakcheck.Check(t)
	m, done := newManager(t, Config{MaxSessions: 1})
	addr, stop := startServe(t, m, ServeConfig{})

	for _, raw := range []string{"\x01A", "\xff\x01\x01A\x00"} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte(raw)); err != nil {
			t.Fatal(err)
		}
		_, err = netid.AwaitAdmissionRouting(conn, 10*time.Second)
		if raw[0] == 0xFF {
			var rej *netid.RejectedError
			if !errors.As(err, &rej) || rej.Code != netid.RejectVersion {
				t.Fatalf("version-1 hello answered %v, want version rejection", err)
			}
			_, err = conn.Read(make([]byte, 1))
		}
		if !errors.Is(err, io.EOF) {
			t.Fatalf("hello %q: connection not closed: %v", raw, err)
		}
	}
	if mt := m.Metrics(); mt.Refused() != 2 || mt.Admitted() != 0 || mt.Active() != 0 {
		t.Fatalf("refused=%d admitted=%d active=%d, want 2, 0, 0", mt.Refused(), mt.Admitted(), mt.Active())
	}

	if err := awaitHolders(t, runTCPSession(t, addr, "")); err != nil {
		t.Fatalf("default session after the refusals: %v", err)
	}
	if out := done.next(t); out.id != "" || out.err != nil {
		t.Fatalf("completion id=%q err=%v", out.id, out.err)
	}
	stop()
}

// TestServeFutureVersionRejectedOverTCP: a hello from a newer protocol
// version gets the typed version refusal on the wire, not a hang or a
// silent close.
func TestServeFutureVersionRejectedOverTCP(t *testing.T) {
	defer leakcheck.Check(t)
	m, _ := newManager(t, Config{MaxSessions: 1})
	addr, stop := startServe(t, m, ServeConfig{})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Hand-rolled extended hello claiming one version past the newest the
	// protocol defines anywhere (version 4 exists, but only on
	// coordinator↔shard-worker links — the server refuses it by number).
	frame := []byte{0xFF, byte(netid.VersionShardProc + 1), 1, 'A', 2, 's', '9'}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	_, err = netid.AwaitAdmissionRouting(conn, 10*time.Second)
	var rej *netid.RejectedError
	if !errors.As(err, &rej) || rej.Code != netid.RejectVersion {
		t.Fatalf("admission result %v, want version rejection", err)
	}
	stop()
}
