package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"ppclust/internal/netid"
	"ppclust/internal/wire"
)

// ServeConfig tunes the TCP accept path. The zero value selects the
// default noted per field.
type ServeConfig struct {
	// HandshakeTimeout bounds one connection's hello read (default 10s).
	HandshakeTimeout time.Duration
}

// The accept path's fixed limits.
const (
	// maxHandshakes caps hellos being read concurrently: each accepted
	// connection handshakes in its own goroutine — one client that
	// connects and stalls can never block the accept loop — and the cap
	// keeps a connect flood from minting unbounded goroutines. The slot is
	// released the moment the hello is read, before admission: a queue of
	// parked admissions must not starve the handshakes of the sessions
	// whose completion will drain that queue.
	maxHandshakes = 32
	// maxAcceptRetries bounds consecutive Accept failures before Serve
	// gives up; transient errors back off acceptBackoff and retry.
	maxAcceptRetries = 10
	acceptBackoff    = 100 * time.Millisecond
	// responseTimeout bounds each admission response write.
	responseTimeout = 5 * time.Second
)

// Serve runs the accept loop on ln until the listener closes (the caller
// closes it to begin shutdown — typically right before Drain) or Accept
// fails maxAcceptRetries times in a row. Every accepted connection is
// handshaken concurrently under the in-flight cap and submitted to the
// manager; Serve returns only after in-flight handshakes finish, so a
// Drain that follows observes every connection the loop admitted.
func (m *Manager) Serve(ln net.Listener, sc ServeConfig) error {
	if sc.HandshakeTimeout <= 0 {
		sc.HandshakeTimeout = 10 * time.Second
	}
	sem := make(chan struct{}, maxHandshakes)
	var wg sync.WaitGroup
	defer wg.Wait()
	retries := 0
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			retries++
			if retries > maxAcceptRetries {
				return fmt.Errorf("server: accept failed %d times in a row, giving up: %w", retries, err)
			}
			m.logf("event=accept-retry attempt=%d/%d err=%q", retries, maxAcceptRetries, err)
			time.Sleep(acceptBackoff)
			continue
		}
		retries = 0
		// The acquire blocks the loop only when maxHandshakes hellos are
		// already in flight — bounded, deliberate backpressure, unlike the
		// old inline handshake where a single silent client blocked
		// everyone for the full timeout.
		sem <- struct{}{}
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			hello, err := netid.AcceptHelloWithin(conn, sc.HandshakeTimeout)
			<-sem
			if err != nil {
				m.logf("event=handshake-failed remote=%s err=%q", conn.RemoteAddr(), err)
				conn.Close()
				return
			}
			m.SubmitConn(hello, conn)
		}(conn)
	}
}

// SubmitConn adapts one TCP connection whose hello is already read into
// the manager: the conn becomes a pooled TCP conduit and the admission
// response is written back on the same socket under responseTimeout. A bare
// name label is the holder↔holder link form — its dialer reads no answer,
// so none is written: the refusal is logged and the connection closed.
func (m *Manager) SubmitConn(hello netid.Hello, conn net.Conn) {
	if !hello.Extended() {
		m.metrics.refused.Add(1)
		m.logf("event=session-refused holder=%s code=%s detail=%q",
			hello.Name, netid.RejectVersion, "bare name label is not a session hello")
		conn.Close()
		return
	}
	m.Submit(hello, wire.TCPPooled(conn), &connResponder{conn: conn})
}

// connResponder writes netid admission responses on a net.Conn under a
// responseTimeout write deadline, cleared after the accept so the session
// owns the connection's timeout policy.
type connResponder struct {
	conn net.Conn
}

func (r *connResponder) deadline() time.Time { return time.Now().Add(responseTimeout) }

func (r *connResponder) Accept(shards int) error {
	if err := r.conn.SetWriteDeadline(r.deadline()); err != nil {
		return err
	}
	if err := netid.SendAcceptRouting(r.conn, shards); err != nil {
		return err
	}
	return r.conn.SetWriteDeadline(time.Time{})
}

func (r *connResponder) AcceptResume(sent, recv uint64) error {
	if err := r.conn.SetWriteDeadline(r.deadline()); err != nil {
		return err
	}
	if err := netid.SendAcceptResume(r.conn, sent, recv); err != nil {
		return err
	}
	return r.conn.SetWriteDeadline(time.Time{})
}

func (r *connResponder) Reject(code netid.RejectCode, detail string) error {
	if err := r.conn.SetWriteDeadline(r.deadline()); err != nil {
		return err
	}
	return netid.SendReject(r.conn, code, detail)
}
