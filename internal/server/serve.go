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
// defaults noted per field.
type ServeConfig struct {
	// HandshakeTimeout bounds one connection's hello read (default 10s).
	HandshakeTimeout time.Duration
	// MaxHandshakes caps hellos being read concurrently (default 32): each
	// accepted connection handshakes in its own goroutine — one client
	// that connects and stalls can never block the accept loop — and the
	// cap keeps a connect flood from minting unbounded goroutines. The
	// slot is released the moment the hello is read, before admission:
	// a queue of parked admissions must not starve the handshakes of the
	// sessions whose completion will drain that queue.
	MaxHandshakes int
	// MaxAcceptRetries bounds consecutive Accept failures before Serve
	// gives up (default 10); transient errors back off and retry.
	MaxAcceptRetries int
	// AcceptBackoff is the sleep between Accept retries (default 100ms).
	AcceptBackoff time.Duration
	// ResponseTimeout bounds each admission response write (default 5s).
	ResponseTimeout time.Duration
}

func (sc ServeConfig) withDefaults() ServeConfig {
	if sc.HandshakeTimeout <= 0 {
		sc.HandshakeTimeout = 10 * time.Second
	}
	if sc.MaxHandshakes <= 0 {
		sc.MaxHandshakes = 32
	}
	if sc.MaxAcceptRetries <= 0 {
		sc.MaxAcceptRetries = 10
	}
	if sc.AcceptBackoff <= 0 {
		sc.AcceptBackoff = 100 * time.Millisecond
	}
	if sc.ResponseTimeout <= 0 {
		sc.ResponseTimeout = 5 * time.Second
	}
	return sc
}

// Serve runs the accept loop on ln until the listener closes (the caller
// closes it to begin shutdown — typically right before Drain) or Accept
// fails MaxAcceptRetries times in a row. Every accepted connection is
// handshaken concurrently under the in-flight cap and submitted to the
// manager; Serve returns only after in-flight handshakes finish, so a
// Drain that follows observes every connection the loop admitted.
func (m *Manager) Serve(ln net.Listener, sc ServeConfig) error {
	sc = sc.withDefaults()
	sem := make(chan struct{}, sc.MaxHandshakes)
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
			if retries > sc.MaxAcceptRetries {
				return fmt.Errorf("server: accept failed %d times in a row, giving up: %w", retries, err)
			}
			m.logf("event=accept-retry attempt=%d/%d err=%q", retries, sc.MaxAcceptRetries, err)
			time.Sleep(sc.AcceptBackoff)
			continue
		}
		retries = 0
		// The acquire blocks the loop only when MaxHandshakes hellos are
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
			m.SubmitConn(hello, conn, sc.ResponseTimeout)
		}(conn)
	}
}

// SubmitConn adapts one TCP connection whose hello is already read into
// the manager: the conn becomes a pooled TCP conduit and the admission
// response is written back on the same socket under responseTimeout. A bare
// name label is the holder↔holder link form — its dialer reads no answer,
// so none is written: the refusal is logged and the connection closed.
func (m *Manager) SubmitConn(hello netid.Hello, conn net.Conn, responseTimeout time.Duration) {
	if !hello.Extended() {
		m.metrics.refused.Add(1)
		m.logf("event=session-refused holder=%s code=%s detail=%q",
			hello.Name, netid.RejectVersion, "bare name label is not a session hello")
		conn.Close()
		return
	}
	m.Submit(hello, wire.TCPPooled(conn), &connResponder{conn: conn, timeout: responseTimeout})
}

// connResponder writes netid admission responses on a net.Conn under a
// write deadline, cleared after the accept so the session owns the
// connection's timeout policy.
type connResponder struct {
	conn    net.Conn
	timeout time.Duration
}

func (r *connResponder) deadline() time.Time {
	if r.timeout <= 0 {
		return time.Time{}
	}
	return time.Now().Add(r.timeout)
}

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
