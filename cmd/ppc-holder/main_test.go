package main

import (
	"errors"
	mrand "math/rand"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ppclust"
	"ppclust/internal/netid"
)

func testDialer(retries int) *dialer {
	return &dialer{retries: retries, backoff: time.Millisecond, rnd: mrand.New(mrand.NewSource(1))}
}

// admissionServer accepts connections and answers each hello with the
// scripted decision, one per connection; nil means accept.
func admissionServer(t *testing.T, script []*netid.RejectedError) (addr string, served *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	served = &atomic.Int32{}
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			served.Add(1)
			go func(i int, conn net.Conn) {
				defer conn.Close()
				if _, err := netid.AcceptHelloWithin(conn, time.Second); err != nil {
					return
				}
				if i < len(script) && script[i] != nil {
					netid.SendReject(conn, script[i].Code, script[i].Detail)
					return
				}
				netid.SendAcceptRouting(conn, 1)
				// Keep the accepted connection open until the dialer is done
				// with it; closing immediately could race the accept read.
				time.Sleep(50 * time.Millisecond)
			}(i, conn)
		}
	}()
	return ln.Addr().String(), served
}

func TestDialRetriesConnectFailuresThenSucceeds(t *testing.T) {
	// Reserve an address, close the listener (dials now fail), and revive
	// it after the first failed attempt.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	go func() {
		time.Sleep(20 * time.Millisecond)
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the test will fail on the dial below
		}
		defer ln.Close()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := netid.AcceptHelloWithin(conn, time.Second); err == nil {
			netid.SendAcceptRouting(conn, 1)
			time.Sleep(50 * time.Millisecond)
		}
	}()
	conn, err := testDialer(10).dial("third party", addr, tpHandshake("A", "s1", nil))
	if err != nil {
		t.Fatalf("dial never recovered: %v", err)
	}
	conn.Close()
}

// TestDialTypedRefusalIsFinal: a non-retryable reject ends the attempts
// immediately — the server told us retrying cannot help — and classifies
// as a session refusal (exit code 5).
func TestDialTypedRefusalIsFinal(t *testing.T) {
	addr, served := admissionServer(t, []*netid.RejectedError{
		{Code: netid.RejectCapacity, Detail: "full"},
		{Code: netid.RejectCapacity, Detail: "full"},
	})
	_, err := testDialer(5).dial("third party", addr, tpHandshake("A", "s1", nil))
	if err == nil {
		t.Fatal("refused dial succeeded")
	}
	if !errors.Is(err, ppclust.ErrSessionRefused) {
		t.Fatalf("refusal not classified: %v", err)
	}
	var rej *netid.RejectedError
	if !errors.As(err, &rej) || rej.Code != netid.RejectCapacity {
		t.Fatalf("reject reason lost: %v", err)
	}
	if got := served.Load(); got != 1 {
		t.Fatalf("dialer retried a final refusal: %d connections", got)
	}
	if code := reportFailure(err); code != exitRefused {
		t.Fatalf("exit code %d, want %d", code, exitRefused)
	}
}

// TestDialRetryableRefusalRetries: the draining reject is marked
// retryable, so the dialer backs off and tries again.
func TestDialRetryableRefusalRetries(t *testing.T) {
	addr, served := admissionServer(t, []*netid.RejectedError{
		{Code: netid.RejectDraining, Detail: "draining"},
		nil, // second attempt admitted
	})
	conn, err := testDialer(5).dial("third party", addr, tpHandshake("A", "s1", nil))
	if err != nil {
		t.Fatalf("dial did not survive a retryable refusal: %v", err)
	}
	conn.Close()
	if got := served.Load(); got != 2 {
		t.Fatalf("served %d connections, want 2", got)
	}
}

func TestDialGivesUpAfterRetries(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens: every dial fails
	_, err = testDialer(3).dial("third party", addr, tpHandshake("A", "s1", nil))
	if err == nil {
		t.Fatal("dial to a dead address succeeded")
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("attempt count lost: %v", err)
	}
}

// TestDelayCapAndJitter: the backoff doubles, never exceeds the cap, and
// jitters within [base/2, base].
func TestDelayCapAndJitter(t *testing.T) {
	d := &dialer{retries: 10, backoff: 100 * time.Millisecond, rnd: mrand.New(mrand.NewSource(7))}
	prevBase := time.Duration(0)
	for attempt := 0; attempt < 12; attempt++ {
		base := d.backoff << attempt
		if base > maxConnectBackoff || base <= 0 {
			base = maxConnectBackoff
		}
		for i := 0; i < 50; i++ {
			got := d.delay(attempt)
			if got < base/2 || got > base {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, got, base/2, base)
			}
			if got > maxConnectBackoff {
				t.Fatalf("attempt %d: delay %v above cap", attempt, got)
			}
		}
		if base < prevBase {
			t.Fatalf("attempt %d: base %v shrank from %v", attempt, base, prevBase)
		}
		prevBase = base
	}
}

// TestEmptySessionSendsVersionedHello: without -session the holder still
// speaks the versioned hello — naming the default session — and learns the
// shard count from the routing admission like any other tenant.
func TestEmptySessionSendsVersionedHello(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan netid.Hello, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hello, err := netid.AcceptHelloWithin(conn, time.Second)
		if err != nil {
			return
		}
		got <- hello
		netid.SendAcceptRouting(conn, 2)
		time.Sleep(50 * time.Millisecond)
	}()
	shards := 0
	conn, err := testDialer(1).dial("third party", ln.Addr().String(), tpHandshake("B", "", &shards))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn.Close()
	want := netid.Hello{Name: "B", Version: netid.VersionSharded}
	if hello := <-got; hello != want || shards != 2 {
		t.Fatalf("hello = %+v, learned %d shards; want %+v and 2", hello, shards, want)
	}
}
