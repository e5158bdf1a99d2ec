package netid

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

func TestAnnounceAccept(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- AnnounceWithin(a, "HolderA", time.Second) }()
	h, err := AcceptHelloWithin(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "HolderA" {
		t.Fatalf("name = %q", h.Name)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestAnnounceValidation(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if err := AnnounceWithin(a, "", time.Second); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := AnnounceWithin(a, strings.Repeat("x", 65), time.Second); err == nil {
		t.Fatal("oversized name accepted")
	}
}

func TestAcceptRejectsGarbage(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go a.Write([]byte{0})
	if _, err := AcceptHelloWithin(b, time.Second); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestLegacyHelloParsesAsDefaultSession(t *testing.T) {
	// The bare name label — the retired legacy hello, still the
	// holder↔holder link label — parses to Version 0 with the empty session
	// and is not Extended, which is what a session acceptor refuses it by.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- AnnounceWithin(a, "HolderB", time.Second) }()
	h, err := AcceptHelloWithin(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "HolderB" || h.Session != "" || h.Version != 0 {
		t.Fatalf("hello = %+v", h)
	}
	if h.Extended() {
		t.Fatal("legacy hello marked extended")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestAnnounceSessionValidation(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if err := AnnounceSessionShardWithin(a, "", "s", -1, time.Second); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := AnnounceSessionShardWithin(a, "H", strings.Repeat("s", 65), -1, time.Second); err == nil {
		t.Fatal("oversized session accepted")
	}
}

func TestFutureVersionHelloSurvivesParse(t *testing.T) {
	// A hello of a version this package does not lay out — the retired
	// version 1 as much as a version 5 from the future — parses through the
	// name and session, reads nothing past them, and reports its claimed
	// version, so the acceptor can refuse it with RejectVersion instead of
	// a parse error.
	for _, ver := range []byte{1, 5} {
		r := bytes.NewReader([]byte{magicExtended, ver, 1, 'H', 2, 's', '2', 0xAA})
		h, err := ParseHello(r)
		if err != nil {
			t.Fatal(err)
		}
		if want := (Hello{Name: "H", Session: "s2", Version: int(ver)}); h != want {
			t.Fatalf("hello = %+v, want %+v", h, want)
		}
		if r.Len() != 1 {
			t.Fatalf("version %d: parser read past the session", ver)
		}
	}
}

func TestAdmissionAcceptAndReject(t *testing.T) {
	for _, tc := range []struct {
		name  string
		serve func(c net.Conn) error
		check func(t *testing.T, err error)
	}{
		{"accept", func(c net.Conn) error { return SendAcceptRouting(c, 1) }, func(t *testing.T, err error) {
			if err != nil {
				t.Fatalf("accept: %v", err)
			}
		}},
		{"reject", func(c net.Conn) error {
			return SendReject(c, RejectQueueFull, "3 sessions active, queue of 2 full")
		}, func(t *testing.T, err error) {
			if !errors.Is(err, ErrRejected) {
				t.Fatalf("err = %v, want ErrRejected", err)
			}
			var re *RejectedError
			if !errors.As(err, &re) {
				t.Fatalf("err = %v, want *RejectedError", err)
			}
			if re.Code != RejectQueueFull || re.Code.String() != "queue-full" {
				t.Fatalf("code = %v", re.Code)
			}
			if re.Detail != "3 sessions active, queue of 2 full" {
				t.Fatalf("detail = %q", re.Detail)
			}
			if re.Retryable() {
				t.Fatal("queue-full marked retryable")
			}
		}},
		{"reject-draining-retryable", func(c net.Conn) error {
			return SendReject(c, RejectDraining, "")
		}, func(t *testing.T, err error) {
			var re *RejectedError
			if !errors.As(err, &re) || !re.Retryable() {
				t.Fatalf("err = %v, want retryable draining refusal", err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			done := make(chan error, 1)
			go func() { done <- tc.serve(a) }()
			_, err := AwaitAdmissionRouting(b, time.Second)
			tc.check(t, err)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAwaitAdmissionTimesOutOnParkedConnection(t *testing.T) {
	// A server that parks the connection past the dialer's patience is a
	// deadline error, never a hang.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	start := time.Now()
	_, err := AwaitAdmissionRouting(b, 30*time.Millisecond)
	if err == nil || errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want plain deadline error", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline not applied")
	}
}

func TestAcceptWithinTimesOutOnSilentClient(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	start := time.Now()
	if _, err := AcceptHelloWithin(b, 30*time.Millisecond); err == nil {
		t.Fatal("silent client accepted")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline not applied")
	}
	// A prompt client still gets through, and the deadline is cleared.
	done := make(chan error, 1)
	go func() { done <- AnnounceWithin(a, "H", time.Second) }()
	h, err := AcceptHelloWithin(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if h.Name != "H" {
		t.Fatalf("name = %q", h.Name)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestShardedHelloRoundTrip covers the version-2 preamble end to end: the
// control hello (shard -1, wire lane 0) and shard-lane hellos round-trip
// name, session, version and lane through AnnounceSessionShardWithin /
// AcceptHelloWithin.
func TestShardedHelloRoundTrip(t *testing.T) {
	for _, shard := range []int{-1, 0, 3} {
		a, b := net.Pipe()
		done := make(chan error, 1)
		go func() { done <- AnnounceSessionShardWithin(a, "HolderA", "tenant-7", shard, time.Second) }()
		h, err := AcceptHelloWithin(b, time.Second)
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		if h.Name != "HolderA" || h.Session != "tenant-7" || h.Version != VersionSharded {
			t.Fatalf("shard %d: hello = %+v", shard, h)
		}
		if h.Lane != shard+1 {
			t.Fatalf("shard %d: lane = %d, want %d", shard, h.Lane, shard+1)
		}
		if !h.Extended() {
			t.Fatalf("shard %d: sharded hello not marked extended", shard)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		a.Close()
		b.Close()
	}
}

func TestAnnounceSessionShardValidation(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if err := AnnounceSessionShardWithin(a, "H", "s", -2, time.Second); err == nil {
		t.Fatal("shard -2 accepted")
	}
	if err := AnnounceSessionShardWithin(a, "H", "s", MaxShards, time.Second); err == nil {
		t.Fatalf("shard %d accepted", MaxShards)
	}
}

// TestRoutingAdmission: the routing accept carries the session's shard
// count to the holder; rejects come back typed; and an accept cut short of
// its count byte is a descriptive error, never a misparse or a hang.
func TestRoutingAdmission(t *testing.T) {
	serve := func(f func(c net.Conn) error) (net.Conn, chan error) {
		a, b := net.Pipe()
		t.Cleanup(func() { a.Close(); b.Close() })
		done := make(chan error, 1)
		go func() { done <- f(a) }()
		return b, done
	}

	b, done := serve(func(c net.Conn) error { return SendAcceptRouting(c, 4) })
	k, err := AwaitAdmissionRouting(b, time.Second)
	if err != nil || k != 4 {
		t.Fatalf("routing accept: k=%d err=%v, want 4", k, err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	b, done = serve(func(c net.Conn) error { return SendReject(c, RejectVersion, "no") })
	if _, err := AwaitAdmissionRouting(b, time.Second); !errors.Is(err, ErrRejected) {
		t.Fatalf("routing reject: %v, want ErrRejected", err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	b, done = serve(func(c net.Conn) error {
		if _, err := c.Write([]byte{statusAccept}); err != nil {
			return err
		}
		return c.Close()
	})
	if k, err := AwaitAdmissionRouting(b, time.Second); err == nil {
		t.Fatalf("count-less accept parsed as %d shards", k)
	}
	<-done
}

func TestSendAcceptRoutingValidation(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if err := SendAcceptRouting(a, 0); err == nil {
		t.Fatal("0 shards accepted")
	}
	if err := SendAcceptRouting(a, MaxShards+1); err == nil {
		t.Fatalf("%d shards accepted", MaxShards+1)
	}
}

func TestResumeHelloRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		done <- AnnounceResumeWithin(a, "HolderB", "tenant-9", 2, 5, 1234, 99, time.Second)
	}()
	h, err := AcceptHelloWithin(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	want := Hello{Name: "HolderB", Session: "tenant-9", Version: VersionResume,
		Lane: 3, Epoch: 5, Sent: 1234, Recv: 99}
	if h != want {
		t.Fatalf("hello = %+v, want %+v", h, want)
	}
	if !h.Resume() || !h.Extended() {
		t.Fatal("v3 hello must report Resume and Extended")
	}
}

func TestResumeHelloControlLane(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go AnnounceResumeWithin(a, "HolderA", "s", -1, 1, 7, 7, time.Second)
	h, err := AcceptHelloWithin(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if h.Lane != 0 {
		t.Fatalf("control lane = %d, want 0", h.Lane)
	}
}

func TestResumeGrantRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() { done <- SendAcceptResume(a, 4321, 17) }()
	sent, recv, err := AwaitResumeGrant(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if sent != 4321 || recv != 17 {
		t.Fatalf("grant = (%d, %d)", sent, recv)
	}
}

func TestResumeGrantReject(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go SendReject(a, RejectResume, "watermark behind installed rows")
	_, _, err := AwaitResumeGrant(b, time.Second)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	var re *RejectedError
	if !errors.As(err, &re) || re.Code != RejectResume {
		t.Fatalf("err = %v, want RejectResume", err)
	}
	if re.Code.String() != "resume" {
		t.Fatalf("code string = %q", re.Code.String())
	}
	if re.Retryable() {
		t.Fatal("resume reject must not be retryable")
	}
}

// TestFutureVersionPassthrough pins the forward-compat contract: a hello
// claiming a version newer than VersionShardProc is returned intact with
// its claimed version and no extra fields consumed, so the acceptor can
// refuse it (RejectVersion) without this layer guessing at the layout.
func TestFutureVersionPassthrough(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go a.Write([]byte{0xFF, 5, 1, 'H', 1, 's'})
	h, err := AcceptHelloWithin(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != 5 || h.Name != "H" || h.Session != "s" {
		t.Fatalf("hello = %+v", h)
	}
	if h.Resume() || h.ShardRegistration() {
		t.Fatal("future version must not classify as resume or registration")
	}
}

// TestShardRegistrationRoundTrip covers the version-4 preamble: the
// coordinator's shard-registration hello round-trips name, session, shard
// lane, epoch and watermarks through AnnounceShardRegistrationWithin /
// AcceptHelloWithin, and classifies as a registration (never a holder resume).
func TestShardRegistrationRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		done <- AnnounceShardRegistrationWithin(a, "TP", "tenant-3", 2, 7, 41, 8, time.Second)
	}()
	h, err := AcceptHelloWithin(b, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	want := Hello{Name: "TP", Session: "tenant-3", Version: VersionShardProc,
		Lane: 3, Epoch: 7, Sent: 41, Recv: 8}
	if h != want {
		t.Fatalf("hello = %+v, want %+v", h, want)
	}
	if !h.ShardRegistration() || !h.Extended() {
		t.Fatal("v4 hello must report ShardRegistration and Extended")
	}
	if h.Resume() {
		t.Fatal("v4 hello must not classify as a holder resume")
	}
}

func TestAnnounceShardRegistrationValidation(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if err := AnnounceShardRegistrationWithin(a, "TP", "s", -1, 0, 0, 0, time.Second); err == nil {
		t.Fatal("shard -1 accepted (workers have no control lane)")
	}
	if err := AnnounceShardRegistrationWithin(a, "TP", "s", MaxShards, 0, 0, 0, time.Second); err == nil {
		t.Fatalf("shard %d accepted", MaxShards)
	}
	if err := AnnounceShardRegistrationWithin(a, "", "s", 0, 0, 0, 0, time.Second); err == nil {
		t.Fatal("empty name accepted")
	}
}
