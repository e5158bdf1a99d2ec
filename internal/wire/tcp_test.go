package wire

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"
)

// tcpPair returns two connected TCP conduit ends plus the raw client conn
// for byte-level injection.
func tcpPair(t *testing.T) (server Conduit, client net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			accepted <- conn
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	t.Cleanup(func() { conn.Close(); srv.Close() })
	return TCPPooled(srv), conn
}

// TestTCPTruncatedFrameIsErrClosed: a peer that dies mid-frame (header
// promises more bytes than ever arrive) must surface ErrClosed, not a raw
// io.ErrUnexpectedEOF.
func TestTCPTruncatedFrameIsErrClosed(t *testing.T) {
	server, client := tcpPair(t)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1000)
	if _, err := client.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte("only a fragment")); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if _, err := server.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("truncated body: want ErrClosed, got %v", err)
	}
}

// TestTCPTruncatedHeaderIsErrClosed: dying inside the 4-byte header is the
// same condition.
func TestTCPTruncatedHeaderIsErrClosed(t *testing.T) {
	server, client := tcpPair(t)
	if _, err := client.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if _, err := server.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("truncated header: want ErrClosed, got %v", err)
	}
}

// TestTCPLocalCloseRace: Close racing a blocked Recv, and Send after
// Close, must both report ErrClosed rather than raw net errors.
func TestTCPLocalCloseRace(t *testing.T) {
	server, client := tcpPair(t)
	defer client.Close()

	recvErr := make(chan error, 1)
	go func() {
		_, err := server.Recv()
		recvErr <- err
	}()
	// Give Recv a moment to block on the socket before closing under it.
	time.Sleep(10 * time.Millisecond)
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv racing Close: want ErrClosed, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not return after Close")
	}
	if err := server.Send([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close: want ErrClosed, got %v", err)
	}
}

// TestTCPVectoredFrameRoundTrip pins the writev framing: frames of several
// sizes (including empty) survive the header+body Buffers write intact.
func TestTCPVectoredFrameRoundTrip(t *testing.T) {
	server, client := tcpPair(t)
	c := TCPPooled(client)
	sizes := []int{0, 1, 5, 4096, 100_000}
	go func() {
		for _, n := range sizes {
			frame := make([]byte, n)
			for i := range frame {
				frame[i] = byte(i)
			}
			if err := c.Send(frame); err != nil {
				return
			}
		}
	}()
	for _, n := range sizes {
		got, err := server.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("frame size %d arrived as %d", n, len(got))
		}
		for i := range got {
			if got[i] != byte(i) {
				t.Fatalf("frame size %d corrupt at byte %d", n, i)
			}
		}
	}
}

// TestLinkJitterIsSeeded: a link charges every frame at least its base
// delay, and two links with the same seed draw the same jitter schedule.
func TestLinkJitterIsSeeded(t *testing.T) {
	a, b := Pipe()
	link := Link(b, 5*time.Millisecond, 0, 0, 1)
	defer link.Close()
	start := time.Now()
	if err := a.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Recv(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("frame delivered after %v, want >= 5ms", d)
	}

	// Nothing is sent on these, so their pumps never draw: the test is the
	// jitter stream's only reader.
	_, b1 := Pipe()
	_, b2 := Pipe()
	j1, j2 := Link(b1, 0, time.Second, 0, 42).(*linkConduit), Link(b2, 0, time.Second, 0, 42).(*linkConduit)
	defer j1.Close()
	defer j2.Close()
	for i := 0; i < 8; i++ {
		d1, d2 := j1.delay(), j2.delay()
		if d1 != d2 {
			t.Fatalf("jitter draw %d diverged: %v vs %v", i, d1, d2)
		}
		if d1 < 0 || d1 >= time.Second {
			t.Fatalf("jitter draw %d out of range: %v", i, d1)
		}
	}
}
