package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"ppclust/internal/alloccheck"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	want := []byte("hello")
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q", got)
	}
}

func TestPipeIsCopying(t *testing.T) {
	a, b := Pipe()
	buf := []byte("mutate-me")
	if err := a.Send(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	got, _ := b.Recv()
	if string(got) != "mutate-me" {
		t.Fatalf("send did not copy: %q", got)
	}
}

// TestPipeSendOwnedHandsFrameOver: SendOwned queues the frame itself, in
// order with copied frames; a Meter forwards the hand-over (and counts it),
// while a conduit that does not take ownership — a Tap — sends a copy.
func TestPipeSendOwnedHandsFrameOver(t *testing.T) {
	a, b := Pipe()
	owned := []byte("handed over")
	if !TakesOwned(a) {
		t.Fatal("a pipe end does not take ownership")
	}
	if err := a.Send([]byte("copied")); err != nil {
		t.Fatal(err)
	}
	if err := SendOwned(a, owned); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Recv(); string(got) != "copied" {
		t.Fatalf("first frame %q", got)
	}
	got, _ := b.Recv()
	if &got[0] != &owned[0] {
		t.Fatal("SendOwned queued a copy")
	}
	var ctr Counter
	m := Meter(a, &ctr)
	if !TakesOwned(m) {
		t.Fatal("a Meter hides its pipe's hand-over")
	}
	if err := SendOwned(m, owned); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Recv(); &got[0] != &owned[0] {
		t.Fatalf("SendOwned through a Meter queued a copy: %q", got)
	}
	if n, frames := ctr.Sent(); n != uint64(len(owned)) || frames != 1 {
		t.Fatalf("the meter counted %d bytes in %d frames", n, frames)
	}
	tapped := Tap(a, func(string, []byte) {})
	if TakesOwned(tapped) {
		t.Fatal("a Tap claims to take ownership")
	}
	if err := SendOwned(tapped, owned); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.Recv(); string(got) != "handed over" || &got[0] == &owned[0] {
		t.Fatalf("SendOwned through a Tap: %q, not a copy of its own", got)
	}
	a.Close()
	if err := SendOwned(a, owned); !errors.Is(err, ErrClosed) {
		t.Fatalf("SendOwned on a closed pipe: %v", err)
	}
}

func TestPipeOrderingAndBuffering(t *testing.T) {
	a, b := Pipe()
	const n = 1000
	for i := 0; i < n; i++ {
		if err := a.Send([]byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		f, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if int(f[0])|int(f[1])<<8 != i {
			t.Fatalf("frame %d out of order", i)
		}
	}
}

func TestPipeCloseSemantics(t *testing.T) {
	a, b := Pipe()
	if err := a.Send([]byte("last")); err != nil {
		t.Fatal(err)
	}
	a.Close()
	if _, err := b.Recv(); err != nil {
		t.Fatalf("queued frame lost after close: %v", err)
	}
	if _, err := b.Recv(); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := b.Send([]byte("x")); err != ErrClosed {
		t.Fatalf("send on closed pipe: %v", err)
	}
}

func TestPipeConcurrent(t *testing.T) {
	a, b := Pipe()
	const n = 500
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := a.Send([]byte{1}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	got := 0
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if _, err := b.Recv(); err != nil {
				t.Error(err)
				return
			}
			got++
		}
	}()
	wg.Wait()
	if got != n {
		t.Fatalf("received %d of %d", got, n)
	}
}

func TestMeterCountsBothDirections(t *testing.T) {
	a, b := Pipe()
	var ca, cb Counter
	ma, mb := Meter(a, &ca), Meter(b, &cb)
	ma.Send(make([]byte, 100))
	mb.Recv()
	mb.Send(make([]byte, 7))
	ma.Recv()
	if bytes1, frames := ca.Sent(); bytes1 != 100 || frames != 1 {
		t.Fatalf("ca sent = %d/%d", bytes1, frames)
	}
	if bytes1, frames := ca.Received(); bytes1 != 7 || frames != 1 {
		t.Fatalf("ca recv = %d/%d", bytes1, frames)
	}
	if bytes1, _ := cb.Received(); bytes1 != 100 {
		t.Fatalf("cb recv = %d", bytes1)
	}
	ca.Reset()
	if bytes1, frames := ca.Sent(); bytes1 != 0 || frames != 0 {
		t.Fatal("Reset did not zero counters")
	}
	if (&ca).String() == "" {
		t.Fatal("empty Counter.String")
	}
}

func TestTapObservesFrames(t *testing.T) {
	a, b := Pipe()
	var seen [][]byte
	ta := Tap(a, func(dir string, frame []byte) {
		cp := append([]byte(nil), frame...)
		seen = append(seen, append([]byte(dir+":"), cp...))
	})
	ta.Send([]byte("out"))
	b.Send([]byte("in"))
	ta.Recv()
	if len(seen) != 2 {
		t.Fatalf("tap saw %d frames", len(seen))
	}
	if string(seen[0]) != "send:out" || string(seen[1]) != "recv:in" {
		t.Fatalf("tap contents: %q %q", seen[0], seen[1])
	}
}

func TestSecureRoundTripAndOpacity(t *testing.T) {
	a, b := Pipe()
	var key [32]byte
	key[5] = 9
	var observed [][]byte
	tapped := Tap(a, func(dir string, frame []byte) {
		observed = append(observed, append([]byte(nil), frame...))
	})
	sa, err := Secure(tapped, key, true)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Secure(b, key, false)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("x = 42 is private")
	if err := sa.Send(secret); err != nil {
		t.Fatal(err)
	}
	got, err := sb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("secure round trip: %q", got)
	}
	if len(observed) != 1 {
		t.Fatalf("tap saw %d frames", len(observed))
	}
	if bytes.Contains(observed[0], secret) || bytes.Contains(observed[0], []byte("42")) {
		t.Fatal("plaintext visible on the wire under Secure")
	}
	// Reply direction.
	if err := sb.Send([]byte("ack")); err != nil {
		t.Fatal(err)
	}
	if got, _ := sa.Recv(); string(got) != "ack" {
		t.Fatalf("reply = %q", got)
	}
}

func TestSecureRejectsWrongKeyAndTampering(t *testing.T) {
	a, b := Pipe()
	var k1, k2 [32]byte
	k1[0], k2[0] = 1, 2
	sa, _ := Secure(a, k1, true)
	sb, _ := Secure(b, k2, false)
	sa.Send([]byte("payload"))
	if _, err := sb.Recv(); err == nil {
		t.Fatal("wrong key accepted")
	}

	// Tampering: flip a ciphertext bit in transit.
	c, d := Pipe()
	sc, _ := Secure(&flipper{c}, k1, true)
	sd, _ := Secure(d, k1, false)
	sc.Send([]byte("payload"))
	if _, err := sd.Recv(); err == nil {
		t.Fatal("tampered frame accepted")
	}
}

// flipper corrupts the last byte of every outgoing frame.
type flipper struct{ Conduit }

func (f *flipper) Send(frame []byte) error {
	cp := append([]byte(nil), frame...)
	cp[len(cp)-1] ^= 1
	return f.Conduit.Send(cp)
}

func TestSecureDetectsReplayViaSequence(t *testing.T) {
	a, b := Pipe()
	var key [32]byte
	var frames [][]byte
	ta := Tap(a, func(dir string, fr []byte) {
		if dir == "send" {
			frames = append(frames, append([]byte(nil), fr...))
		}
	})
	sa, _ := Secure(ta, key, true)
	sb, _ := Secure(b, key, false)
	sa.Send([]byte("one"))
	sb.Recv()
	// Replay the captured frame: receiver's sequence has advanced, so the
	// nonce no longer matches and authentication fails.
	b2 := b // raw end: inject the replayed ciphertext
	_ = b2
	a.Send(frames[0])
	if _, err := sb.Recv(); err == nil {
		t.Fatal("replayed frame accepted")
	}
}

func TestSecureMisconfiguredDirections(t *testing.T) {
	// Both endpoints claiming the initiator role puts their nonce spaces
	// in collision course: the receiver opens with the wrong direction
	// byte and authentication must fail rather than silently decrypt.
	a, b := Pipe()
	var key [32]byte
	sa, _ := Secure(a, key, true)
	sb, _ := Secure(b, key, true)
	sa.Send([]byte("misconfigured"))
	if _, err := sb.Recv(); err == nil {
		t.Fatal("both-initiator configuration accepted")
	}
}

func TestMessageEndpointRoundTrip(t *testing.T) {
	a, b := Pipe()
	ea, eb := NewEndpoint(a), NewEndpoint(b)
	type body struct {
		Values []int64
		Note   string
	}
	in := body{Values: []int64{1, -2, 3}, Note: "hi"}
	err := ea.SendBody(Message{From: "A", To: "TP", Kind: "test/body", Attr: 2}, in)
	if err != nil {
		t.Fatal(err)
	}
	var out body
	m, err := eb.Expect("test/body", &out)
	if err != nil {
		t.Fatal(err)
	}
	if m.From != "A" || m.To != "TP" || m.Attr != 2 {
		t.Fatalf("envelope corrupted: %+v", m)
	}
	if out.Note != in.Note || len(out.Values) != 3 || out.Values[1] != -2 {
		t.Fatalf("body corrupted: %+v", out)
	}
}

func TestExpectKindMismatch(t *testing.T) {
	a, b := Pipe()
	ea, eb := NewEndpoint(a), NewEndpoint(b)
	if err := ea.SendBody(Message{Kind: "kind/a"}, struct{}{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eb.Expect("kind/b", nil); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

func TestTCPConduit(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		c := TCPPooled(conn)
		defer c.Close()
		f, err := c.Recv()
		if err != nil {
			done <- err
			return
		}
		done <- c.Send(append([]byte("echo:"), f...))
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := TCPPooled(conn)
	defer c.Close()
	if err := c.Send([]byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "echo:over tcp" {
		t.Fatalf("got %q", got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTCPCloseYieldsErrClosed(t *testing.T) {
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
	server := <-accepted
	server.Close()
	c := TCPPooled(conn)
	if _, err := c.Recv(); err != ErrClosed {
		t.Fatalf("want ErrClosed after peer close, got %v", err)
	}
}

func TestTCPSecureStack(t *testing.T) {
	// Full production stack: TCP + Secure + Endpoint + Meter.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var key [32]byte
	key[1] = 7

	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		sc, err := Secure(TCPPooled(conn), key, false)
		if err != nil {
			done <- err
			return
		}
		ep := NewEndpoint(sc)
		defer ep.Close()
		var v []int64
		if _, err := ep.Expect("stack/test", &v); err != nil {
			done <- err
			return
		}
		done <- ep.SendBody(Message{Kind: "stack/reply"}, len(v))
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	var ctr Counter
	sc, err := Secure(Meter(TCPPooled(conn), &ctr), key, true)
	if err != nil {
		t.Fatal(err)
	}
	ep := NewEndpoint(sc)
	defer ep.Close()
	if err := ep.SendBody(Message{Kind: "stack/test"}, []int64{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	var n int
	if _, err := ep.Expect("stack/reply", &n); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("reply = %d", n)
	}
	if b, _ := ctr.Sent(); b == 0 {
		t.Fatal("meter did not count TCP bytes")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSendOversizeFrameRejected: an oversized frame must fail locally with
// ErrFrameTooLarge — before any bytes reach the peer — and leave the
// conduit usable for correctly-sized frames afterwards.
func TestSendOversizeFrameRejected(t *testing.T) {
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	defer ln.Close()
	echoed := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		c := TCPPooled(conn)
		f, err := c.Recv()
		if err != nil {
			return
		}
		echoed <- f
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := TCPPooled(conn)
	defer c.Close()
	if err := c.Send(make([]byte, MaxFrame+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize frame: want ErrFrameTooLarge, got %v", err)
	}
	// The rejection wrote nothing, so the connection survives: the next
	// well-sized frame goes through intact.
	if err := c.Send([]byte("still alive")); err != nil {
		t.Fatalf("conduit unusable after oversize rejection: %v", err)
	}
	select {
	case f := <-echoed:
		if string(f) != "still alive" {
			t.Fatalf("frame after rejection corrupted: %q", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame after rejection never arrived")
	}
}

// TestSecureOversizeFrameRejected: Secure must guard against payloads whose
// sealed form would exceed MaxFrame before sealing — including payloads
// that only exceed it because of the AEAD overhead.
func TestSecureOversizeFrameRejected(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	var key [32]byte
	sa, err := Secure(a, key, true)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly MaxFrame of payload is oversized once the GCM tag is added.
	if err := sa.Send(make([]byte, MaxFrame)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize secure frame: want ErrFrameTooLarge, got %v", err)
	}
	// The sequence number must not have advanced on the failed send, or the
	// peer would desynchronize: the next frame still authenticates.
	sb, err := Secure(b, key, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Send([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if got, err := sb.Recv(); err != nil || string(got) != "ok" {
		t.Fatalf("frame after rejection: %q, %v", got, err)
	}
}

// TestTCPPooledRecvReusesBuffer pins the pooled variant's contract: frames
// round-trip intact, each in a buffer the conduit hands over (it vouches),
// and a receiver that releases every frame it is done with makes no
// allocation per frame in steady state — the released buffer comes back
// for the next one.
func TestTCPPooledRecvReusesBuffer(t *testing.T) {
	receiver, conn := tcpPair(t)
	const frames, size = 300, 1000
	// The whole stream is framed up front and written in one call, so the
	// sender allocates nothing while the receiver is measured.
	stream := make([]byte, 0, frames*(4+size))
	for i := 0; i < frames; i++ {
		stream = binary.BigEndian.AppendUint32(stream, size)
		stream = append(stream, bytes.Repeat([]byte{byte(i)}, size)...)
	}
	go conn.Write(stream)
	next := 0
	recv := func() {
		f, err := receiver.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if !RecvOwned(receiver) {
			t.Fatal("pooled TCP does not vouch for its frames")
		}
		if len(f) != size || f[0] != byte(next) || f[size-1] != byte(next) {
			t.Fatalf("frame %d arrived as %d bytes starting %d", next, len(f), f[0])
		}
		next++
		Release(f)
	}
	recv()
	first, err := receiver.Recv()
	if err != nil {
		t.Fatal(err)
	}
	second, err := receiver.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if &first[0] == &second[0] || first[0] != 1 || second[0] != 2 {
		t.Fatal("a frame kept past the next Recv was overwritten")
	}
	next = 3
	Release(first)
	Release(second)
	allocs := testing.AllocsPerRun(200, recv)
	if raceEnabled {
		t.Logf("%.2f allocs per frame (not asserted under the race detector)", allocs)
	} else if allocs != 0 {
		t.Fatalf("Recv+Release allocates %.2f times per frame, want 0", allocs)
	}
}

// TestTCPLengthPrefixBoundsAllocation: a length prefix alone costs the
// receiver at most the pool's largest buffer, whatever it claims. A peer
// that promises 200 MiB, sends 18 bytes and hangs up makes Recv allocate
// a few MiB, not the claim; a real frame larger than the pool's buffers
// still round-trips, grown as its bytes arrive.
func TestTCPLengthPrefixBoundsAllocation(t *testing.T) {
	server, client := tcpPair(t)
	var claim [4]byte
	binary.BigEndian.PutUint32(claim[:], 200<<20)
	if _, err := client.Write(append(claim[:], "eighteen bytes, no"...)); err != nil {
		t.Fatal(err)
	}
	client.Close()
	var err error
	// The claim can be received once: one reading.
	grew, _ := alloccheck.Least(1, func() { _, err = server.Recv() })
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("truncated 200 MiB claim: want ErrClosed, got %v", err)
	}
	if grew >= 4<<20 {
		t.Fatalf("a 200 MiB claim with 18 bytes behind it allocated %.1f MiB", float64(grew)/(1<<20))
	}

	server, client = tcpPair(t)
	big := make([]byte, 3<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	go TCPPooled(client).Send(big)
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, big) {
		t.Fatal("a 3 MiB frame did not round-trip")
	}
}

// TestReleaseZeroesBuffer: Release hands back a buffer zeroed over its
// whole capacity, not just its length, since the next owner may belong to
// another session; a frame that starts a little into a pooled buffer — a
// relayed holder frame inside a worker's ppc/shard-frame — goes back to its
// buffer's own size class; an Endpoint puts the buffer it built a frame in
// back without the plaintext; and an Endpoint's Release gives back the
// frame a received Message aliases.
func TestReleaseZeroesBuffer(t *testing.T) {
	b := getFrame(3000)
	full := b[:cap(b)]
	for i := range full {
		full[i] = 0xA5
	}
	Release(b[:10])
	for i, v := range full {
		if v != 0 {
			t.Fatalf("byte %d of %d is %#x after Release", i, len(full), v)
		}
	}

	for k := 0; k <= maxPooledBits-minPooledBits; k++ {
		n := 1 << (minPooledBits + k)
		c := cap(getFrame(n))
		if got, ok := putClass(c); !ok || got != k {
			t.Fatalf("a %d-byte class buffer (cap %d) goes back to class %d (%v)", n, c, got, ok)
		}
		if got, ok := putClass(c - 200); !ok || got != k {
			t.Fatalf("a frame 200 bytes into a %d-byte class buffer goes back to class %d (%v)", n, got, ok)
		}
		if got, ok := putClass(n - 1); ok && got == k {
			t.Fatalf("a buffer of %d bytes would serve class %d", n-1, k)
		}
	}
	if _, ok := putClass(maxRetainedBuf + poolHeadroom + 1); ok {
		t.Fatal("the pool would keep a buffer above maxRetainedBuf")
	}

	if !raceEnabled {
		// One P and no collection in between: the pool hands the buffer
		// back at once.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		b := getFrame(4000)
		sub := b[40:]
		Release(sub)
		if again := getFrame(4000); &again[0] != &sub[0] {
			t.Fatal("a released sub-slice did not serve the next request of its class")
		}

		// An Endpoint puts the buffer it built a frame in back without
		// the frame's plaintext.
		a, c := Pipe()
		secret := bytes.Repeat([]byte("plaintext "), 60)
		built := int(max(frameHint.Load(), 1000)) // the size SendBody builds in
		frameHint.Store(int64(built))
		if err := NewEndpoint(Tap(a, func(string, []byte) {})).Send(&Message{Kind: "k", Payload: secret}); err != nil {
			t.Fatal(err)
		}
		if f, _ := c.Recv(); !bytes.Contains(f, secret) {
			t.Fatal("the frame did not arrive")
		}
		if back := getFrame(built); bytes.Contains(back[:cap(back)], []byte("plaintext")) {
			t.Fatal("Endpoint.SendBody put its buffer back with the frame's plaintext in it")
		}
	}

	a, c := Pipe()
	ea, ec := NewEndpoint(a), NewEndpoint(c)
	if err := ea.Send(&Message{From: "A", To: "B", Kind: "k", Payload: bytes.Repeat([]byte{7}, 600)}); err != nil {
		t.Fatal(err)
	}
	m, err := ec.Recv()
	if err != nil {
		t.Fatal(err)
	}
	payload := m.Payload[:cap(m.Payload)]
	ec.Release(m)
	if m.Payload != nil || bytes.IndexByte(payload, 7) >= 0 {
		t.Fatal("Endpoint.Release left the payload reachable or unzeroed")
	}
}

// TestSecureSendSteadyStateAllocFree: a secured frame costs no allocation
// once the pool is warm — sealed into a pooled buffer, over TCP written and
// put back, over a pipe handed to the receiver, opened in place and
// released by it.
func TestSecureSendSteadyStateAllocFree(t *testing.T) {
	var key [32]byte
	key[3] = 46
	frame := bytes.Repeat([]byte("cells"), 400)
	tcpServer, tcpClient := tcpPair(t)
	pa, pb := Pipe()
	for name, ends := range map[string][2]Conduit{
		"pooled TCP": {TCPPooled(tcpClient), tcpServer},
		"pipe":       {pa, pb},
	} {
		sa, _ := Secure(ends[0], key, true)
		sb, _ := Secure(ends[1], key, false)
		round := func() {
			if err := sa.Send(frame); err != nil {
				t.Fatal(err)
			}
			got, err := sb.Recv()
			if err != nil || !bytes.Equal(got, frame) {
				t.Fatalf("%s: %q, %v", name, got, err)
			}
			Release(got)
		}
		round()
		allocs := testing.AllocsPerRun(200, round)
		if raceEnabled {
			t.Logf("%s: %.2f allocs per frame (not asserted under the race detector)", name, allocs)
		} else if allocs != 0 {
			t.Errorf("%s: Send+Recv+Release allocates %.2f times per frame, want 0", name, allocs)
		}
	}
}

// TestMeterTapSendPathAllocFree: the metered and tapped wrappers must add
// zero copies and zero allocations to a send — the in-memory pipe's single
// defensive copy on push is the whole cost of the instrumented path.
func TestMeterTapSendPathAllocFree(t *testing.T) {
	frame := make([]byte, 1024)
	measure := func(send Conduit, recv Conduit) float64 {
		// Warm the queue's backing array so steady-state cost is measured.
		send.Send(frame)
		recv.Recv()
		return testing.AllocsPerRun(200, func() {
			if err := send.Send(frame); err != nil {
				t.Fatal(err)
			}
			if _, err := recv.Recv(); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := Pipe()
	bare := measure(a, b)

	c, d := Pipe()
	var ctr Counter
	wrapped := Meter(Tap(c, func(string, []byte) {}), &ctr)
	instrumented := measure(wrapped, d)

	if bare > 1 {
		t.Fatalf("bare pipe send+recv costs %.1f allocs/op, want the single push copy", bare)
	}
	if instrumented != bare {
		t.Fatalf("meter+tap send path costs %.1f allocs/op, bare pipe %.1f — wrappers must add none",
			instrumented, bare)
	}
	if b, frames := ctr.Sent(); b == 0 || frames == 0 {
		t.Fatal("meter did not count")
	}
}

// TestPipeSendRacingCloseNeverEnqueues: the pipe copies a frame before it
// takes the queue lock, so the closed check now comes after the copy — a
// Send that loses the race with Close must still report ErrClosed, and what
// it copied must not turn up at the receiver.
func TestPipeSendRacingCloseNeverEnqueues(t *testing.T) {
	for round := 0; round < 50; round++ {
		a, b := Pipe()
		const senders = 4
		accepted := make([][]uint32, senders)
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				frame := make([]byte, 4096)
				for i := uint32(0); ; i++ {
					binary.BigEndian.PutUint32(frame, uint32(s)<<24|i)
					if err := a.Send(frame); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("send racing close: %v", err)
						}
						return
					}
					accepted[s] = append(accepted[s], i)
				}
			}()
		}
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		a.Close()
		wg.Wait()
		if err := a.Send([]byte("late")); !errors.Is(err, ErrClosed) {
			t.Fatalf("send after close: %v", err)
		}
		next := make([]int, senders)
		for {
			f, err := b.Recv()
			if err != nil {
				break
			}
			id := binary.BigEndian.Uint32(f)
			s, i := id>>24, id&0xFFFFFF
			if next[s] >= len(accepted[s]) || accepted[s][next[s]] != i {
				t.Fatalf("round %d: sender %d's frame %d was queued though its Send did not succeed", round, s, i)
			}
			next[s]++
		}
		for s := range next {
			if next[s] != len(accepted[s]) {
				t.Fatalf("round %d: sender %d had %d sends accepted, %d delivered", round, s, len(accepted[s]), next[s])
			}
		}
	}
}

// spy records the last frame the conduit under it returned, and forwards
// that conduit's ownership vouch.
type spy struct {
	Conduit
	last []byte
}

func (s *spy) Recv() ([]byte, error) {
	f, err := s.Conduit.Recv()
	s.last = f
	return f, err
}

func (s *spy) RecvOwned() bool { return RecvOwned(s.Conduit) }

// tape is a conduit from outside the vouching set that replays kept frames
// — the shape of the benchmark's replayer, which opens the same ciphertext
// again and again.
type tape struct {
	frames [][]byte
	next   int
}

func (p *tape) Send([]byte) error { return nil }
func (p *tape) Close() error      { return nil }
func (p *tape) Recv() ([]byte, error) {
	if p.next == len(p.frames) {
		return nil, ErrClosed
	}
	p.next++
	return p.frames[p.next-1], nil
}

// TestSecureOpensInPlaceOnlyWhenVouched pins both halves of the ownership
// rule. Over a pipe — bare, and under every pass-through decorator at once —
// and over pooled TCP, which reads every frame into a buffer of its own,
// the plaintext Secure returns lies in the received frame itself, and an
// Endpoint above a Reconn aliases it too. Over anything that does not vouch
// — a foreign replayer, a tap, a fault injector — the sealed bytes are as
// they arrived after Recv, so whoever else holds them can open them again.
// A frame that fails authentication, over a pipe or over TCP, yields
// nothing and leaves no plaintext in the buffer it arrived in.
func TestSecureOpensInPlaceOnlyWhenVouched(t *testing.T) {
	var key [32]byte
	key[7] = 27
	msg := &Message{From: "A", To: "TP", Kind: "test/kind", Attr: 3, Payload: bytes.Repeat([]byte("cells "), 100)}
	pipe := func() (Conduit, Conduit) { return Pipe() }
	tcp := func() (Conduit, Conduit) {
		server, client := tcpPair(t)
		return TCPPooled(client), server
	}

	for name, link := range map[string]func() (Conduit, Conduit){
		"bare pipe": pipe,
		"meter+link+reconn": func() (Conduit, Conduit) {
			a, b := Pipe()
			return a, NewReconn(Meter(Link(b, 0, 0, 0, 1), &Counter{}), time.Second)
		},
		"pooled TCP": tcp,
	} {
		a, b := link()
		under := &spy{Conduit: b}
		sa, _ := Secure(a, key, true)
		sb, _ := Secure(under, key, false)
		ea, eb := NewEndpoint(sa), NewEndpoint(NewReconn(sb, time.Second))
		if err := ea.Send(msg); err != nil {
			t.Fatal(err)
		}
		got, err := eb.Recv()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !RecvOwned(under) {
			t.Fatalf("%s: the vouch was not forwarded", name)
		}
		if !bytes.Equal(got.Payload, msg.Payload) {
			t.Fatalf("%s: payload %q", name, got.Payload)
		}
		// sealed = header | payload | tag, opened over itself.
		if hdr := len(under.last) - 16 - len(got.Payload); &got.Payload[0] != &under.last[hdr] {
			t.Errorf("%s: the payload does not alias the received frame", name)
		}
		a.Close()
	}

	// Sealed frames as a sender put them on the wire.
	var sealed [][]byte
	rec, _ := Pipe()
	ss, _ := Secure(Tap(rec, func(_ string, f []byte) { sealed = append(sealed, bytes.Clone(f)) }), key, true)
	for i := 0; i < 3; i++ {
		if err := ss.Send(fmt.Appendf(nil, "frame %d of the kept session", i)); err != nil {
			t.Fatal(err)
		}
	}
	openAll := func(name string, c Conduit, n int) {
		t.Helper()
		if RecvOwned(c) {
			t.Fatalf("%s vouches for its frames", name)
		}
		sc, _ := Secure(c, key, false)
		for i := 0; i < n; i++ {
			if got, err := sc.Recv(); err != nil || string(got) != fmt.Sprintf("frame %d of the kept session", i) {
				t.Fatalf("%s, frame %d: %q, %v", name, i, got, err)
			}
		}
	}
	kept := make([][]byte, len(sealed))
	for i := range sealed {
		kept[i] = bytes.Clone(sealed[i])
	}
	unchanged := func(what string) {
		t.Helper()
		for i := range kept {
			if !bytes.Equal(kept[i], sealed[i]) {
				t.Fatalf("%s: opening wrote the replayer's frame %d", what, i)
			}
		}
	}
	for pass := 0; pass < 2; pass++ { // the second reader finds what the first did
		openAll("replaying conduit", &tape{frames: kept}, len(kept))
		unchanged(fmt.Sprintf("pass %d", pass))
	}
	openAll("fault injector", Fault(&tape{frames: kept}, FaultSpec{Kind: FaultStall, Frame: 1}), len(kept))
	unchanged("fault injector")
	var tapped []byte // a tap may still be reading the frame it was shown
	openAll("tap", Tap(&tape{frames: kept[:1]}, func(_ string, f []byte) { tapped = f }), 1)
	if !bytes.Equal(tapped, sealed[0]) {
		t.Fatal("opening wrote a frame a tap had been handed")
	}
	if RecvOwned(Meter(&tape{}, &Counter{})) {
		t.Fatal("a meter vouches for a conduit that does not")
	}

	for name, link := range map[string]func() (Conduit, Conduit){"pipe": pipe, "pooled TCP": tcp} {
		c, d := link()
		sc, _ := Secure(&flipper{c}, key, true)
		owned := &spy{Conduit: d}
		sd, _ := Secure(owned, key, false)
		if err := sc.Send([]byte("payload")); err != nil {
			t.Fatal(err)
		}
		if got, err := sd.Recv(); err == nil || got != nil {
			t.Fatalf("%s: corrupted owned frame: %q, %v", name, got, err)
		}
		if !RecvOwned(owned) {
			t.Fatalf("%s does not vouch", name)
		}
		if bytes.Contains(owned.last, []byte("payload")) {
			t.Fatalf("%s: a frame that failed authentication holds plaintext", name)
		}
		c.Close()
	}
}

// everyOther replays kept frames and vouches for the even-numbered ones —
// what a Reconn resumed onto a conduit of another kind looks like from above.
type everyOther struct{ tape }

func (p *everyOther) RecvOwned() bool { return p.next%2 == 1 }

// TestLinkVouchesForTheDeliveredFrame: the link's pump reads ahead of
// delivery, so the vouch is kept beside each queued frame — the answer after
// a Recv is about the frame it returned, not the last one the pump read.
func TestLinkVouchesForTheDeliveredFrame(t *testing.T) {
	inner := &everyOther{tape{frames: [][]byte{{0}, {1}, {2}, {3}}}}
	link := Link(inner, 30*time.Millisecond, 0, 0, 1) // all four are read before the first is due
	defer link.Close()
	for i := range inner.frames {
		f, err := link.Recv()
		if err != nil || int(f[0]) != i {
			t.Fatalf("frame %d: %v, %v", i, f, err)
		}
		if got, want := RecvOwned(link), i%2 == 0; got != want {
			t.Errorf("frame %d: vouch %v, want %v", i, got, want)
		}
	}
}

// TestLinkDeliversInOrderThroughBottleneck: the store-and-forward link must
// preserve order and content, serialize transfer through the bandwidth
// bottleneck (many frames take at least size/bw in aggregate), not charge
// the propagation delay once per frame, and pass the inner conduit's
// terminal error through once the frames are drained.
func TestLinkDeliversInOrderThroughBottleneck(t *testing.T) {
	a, b := Pipe()
	const frames, frameLen = 16, 4096
	// 1 MiB/s: 16 × 4 KiB must take at least ~62ms of transfer, while the
	// 20ms propagation delay overlaps across frames and is paid once-ish.
	link := Link(b, 20*time.Millisecond, 0, 1<<20, 1)
	for i := 0; i < frames; i++ {
		f := make([]byte, frameLen)
		f[0] = byte(i)
		if err := a.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	for i := 0; i < frames; i++ {
		f, err := link.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(f) != frameLen || f[0] != byte(i) {
			t.Fatalf("frame %d corrupted or reordered", i)
		}
	}
	elapsed := time.Since(start)
	transfer := time.Duration(frames*frameLen) * time.Second / (1 << 20)
	if elapsed < transfer {
		t.Fatalf("delivered %v of frames in %v, bottleneck requires >= %v", frames, elapsed, transfer)
	}
	// A per-frame sleep would charge 16 × 20ms of propagation serially; the
	// pipelined link must come in well under that.
	if serialProp := frames * 20 * time.Millisecond; elapsed >= transfer+serialProp {
		t.Fatalf("propagation appears serialized: %v elapsed for %v transfer", elapsed, transfer)
	}
	a.Close()
	if _, err := link.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed after close, got %v", err)
	}
}

func BenchmarkPipeRoundTrip(b *testing.B) {
	a, p := Pipe()
	frame := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Send(frame)
		f, _ := p.Recv()
		Release(f)
	}
}

func BenchmarkSecureSeal1KiB(b *testing.B) {
	a, p := Pipe()
	var key [32]byte
	sa, _ := Secure(a, key, true)
	go func() {
		for {
			f, err := p.Recv()
			if err != nil {
				return
			}
			Release(f)
		}
	}()
	frame := make([]byte, 1024)
	b.ReportAllocs()
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		if err := sa.Send(frame); err != nil {
			b.Fatal(err)
		}
	}
	a.Close()
}

func ExampleCounter() {
	a, b := Pipe()
	var ctr Counter
	m := Meter(a, &ctr)
	m.Send([]byte("12345"))
	b.Recv()
	fmt.Println(ctr.String())
	// Output: sent 5 B in 1 frames, received 0 B in 0 frames
}
