package wire

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ppclust/internal/leakcheck"
)

// reconnPair wires two Reconns over an in-memory pipe, as a session would
// layer them over each end of a transport.
func reconnPair(window time.Duration) (a, b *Reconn, rawA, rawB Conduit) {
	rawA, rawB = Pipe()
	return NewReconn(rawA, window), NewReconn(rawB, window), rawA, rawB
}

func TestReconnTransparentAndCounting(t *testing.T) {
	leakcheck.Check(t)
	a, b, _, _ := reconnPair(time.Second)
	defer a.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 5; i++ {
			if err := a.Send([]byte{byte(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 5; i++ {
		frame, err := b.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(frame) != 1 || frame[0] != byte(i) {
			t.Fatalf("recv %d: got %v", i, frame)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("send: %v", err)
	}
	if sent, recv, down := a.State(); sent != 5 || recv != 0 || down {
		t.Fatalf("a state = (%d, %d, %v)", sent, recv, down)
	}
	if sent, recv, down := b.State(); sent != 0 || recv != 5 || down {
		t.Fatalf("b state = (%d, %d, %v)", sent, recv, down)
	}
}

// TestReconnRebindReplaysExactlyOnce severs the transport mid-stream and
// checks that, after both ends rebind onto a fresh pipe with each other's
// watermarks, the receiver sees every frame exactly once and in order —
// including frames sent while the conduit was down (parked senders).
func TestReconnRebindReplaysExactlyOnce(t *testing.T) {
	leakcheck.Check(t)
	const total = 20
	const cutAt = 7 // sever after the receiver installed this many frames
	rawA, rawB := Pipe()
	a := NewReconn(rawA, 5*time.Second)
	b := NewReconn(rawB, 5*time.Second)
	defer a.Close()

	// The pipe is unbounded, so the sender is gated frame-by-frame: the
	// test feeds cutAt tokens, severs the transport, then feeds the rest —
	// guaranteeing the sender observes the sever mid-stream and parks.
	gate := make(chan struct{}, total)
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			<-gate
			if err := a.Send([]byte{byte(i)}); err != nil {
				sendErr <- fmt.Errorf("send %d: %w", i, err)
				return
			}
		}
		sendErr <- nil
	}()
	for i := 0; i < cutAt; i++ {
		gate <- struct{}{}
	}

	got := make(chan []byte, total)
	recvErr := make(chan error, 1)
	go func() {
		for {
			frame, err := b.Recv()
			if err != nil {
				recvErr <- err
				return
			}
			got <- append([]byte(nil), frame...)
		}
	}()

	for len(got) < cutAt {
		time.Sleep(time.Millisecond)
	}
	rawA.Close() // sever: both ends observe ErrClosed and park
	for i := cutAt; i < total; i++ {
		gate <- struct{}{}
	}

	awaitDown(t, a)
	awaitDown(t, b)

	// Control plane: exchange watermarks and rebind over a fresh pipe.
	_, aRecv, _ := a.State()
	_, bRecv, _ := b.State()
	newA, newB := Pipe()
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, 2)
	go func() { defer wg.Done(); errs <- a.Rebind(newA, bRecv, 1) }()
	go func() { defer wg.Done(); errs <- b.Rebind(newB, aRecv, 1) }()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("rebind: %v", err)
		}
	}

	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		select {
		case frame := <-got:
			if frame[0] != byte(i) {
				t.Fatalf("frame %d: got %d (duplicate or reorder)", i, frame[0])
			}
		case err := <-recvErr:
			t.Fatalf("recv died after %d frames: %v", i, err)
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for frame %d", i)
		}
	}
	b.Close() // unwind the receiver goroutine
	<-recvErr
}

func TestReconnRebindValidation(t *testing.T) {
	leakcheck.Check(t)
	rawA, rawB := Pipe()
	defer rawB.Close()
	r := NewReconn(rawA, time.Minute)
	defer r.Close()
	// Prober: keeps a Recv parked on r so severed inners are observed
	// without the test having to poke watermark-bearing ops. Released by
	// the deferred r.Close (leakcheck grace covers the handoff).
	go func() {
		for {
			if _, err := r.Recv(); err != nil {
				return
			}
		}
	}()
	fresh1, fresh2 := Pipe()
	defer fresh2.Close()

	if err := r.Rebind(fresh1, 0, 1); err == nil {
		t.Fatal("rebind while up must fail")
	}
	if err := r.Send([]byte{1}); err != nil {
		t.Fatalf("send: %v", err)
	}
	rawA.Close()
	awaitDown(t, r)
	if err := r.Rebind(fresh1, 2, 1); err == nil {
		t.Fatal("watermark beyond sentSeq must be rejected")
	}
	if err := r.Rebind(fresh1, 1, 0); err == nil {
		t.Fatal("non-advancing epoch must be rejected")
	}
	if err := r.Rebind(fresh1, 1, 1); err != nil {
		t.Fatalf("valid rebind: %v", err)
	}
	// acked advanced to 1: a later rebind may not go backward.
	fresh1.Close()
	awaitDown(t, r)
	if err := r.Rebind(fresh2, 0, 2); err == nil {
		t.Fatal("backward watermark must be rejected")
	}
	if err := r.Rebind(fresh2, 1, 2); err != nil {
		t.Fatalf("second rebind: %v", err)
	}
}

// awaitDown waits until r has observed its inner conduit's failure (an
// already-running Send/Recv must trip noteDown; State flips down).
func awaitDown(t *testing.T, r *Reconn) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, down := r.State(); down {
			return
		}
		select {
		case <-r.Failed():
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("conduit never went down")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReconnWindowExpiry pins the terminal classification: a conduit that
// stays down past the window fails every parked op with
// ErrReconnectExpired, fires the onExpire hook once, and releases parked
// goroutines (leak-checked).
func TestReconnWindowExpiry(t *testing.T) {
	leakcheck.Check(t)
	rawA, rawB := Pipe()
	defer rawB.Close()
	r := NewReconn(rawA, 30*time.Millisecond)
	expired := make(chan error, 1)
	r.SetHooks(nil, nil, func(err error) { expired <- err })
	rawA.Close()
	_, err := r.Recv()
	if !errors.Is(err, ErrReconnectExpired) {
		t.Fatalf("recv err = %v, want ErrReconnectExpired", err)
	}
	if err := r.Send([]byte{1}); !errors.Is(err, ErrReconnectExpired) {
		t.Fatalf("send err = %v, want ErrReconnectExpired", err)
	}
	select {
	case err := <-expired:
		if !errors.Is(err, ErrReconnectExpired) {
			t.Fatalf("onExpire got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("onExpire never fired")
	}
	select {
	case <-r.Failed():
	default:
		t.Fatal("terminal channel not closed after expiry")
	}
	if err := r.Rebind(rawB, 0, 1); err == nil {
		t.Fatal("rebind after expiry must fail")
	}
}

// TestReconnZeroWindowIsTransparent pins that a zero window disables
// parking entirely: the first sever is terminal with the raw cause, so a
// deployment that opts out of reconnect keeps today's abort semantics.
func TestReconnZeroWindowIsTransparent(t *testing.T) {
	leakcheck.Check(t)
	rawA, rawB := Pipe()
	defer rawB.Close()
	r := NewReconn(rawA, 0)
	rawA.Close()
	if _, err := r.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv err = %v, want ErrClosed", err)
	}
	if errors.Is(r.Cause(), ErrReconnectExpired) {
		t.Fatal("zero-window failure must not be classified as expiry")
	}
}

// TestReconnNonFlapErrorIsTerminal pins that failures other than ErrClosed
// (a Secure-layer authentication failure, a cancellation cause) do not
// open the reconnect window.
func TestReconnNonFlapErrorIsTerminal(t *testing.T) {
	leakcheck.Check(t)
	authErr := errors.New("wire: message authentication failed")
	r := NewReconn(errConduit{err: authErr}, time.Minute)
	if _, err := r.Recv(); !errors.Is(err, authErr) {
		t.Fatalf("recv err = %v, want auth error", err)
	}
	if _, _, down := r.State(); !down {
		t.Fatal("terminal conduit must report down")
	}
	select {
	case <-r.Failed():
	default:
		t.Fatal("terminal channel not closed")
	}
}

type errConduit struct{ err error }

func (e errConduit) Send([]byte) error     { return e.err }
func (e errConduit) Recv() ([]byte, error) { return nil, e.err }
func (e errConduit) Close() error          { return nil }

// TestReconnCloseWhileDown pins that Close releases parked operations with
// ErrClosed and stops the window timer (no stray timer goroutine).
func TestReconnCloseWhileDown(t *testing.T) {
	leakcheck.Check(t)
	rawA, rawB := Pipe()
	defer rawB.Close()
	r := NewReconn(rawA, time.Hour)
	rawA.Close()
	recvErr := make(chan error, 1)
	go func() { _, err := r.Recv(); recvErr <- err }()
	awaitDown(t, r)
	r.Close()
	select {
	case err := <-recvErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked recv got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked recv never released")
	}
}

// TestLinkCloseThenRebind pins the Close-then-rebind contract the resume
// path relies on for shaped links: closing a Link conduit releases its
// pump goroutine and the underlying transport promptly, so a
// fresh shaped conduit can be dialed in its place without leaking the old
// one's resources.
func TestLinkCloseThenRebind(t *testing.T) {
	leakcheck.Check(t)
	for round := 0; round < 3; round++ {
		rawA, rawB := Pipe()
		shaped := Link(rawA, time.Millisecond, 0, 64<<20, uint64(round))
		lat := Link(rawB, time.Millisecond, 0, 0, uint64(round))
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				if _, err := lat.Recv(); err != nil {
					return
				}
			}
		}()
		if err := shaped.Send([]byte("hello")); err != nil {
			t.Fatalf("round %d send: %v", round, err)
		}
		shaped.Close()
		lat.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: receiver not released after close", round)
		}
	}
}

// TestChaosReconnectFaultFlap pins FaultFlap transport behavior: identical
// to FaultCut at the conduit level (sever at ordinal N with ErrClosed),
// distinct in kind so chaos harnesses route it to the resume path.
func TestChaosReconnectFaultFlap(t *testing.T) {
	leakcheck.Check(t)
	if FaultFlap.String() != "flap" {
		t.Fatalf("FaultFlap.String() = %q", FaultFlap.String())
	}
	rawA, rawB := Pipe()
	defer rawB.Close()
	f := Fault(rawA, FaultSpec{Kind: FaultFlap, Frame: 3})
	for i := 1; i <= 2; i++ {
		if err := f.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := f.Send([]byte{3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("flap frame err = %v, want ErrClosed", err)
	}
	if err := f.Send([]byte{4}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-flap err = %v, want ErrClosed", err)
	}
}

// lateConduit is a transport whose send side fails at once while its
// receive side stays parked until the test lets one last frame through —
// the shape of a half-dead link whose reader outlives the rebind.
type lateConduit struct {
	parked  chan struct{} // closed once the receiver is inside Recv
	release chan struct{}
	frame   []byte
}

func (l *lateConduit) Send([]byte) error { return ErrClosed }
func (l *lateConduit) Recv() ([]byte, error) {
	close(l.parked)
	<-l.release
	return l.frame, nil
}
func (l *lateConduit) Close() error { return nil }

// TestReconnDropsFrameFromReplacedConduit: a receiver parked in a conduit
// that a Rebind has since replaced must not hand out what that conduit
// delivers late. The peer replays from a watermark that never counted the
// frame, so accepting it would duplicate it; on a worker link it would be
// the superseded run's abort taken for the live run's.
func TestReconnDropsFrameFromReplacedConduit(t *testing.T) {
	leakcheck.Check(t)
	old := &lateConduit{parked: make(chan struct{}), release: make(chan struct{}), frame: []byte("stale")}
	r := NewReconn(old, 5*time.Second)
	defer r.Close()

	got := make(chan []byte, 1)
	go func() {
		frame, err := r.Recv() // parks in old.Recv
		if err != nil {
			t.Errorf("recv: %v", err)
		}
		got <- frame
	}()
	<-old.parked
	sent := make(chan error, 1)
	go func() { sent <- r.Send([]byte("x")) }() // fails on old, opens the window
	awaitDown(t, r)

	fresh, peer := Pipe()
	defer peer.Close()
	if err := r.Rebind(fresh, 0, 1); err != nil {
		t.Fatalf("rebind: %v", err)
	}
	if err := <-sent; err != nil {
		t.Fatalf("send across the rebind: %v", err)
	}
	close(old.release) // the replaced conduit delivers its late frame
	if err := peer.Send([]byte("live")); err != nil {
		t.Fatal(err)
	}
	if frame := <-got; string(frame) != "live" {
		t.Fatalf("received %q, want the replacement conduit's frame", frame)
	}
	if _, recv, _ := r.State(); recv != 1 {
		t.Fatalf("receive watermark %d counts the dropped frame", recv)
	}
}
