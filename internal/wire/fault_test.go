package wire

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ppclust/internal/leakcheck"
)

// TestChaosFaultDrop: from the scripted frame on, sends vanish silently —
// the sender sees success, the receiver sees nothing.
func TestChaosFaultDrop(t *testing.T) {
	leakcheck.Check(t)
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	f := Fault(a, FaultSpec{Kind: FaultDrop, Frame: 2})
	for i := 0; i < 3; i++ {
		if err := f.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	got, err := b.Recv()
	if err != nil || len(got) != 1 || got[0] != 0 {
		t.Fatalf("first frame: %v %v", got, err)
	}
	a.Close()
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("after drop + close want ErrClosed, got %v", err)
	}
}

// TestChaosFaultStall: the scripted frame is delayed but delivered, and a
// Close interrupts an in-progress stall instead of waiting it out.
func TestChaosFaultStall(t *testing.T) {
	leakcheck.Check(t)
	a, b := Pipe()
	defer b.Close()
	f := Fault(a, FaultSpec{Kind: FaultStall, Frame: 1, Stall: 30 * time.Millisecond})
	start := time.Now()
	if err := f.Send([]byte("x")); err != nil {
		t.Fatalf("stalled send: %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("stall not applied: send returned after %v", d)
	}
	if got, err := b.Recv(); err != nil || string(got) != "x" {
		t.Fatalf("stalled frame: %q %v", got, err)
	}

	f2 := Fault(a, FaultSpec{Kind: FaultStall, Frame: 1, Stall: time.Hour})
	done := make(chan error, 1)
	go func() { done <- f2.Send([]byte("y")) }()
	time.Sleep(10 * time.Millisecond)
	f2.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("interrupted stall want ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not interrupt the stall")
	}
}

// TestChaosFaultCut: the scripted frame tears the conduit down instead of
// delivering.
func TestChaosFaultCut(t *testing.T) {
	leakcheck.Check(t)
	a, b := Pipe()
	defer b.Close()
	f := Fault(a, FaultSpec{Kind: FaultCut, Frame: 2})
	if err := f.Send([]byte("ok")); err != nil {
		t.Fatalf("pre-cut send: %v", err)
	}
	if err := f.Send([]byte("cut")); !errors.Is(err, ErrClosed) {
		t.Fatalf("cut send want ErrClosed, got %v", err)
	}
	if got, err := b.Recv(); err != nil || string(got) != "ok" {
		t.Fatalf("pre-cut frame: %q %v", got, err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-cut recv want ErrClosed, got %v", err)
	}
}

// TestChaosFaultCorrupt: exactly one bit flips, deterministically per seed.
func TestChaosFaultCorrupt(t *testing.T) {
	leakcheck.Check(t)
	flip := func(seed uint64) []byte {
		a, b := Pipe()
		defer a.Close()
		defer b.Close()
		f := Fault(a, FaultSpec{Kind: FaultCorrupt, Frame: 1, Seed: seed})
		if err := f.Send(make([]byte, 64)); err != nil {
			t.Fatalf("corrupt send: %v", err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("corrupt recv: %v", err)
		}
		return append([]byte(nil), got...)
	}
	g1, g2 := flip(7), flip(7)
	if !bytes.Equal(g1, g2) {
		t.Fatal("corruption is not deterministic for equal seeds")
	}
	bits := 0
	for _, by := range g1 {
		for ; by != 0; by &= by - 1 {
			bits++
		}
	}
	if bits != 1 {
		t.Fatalf("want exactly 1 flipped bit, got %d", bits)
	}
}

// TestChaosFaultCorruptDoesNotMutateCallerFrame: Send may not scribble on
// the caller's buffer (the Conduit contract lets the caller reuse it, and
// the sender's own view of the payload must stay intact).
func TestChaosFaultCorruptDoesNotMutateCallerFrame(t *testing.T) {
	leakcheck.Check(t)
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	f := Fault(a, FaultSpec{Kind: FaultCorrupt, Frame: 1, Seed: 1})
	orig := make([]byte, 32)
	if err := f.Send(orig); err != nil {
		t.Fatalf("send: %v", err)
	}
	for i, by := range orig {
		if by != 0 {
			t.Fatalf("caller frame mutated at byte %d", i)
		}
	}
	b.Recv()
}

// TestChaosLinkCloseInterruptsDelivery: closing a Link conduit interrupts
// an in-progress delivery sleep and the pump goroutine exits.
func TestChaosLinkCloseInterruptsDelivery(t *testing.T) {
	leakcheck.Check(t)
	a, b := Pipe()
	defer a.Close()
	link := Link(b, time.Hour, 0, 0, 1)
	if err := a.Send([]byte("slow")); err != nil {
		t.Fatalf("send: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := link.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	link.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("interrupted delivery want ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close did not interrupt the link delivery")
	}
}
