package wire

import (
	"bytes"
	"sync"
	"time"

	"ppclust/internal/rng"
)

// sleepInterruptible sleeps for d unless done closes first, reporting
// whether the full delay elapsed. The simulated-link wrappers (Link,
// Fault) route every delay through it so that Close tears a
// simulation down promptly instead of waiting out its schedule.
func sleepInterruptible(d time.Duration, done <-chan struct{}) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}

// Link wraps a conduit's receive side in a store-and-forward link model:
// frames are serialized through a bandwidth bottleneck of bytesPerSec and
// then delivered after a propagation delay of base plus deterministic
// seeded jitter from [0, jitter), so a link's delay schedule is
// reproducible run to run. Link charges the size-proportional transfer
// serially while propagation overlaps across in-flight frames, which is
// the shape that
// makes one monolithic matrix frame a serial wall and a row-chunked stream
// of the same bytes consumable as it arrives. bytesPerSec <= 0 disables the
// bandwidth bottleneck.
//
// A pump goroutine drains the inner conduit eagerly (the link's own
// buffering), stamping each frame's transfer-completion time; Recv blocks
// until a frame's delivery time. The pump exits when the inner conduit
// errors or the link is closed — Close both closes the inner conduit
// (unparking a blocked pump) and interrupts any in-progress delivery
// sleep, so an early-failing session never strands the delivery goroutine
// or a receiver waiting out the simulated schedule. Timing only: payloads
// are untouched, so session results never depend on the schedule.
func Link(c Conduit, base, jitter time.Duration, bytesPerSec int, seed uint64) Conduit {
	l := &linkConduit{
		inner:  c,
		base:   base,
		jitter: jitter,
		bps:    float64(bytesPerSec),
		src:    rng.NewXoshiro(rng.SeedFromUint64(seed)),
		closed: make(chan struct{}),
	}
	l.cond = sync.NewCond(&l.mu)
	go l.pump()
	return l
}

type linkFrame struct {
	frame   []byte
	owned   bool // the inner conduit vouched for the frame when the pump read it
	deliver time.Time
}

type linkConduit struct {
	inner  Conduit
	base   time.Duration
	jitter time.Duration
	bps    float64
	src    rng.Stream // consumed only by the pump goroutine

	mu    sync.Mutex
	cond  *sync.Cond
	queue []linkFrame
	head  int
	owned bool  // of the frame the last Recv returned
	err   error // terminal pump error, delivered after the queue drains

	closeOnce sync.Once
	closed    chan struct{}
}

// pump models the link: it drains the inner conduit as fast as frames
// appear, serializes their transfer times through the bandwidth bottleneck
// and queues them stamped with a delivery deadline.
func (l *linkConduit) pump() {
	var busyUntil time.Time
	for {
		f, err := l.inner.Recv()
		if err != nil {
			l.mu.Lock()
			l.err = err
			l.cond.Broadcast()
			l.mu.Unlock()
			return
		}
		owned := RecvOwned(l.inner)
		if !owned {
			// A lent frame is valid only until the inner conduit's next
			// Recv, which the pump makes before this frame is delivered.
			f = bytes.Clone(f)
		}
		now := time.Now()
		start := busyUntil
		if now.After(start) {
			start = now
		}
		var xfer time.Duration
		if l.bps > 0 {
			xfer = time.Duration(float64(len(f)) / l.bps * float64(time.Second))
		}
		busyUntil = start.Add(xfer)
		deliver := busyUntil.Add(l.delay())
		l.mu.Lock()
		l.queue = append(l.queue, linkFrame{frame: f, owned: owned, deliver: deliver})
		l.cond.Broadcast()
		l.mu.Unlock()
	}
}

// delay is the next frame's propagation delay: base plus a draw from the
// seeded jitter stream.
func (l *linkConduit) delay() time.Duration {
	d := l.base
	if l.jitter > 0 {
		d += time.Duration(rng.Float64(l.src) * float64(l.jitter))
	}
	return d
}

func (l *linkConduit) Send(frame []byte) error { return l.inner.Send(frame) }

func (l *linkConduit) Recv() ([]byte, error) {
	l.mu.Lock()
	for l.head == len(l.queue) && l.err == nil {
		l.cond.Wait()
	}
	if l.head == len(l.queue) {
		err := l.err
		l.mu.Unlock()
		return nil, err
	}
	lf := l.queue[l.head]
	l.queue[l.head] = linkFrame{}
	l.head++
	if l.head == len(l.queue) {
		l.queue = l.queue[:0]
		l.head = 0
	}
	l.owned = lf.owned
	l.mu.Unlock()
	if !sleepInterruptible(time.Until(lf.deliver), l.closed) {
		return nil, ErrClosed
	}
	return lf.frame, nil
}

// RecvOwned answers for the delivered frame, not for whichever the pump
// read last: over a Reconn the answer may change from frame to frame.
func (l *linkConduit) RecvOwned() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.owned
}

func (l *linkConduit) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return l.inner.Close()
}
