// Package wire provides the message transport the ppclust parties
// communicate over: length-framed byte conduits with in-memory and TCP
// implementations, AES-GCM channel protection, byte metering and
// eavesdropping taps.
//
// The İnan et al. protocol requires point-to-point channels between every
// data holder pair and between each holder and the third party. Its privacy
// argument further *requires the channels to be secured* (paper Section 4.1:
// a third party observing the DHJ→DHK channel can narrow x to two
// candidates). Secure wraps any conduit in AES-GCM under a key derived by
// the internal/keys handshake. Meter counts bytes for the communication-cost
// experiments (E6–E8), and Tap exposes raw frames to the attack simulations
// (E12) without disturbing the endpoints.
package wire

import (
	"errors"
	"fmt"
	"sync"
)

// ErrClosed is returned by operations on a closed conduit.
var ErrClosed = errors.New("wire: conduit closed")

// ErrFrameTooLarge is returned by Send when a frame (after any channel
// protection overhead) would exceed MaxFrame. Callers get this descriptive
// local error instead of the remote peer killing the connection when it
// rejects the length prefix; the conduit itself stays usable.
var ErrFrameTooLarge = errors.New("frame exceeds MaxFrame")

// MaxFrame bounds a single frame's payload, guarding against corrupted or
// hostile length prefixes.
const MaxFrame = 1 << 28 // 256 MiB

// maxRetainedBuf caps how much memory the framing layers keep parked in
// reusable buffers (the pooled Endpoint frame buffers, a secure conduit's
// seal buffer, a pooled TCP conduit's receive buffer). Buffers that had to
// grow past it for one oversized frame are dropped rather than retained.
const maxRetainedBuf = 1 << 20

// Conduit is a reliable, ordered, bidirectional frame transport between two
// parties. Send transfers one opaque frame; Recv blocks for the next frame
// and returns ErrClosed once the peer has closed and all queued frames are
// drained. Implementations are safe for one concurrent sender and one
// concurrent receiver.
//
// Ownership: Send must not retain frame after it returns — the caller may
// immediately reuse the buffer (the Endpoint layer recycles its frame
// buffers through a pool on the strength of this). Whether the frame Recv
// returned belongs to the caller, or is only lent until the next Recv, is
// answered by RecvOwned: a conduit vouches when nothing else will read or
// write the frame again. Pipe and Secure vouch; Meter, Link and Reconn
// hand frames through untouched and forward their inner
// conduit's answer; TCPPooled (recycled receive buffer), Tap (its observer
// may be reading), the fault injectors and any Conduit from outside this
// package do not. Secure opens an owned frame in place and any other into
// a buffer of its own; Endpoint.Recv — whose Messages alias the frame and
// outlive the next Recv — copies the payload out of a frame that is not
// owned (docs/WIRE.md, "Ownership").
type Conduit interface {
	Send(frame []byte) error
	Recv() ([]byte, error)
	Close() error
}

// RecvOwned reports whether c vouches that the frame its last Recv returned
// was handed over to the caller — by a RecvOwned method of its own, which a
// conduit that cannot know does not have.
func RecvOwned(c Conduit) bool {
	o, ok := c.(interface{ RecvOwned() bool })
	return ok && o.RecvOwned()
}

// Pipe returns two ends of an in-memory conduit. Frames are copied on Send,
// so callers may reuse buffers. Queues are unbounded: protocol rounds may
// send many frames before the peer drains them.
func Pipe() (Conduit, Conduit) {
	a2b := newQueue()
	b2a := newQueue()
	a := &pipeEnd{out: a2b, in: b2a}
	b := &pipeEnd{out: b2a, in: a2b}
	return a, b
}

// queue is an unbounded FIFO of frames with close semantics. A head index
// (rather than re-slicing the front away) keeps the backing array reusable,
// so a steady push/pop rhythm allocates only the per-frame defensive copy —
// the single copy on the whole in-memory send path.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames [][]byte
	head   int
	closed bool
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(frame []byte) error {
	// Copied before the lock is taken, so the receiver's pop never waits
	// out a sender's copy.
	cp := make([]byte, len(frame))
	copy(cp, frame)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	q.frames = append(q.frames, cp)
	q.cond.Signal()
	return nil
}

func (q *queue) pop() ([]byte, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.frames) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.frames) {
		return nil, ErrClosed
	}
	f := q.frames[q.head]
	q.frames[q.head] = nil
	q.head++
	if q.head == len(q.frames) {
		// Drained: rewind onto the same backing array so pushes stop
		// reallocating it.
		q.frames = q.frames[:0]
		q.head = 0
	}
	return f, nil
}

func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

type pipeEnd struct {
	out *queue
	in  *queue
}

func (p *pipeEnd) Send(frame []byte) error { return p.out.push(frame) }
func (p *pipeEnd) Recv() ([]byte, error)   { return p.in.pop() }
func (p *pipeEnd) RecvOwned() bool         { return true } // push copied the frame

func (p *pipeEnd) Close() error {
	p.out.close()
	p.in.close()
	return nil
}

// Counter accumulates traffic statistics for one party's view of one or
// more conduits. Safe for concurrent use.
type Counter struct {
	mu         sync.Mutex
	sentBytes  uint64
	recvBytes  uint64
	sentFrames uint64
	recvFrames uint64
}

// Sent returns total bytes and frames sent.
func (c *Counter) Sent() (bytes, frames uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sentBytes, c.sentFrames
}

// Received returns total bytes and frames received.
func (c *Counter) Received() (bytes, frames uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recvBytes, c.recvFrames
}

// Reset zeroes all counters.
func (c *Counter) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sentBytes, c.recvBytes, c.sentFrames, c.recvFrames = 0, 0, 0, 0
}

// String summarizes the counter.
func (c *Counter) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("sent %d B in %d frames, received %d B in %d frames",
		c.sentBytes, c.sentFrames, c.recvBytes, c.recvFrames)
}

func (c *Counter) addSent(n int) {
	c.mu.Lock()
	c.sentBytes += uint64(n)
	c.sentFrames++
	c.mu.Unlock()
}

func (c *Counter) addRecv(n int) {
	c.mu.Lock()
	c.recvBytes += uint64(n)
	c.recvFrames++
	c.mu.Unlock()
}

// Meter wraps a conduit so that frame sizes are accumulated into ctr.
// Metering sits outside any encryption layer it wraps, so it observes the
// same sizes an on-path observer would. The wrapper is copy- and
// allocation-free on both directions: it only reads len(frame), so a
// metered send costs exactly what the inner conduit's send costs
// (asserted by TestMeterTapSendPathAllocFree).
func Meter(c Conduit, ctr *Counter) Conduit {
	return &meteredConduit{inner: c, ctr: ctr}
}

type meteredConduit struct {
	inner Conduit
	ctr   *Counter
}

func (m *meteredConduit) Send(frame []byte) error {
	if err := m.inner.Send(frame); err != nil {
		return err
	}
	m.ctr.addSent(len(frame))
	return nil
}

func (m *meteredConduit) Recv() ([]byte, error) {
	f, err := m.inner.Recv()
	if err != nil {
		return nil, err
	}
	m.ctr.addRecv(len(f))
	return f, nil
}

func (m *meteredConduit) RecvOwned() bool { return RecvOwned(m.inner) }

func (m *meteredConduit) Close() error { return m.inner.Close() }

// TapFunc observes one frame flowing through a tapped conduit. dir is
// "send" or "recv" from the tapped endpoint's perspective. The frame must
// not be retained or modified.
type TapFunc func(dir string, frame []byte)

// Tap wraps a conduit so that fn observes every frame. It models an
// eavesdropper on the underlying channel: fn sees exactly the bytes that
// cross the wire at this layer. Like Meter, the tap itself copies nothing —
// fn is handed the live frame, which is why it must not retain it.
func Tap(c Conduit, fn TapFunc) Conduit {
	return &tappedConduit{inner: c, fn: fn}
}

type tappedConduit struct {
	inner Conduit
	fn    TapFunc
}

func (t *tappedConduit) Send(frame []byte) error {
	if err := t.inner.Send(frame); err != nil {
		return err
	}
	t.fn("send", frame)
	return nil
}

func (t *tappedConduit) Recv() ([]byte, error) {
	f, err := t.inner.Recv()
	if err != nil {
		return nil, err
	}
	t.fn("recv", f)
	return f, nil
}

func (t *tappedConduit) Close() error { return t.inner.Close() }
