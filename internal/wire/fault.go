package wire

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ppclust/internal/rng"
)

// ErrTransient marks a send failure the transport believes is momentary:
// the conduit remains usable and re-sending the same frame may succeed.
// Session layers do not retry on their own — layer Retry over a transport
// that produces transient errors to absorb them below any channel
// protection (retrying above an AES-GCM channel would re-seal under a new
// sequence number and desynchronize the peer).
var ErrTransient = errors.New("wire: transient transport error")

// FaultKind selects the fault class a Fault conduit injects.
type FaultKind int

const (
	// FaultDrop silently discards frame Frame and every later send — a
	// black-holed link. The peer starves; only a watchdog ends the wait.
	FaultDrop FaultKind = iota
	// FaultStall delays the send of frame Frame by Stall before delivering
	// it — a peer that wedges and then recovers. Survivable when the
	// receiving side's watchdog outlasts the stall. Close interrupts an
	// in-progress stall.
	FaultStall
	// FaultCut closes the conduit instead of delivering frame Frame — a
	// connection torn down mid-stream.
	FaultCut
	// FaultCorrupt delivers frame Frame with one deterministically chosen
	// bit flipped (position drawn from Seed) — in-flight corruption, caught
	// by the AES-GCM layer on secured sessions.
	FaultCorrupt
	// FaultTransient fails the send of frame Frame once with ErrTransient
	// without delivering it; the frame is lost but the conduit stays
	// usable. Survivable when a Retry layer sits above the fault.
	FaultTransient
	// FaultFlap closes the conduit instead of delivering frame Frame, like
	// FaultCut, but labels the sever as a link flap: the transport accepts
	// a re-dial, so a session layered over Reconn survives by rebinding a
	// fresh conduit and replaying from the peer's watermark.
	FaultFlap
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultStall:
		return "stall"
	case FaultCut:
		return "cut"
	case FaultCorrupt:
		return "corrupt"
	case FaultTransient:
		return "transient"
	case FaultFlap:
		return "flap"
	default:
		return "unknown"
	}
}

// FaultSpec scripts one deterministic fault: Kind strikes at the Frame-th
// send (1-based) on the wrapped conduit. The schedule is a pure function
// of the spec, so a chaos run reproduces exactly.
type FaultSpec struct {
	Kind FaultKind
	// Frame is the 1-based ordinal of the Send the fault strikes.
	Frame int
	// Stall is the delay FaultStall injects.
	Stall time.Duration
	// Seed drives FaultCorrupt's bit choice.
	Seed uint64
}

// Fault wraps a conduit's send side with one scripted fault, layered like
// Link: payload-transparent until the scripted frame, then the
// configured failure. Chaos tests wrap one party's end of one session link
// and assert that every party unwinds with a classified error (or, for
// survivable faults, that reports stay bit-identical).
func Fault(c Conduit, spec FaultSpec) Conduit {
	return &faultConduit{inner: c, spec: spec, closed: make(chan struct{})}
}

type faultConduit struct {
	inner Conduit
	spec  FaultSpec

	mu      sync.Mutex
	sent    int
	tripped bool // FaultTransient fired

	closeOnce sync.Once
	closed    chan struct{}
}

func (f *faultConduit) Send(frame []byte) error {
	f.mu.Lock()
	f.sent++
	n := f.sent
	f.mu.Unlock()
	switch f.spec.Kind {
	case FaultDrop:
		if n >= f.spec.Frame {
			return nil // swallowed; the sender believes it succeeded
		}
	case FaultStall:
		if n == f.spec.Frame && !sleepInterruptible(f.spec.Stall, f.closed) {
			return ErrClosed
		}
	case FaultCut, FaultFlap:
		if n >= f.spec.Frame {
			f.Close()
			return ErrClosed
		}
	case FaultCorrupt:
		if n == f.spec.Frame && len(frame) > 0 {
			cp := append([]byte(nil), frame...)
			src := rng.NewXoshiro(rng.SeedFromUint64(f.spec.Seed))
			cp[src.Next()%uint64(len(cp))] ^= byte(1) << (src.Next() % 8)
			return f.inner.Send(cp)
		}
	case FaultTransient:
		f.mu.Lock()
		trip := n >= f.spec.Frame && !f.tripped
		if trip {
			f.tripped = true
		}
		f.mu.Unlock()
		if trip {
			return fmt.Errorf("wire: injected fault at frame %d: %w", n, ErrTransient)
		}
	}
	return f.inner.Send(frame)
}

func (f *faultConduit) Recv() ([]byte, error) { return f.inner.Recv() }

func (f *faultConduit) Close() error {
	f.closeOnce.Do(func() { close(f.closed) })
	return f.inner.Close()
}

// Retry wraps a conduit so that Sends failing with ErrTransient are
// re-attempted up to attempts extra times — the reliability shim a
// deployment places directly above a transport with momentary failures,
// and below any channel protection (see ErrTransient). All other errors,
// and transient errors that persist past the budget, pass through.
func Retry(c Conduit, attempts int) Conduit {
	return &retryConduit{inner: c, attempts: attempts}
}

type retryConduit struct {
	inner    Conduit
	attempts int
}

func (r *retryConduit) Send(frame []byte) error {
	err := r.inner.Send(frame)
	for extra := 0; extra < r.attempts && errors.Is(err, ErrTransient); extra++ {
		err = r.inner.Send(frame)
	}
	return err
}

func (r *retryConduit) Recv() ([]byte, error) { return r.inner.Recv() }
func (r *retryConduit) Close() error          { return r.inner.Close() }
