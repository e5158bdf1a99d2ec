package wire

import (
	"sync"
	"time"

	"ppclust/internal/rng"
)

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

	mu   sync.Mutex
	sent int

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
	}
	return f.inner.Send(frame)
}

func (f *faultConduit) Recv() ([]byte, error) { return f.inner.Recv() }

func (f *faultConduit) Close() error {
	f.closeOnce.Do(func() { close(f.closed) })
	return f.inner.Close()
}
