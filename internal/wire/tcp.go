package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
)

// TCPPooled adapts a net.Conn into a Conduit using 4-byte big-endian length
// framing, with a recycled receive buffer: Recv reads each frame into a
// conduit-owned buffer that is reused (and grown as needed) across calls,
// so a long stream of bounded frames — the row-chunked local-matrix path —
// performs zero per-frame receive allocations. The returned frame is valid
// only until the next Recv on the conduit: the conduit does not vouch for
// it (RecvOwned), so Secure opens it into a buffer of its own and an
// Endpoint copies the payload out. The caller owns connection
// establishment (Dial/Accept); see cmd/ppc-tp and cmd/ppc-holder for the
// deployment wiring.
func TCPPooled(c net.Conn) Conduit {
	return &tcpConduit{conn: c}
}

type tcpConduit struct {
	conn    net.Conn
	recvBuf []byte // guarded by recvMu
	sendMu  sync.Mutex
	recvMu  sync.Mutex
	closeMu sync.Mutex
	closed  bool
}

func (t *tcpConduit) Send(frame []byte) error {
	if len(frame) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes: %w", len(frame), ErrFrameTooLarge)
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(frame)))
	// Vectored write: header and body leave in a single writev call, so
	// the kernel never sees a lone 4-byte header segment and the syscall
	// count per frame is halved.
	bufs := net.Buffers{hdr[:], frame}
	if _, err := bufs.WriteTo(t.conn); err != nil {
		if t.isClosed() || errors.Is(err, net.ErrClosed) || severed(err) {
			return ErrClosed
		}
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

func (t *tcpConduit) Recv() ([]byte, error) {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	var hdr [4]byte
	if _, err := io.ReadFull(t.conn, hdr[:]); err != nil {
		return nil, t.recvErr("header", err)
	}
	// Check the length prefix before converting to int: on 32-bit
	// platforms a hostile prefix >= 2^31 would wrap negative and slip past
	// an int comparison into a panicking make.
	n32 := binary.BigEndian.Uint32(hdr[:])
	if n32 > MaxFrame {
		return nil, fmt.Errorf("wire: incoming frame of %d bytes exceeds MaxFrame", n32)
	}
	n := int(n32)
	// Reuse the conduit buffer; drop it back to a fresh right-sized one
	// when a single oversized frame would otherwise stay parked.
	if cap(t.recvBuf) < n || (cap(t.recvBuf) > maxRetainedBuf && n <= maxRetainedBuf) {
		t.recvBuf = make([]byte, n)
	}
	frame := t.recvBuf[:n]
	if _, err := io.ReadFull(t.conn, frame); err != nil {
		return nil, t.recvErr("body", err)
	}
	return frame, nil
}

// recvErr maps every way the stream can end to ErrClosed — a clean EOF at
// a frame boundary, a peer that vanished mid-frame (io.ErrUnexpectedEOF on
// the header tail or body), a local Close racing a blocked read
// (net.ErrClosed), and a connection torn down under the read (reset) — so
// callers observe the Conduit contract's ErrClosed rather than transport-
// specific errors. The mapping matters beyond tidiness: the reconnect
// layer parks a lane only when the cause is ErrClosed, so a real network
// sever must classify as one or mid-session resume would never engage.
// Anything else is a genuine transport fault and keeps its cause.
func (t *tcpConduit) recvErr(stage string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || t.isClosed() || severed(err) {
		return ErrClosed
	}
	return fmt.Errorf("wire: reading frame %s: %w", stage, err)
}

// severed reports the errno signatures of a peer that vanished — the
// connection reset a dead peer's RST produces, and the broken pipe of
// writing after it. Both mean "the conduit is gone", which is exactly
// ErrClosed's contract.
func severed(err error) bool {
	return errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

func (t *tcpConduit) Close() error {
	t.closeMu.Lock()
	t.closed = true
	t.closeMu.Unlock()
	return t.conn.Close()
}

func (t *tcpConduit) isClosed() bool {
	t.closeMu.Lock()
	defer t.closeMu.Unlock()
	return t.closed
}
