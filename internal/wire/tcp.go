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
// framing. Recv reads each frame into a buffer from the process's frame
// pool and hands it over: the conduit vouches for every frame it returns
// (RecvOwned), so Secure opens it in place, an Endpoint aliases it, and a
// consumer done with it may Release it — a long stream of bounded frames,
// the row-chunked matrix path, performs no per-frame receive allocation.
// A frame longer than maxRetainedBuf is read into a buffer that grows as
// its bytes arrive, so a length prefix alone — which an unauthenticated
// peer sends before any key is agreed — costs at most maxRetainedBuf.
// Send writes the caller's frame and keeps nothing. The caller owns
// connection establishment (Dial/Accept); see cmd/ppc-tp and
// cmd/ppc-holder for the deployment wiring.
func TCPPooled(c net.Conn) Conduit {
	return &tcpConduit{conn: c}
}

type tcpConduit struct {
	conn net.Conn
	// The length prefixes and the writev vector live in the conduit, so
	// neither direction allocates per frame.
	sendMu  sync.Mutex
	sendHdr [4]byte     // guarded by sendMu
	vec     [2][]byte   // guarded by sendMu
	bufs    net.Buffers // guarded by sendMu
	recvMu  sync.Mutex
	recvHdr [4]byte // guarded by recvMu
	closeMu sync.Mutex
	closed  bool
}

func (t *tcpConduit) Send(frame []byte) error {
	if len(frame) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes: %w", len(frame), ErrFrameTooLarge)
	}
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	binary.BigEndian.PutUint32(t.sendHdr[:], uint32(len(frame)))
	// Vectored write: header and body leave in a single writev call, so
	// the kernel never sees a lone 4-byte header segment and the syscall
	// count per frame is halved. WriteTo consumes the vector it is given,
	// so it is set afresh over the conduit's array for every frame, and
	// the frame is dropped from it afterwards.
	t.vec = [2][]byte{t.sendHdr[:], frame}
	t.bufs = t.vec[:]
	_, err := t.bufs.WriteTo(t.conn)
	t.vec[1] = nil
	if err != nil {
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
	if _, err := io.ReadFull(t.conn, t.recvHdr[:]); err != nil {
		return nil, t.recvErr("header", err)
	}
	// Check the length prefix before converting to int: on 32-bit
	// platforms a hostile prefix >= 2^31 would wrap negative and slip past
	// an int comparison into a panicking make.
	n32 := binary.BigEndian.Uint32(t.recvHdr[:])
	if n32 > MaxFrame {
		return nil, fmt.Errorf("wire: incoming frame of %d bytes exceeds MaxFrame", n32)
	}
	n := int(n32)
	if n > maxRetainedBuf {
		return t.recvLarge(n)
	}
	frame := getFrame(n)
	if _, err := io.ReadFull(t.conn, frame); err != nil {
		return nil, t.recvErr("body", err)
	}
	return frame, nil
}

// recvLarge reads an n-byte body that is too large for the pool into a
// buffer that starts at maxRetainedBuf and doubles, up to n, only as the
// body's bytes arrive.
func (t *tcpConduit) recvLarge(n int) ([]byte, error) {
	frame := make([]byte, 0, maxRetainedBuf)
	for len(frame) < n {
		if len(frame) == cap(frame) {
			frame = append(make([]byte, 0, min(2*cap(frame), n)), frame...)
		}
		got, err := io.ReadFull(t.conn, frame[len(frame):min(cap(frame), n)])
		frame = frame[:len(frame)+got]
		if err != nil {
			return nil, t.recvErr("body", err)
		}
	}
	return frame, nil
}

// RecvOwned vouches for every frame: each Recv reads into a buffer of its
// own.
func (t *tcpConduit) RecvOwned() bool { return true }

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
