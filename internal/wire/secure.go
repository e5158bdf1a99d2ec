package wire

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"sync"
)

// Secure wraps a conduit in AES-256-GCM. Every frame is sealed with a
// deterministic counter nonce; the two directions use disjoint nonce spaces
// selected by the initiator flag, so a single shared key protects both.
// Exactly one endpoint of a channel must pass initiator=true.
//
// This realizes the paper's standing assumption that "the channels are
// secured": an observer of the underlying conduit sees only ciphertext, and
// any modification or reordering causes the receiver to fail loudly.
//
// Recv opens a frame in place when c vouches that it handed the frame over
// (RecvOwned) and into a buffer of its own otherwise: a conduit that lends
// its frames — or replays the same ones to a second reader — finds them
// byte for byte as it delivered them. Either way the plaintext is the
// caller's, so Secure itself always vouches.
func Secure(c Conduit, key [32]byte, initiator bool) (Conduit, error) {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("wire: aes: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("wire: gcm: %w", err)
	}
	sendDir, recvDir := byte(1), byte(2)
	if !initiator {
		sendDir, recvDir = recvDir, sendDir
	}
	return &secureConduit{inner: c, aead: aead, sendDir: sendDir, recvDir: recvDir}, nil
}

type secureConduit struct {
	inner   Conduit
	aead    cipher.AEAD
	sendDir byte
	recvDir byte

	sendMu  sync.Mutex
	sendSeq uint64
	sealBuf []byte // reused Seal destination; guarded by sendMu
	recvMu  sync.Mutex
	recvSeq uint64
}

// nonce builds the 12-byte GCM nonce: direction byte, 3 zero bytes, 8-byte
// big-endian sequence number. Returned by value so callers keep it on the
// stack.
func nonce(dir byte, seq uint64) [12]byte {
	var n [12]byte
	n[0] = dir
	binary.BigEndian.PutUint64(n[4:], seq)
	return n
}

func (s *secureConduit) Send(frame []byte) error {
	if len(frame)+s.aead.Overhead() > MaxFrame {
		// Guard before sealing: an oversized payload must fail here with a
		// descriptive error, not reach the transport (whose own check would
		// fire) or, worse, a peer that kills the connection on the length
		// prefix.
		return fmt.Errorf("wire: frame of %d bytes (+%d sealing overhead): %w",
			len(frame), s.aead.Overhead(), ErrFrameTooLarge)
	}
	// The seal buffer is reused across Sends, so hold the lock through
	// inner.Send — which may not retain the frame — rather than just the
	// sequence draw. The Conduit contract admits one concurrent sender, so
	// the widened critical section serializes nothing new.
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	seq := s.sendSeq
	s.sendSeq++
	n := nonce(s.sendDir, seq)
	sealed := s.aead.Seal(s.sealBuf[:0], n[:], frame, nil)
	if cap(sealed) <= maxRetainedBuf {
		s.sealBuf = sealed[:0]
	} else {
		s.sealBuf = nil
	}
	return s.inner.Send(sealed)
}

func (s *secureConduit) Recv() ([]byte, error) {
	sealed, err := s.inner.Recv()
	if err != nil {
		return nil, err
	}
	s.recvMu.Lock()
	seq := s.recvSeq
	s.recvSeq++
	s.recvMu.Unlock()
	n := nonce(s.recvDir, seq)
	var dst []byte
	if RecvOwned(s.inner) {
		dst = sealed[:0]
	}
	frame, err := s.aead.Open(dst, n[:], sealed, nil)
	if err != nil {
		return nil, fmt.Errorf("wire: secure channel authentication failed (frame %d): %w", seq, err)
	}
	return frame, nil
}

func (s *secureConduit) RecvOwned() bool { return true }

func (s *secureConduit) Close() error { return s.inner.Close() }
