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
// Send seals each frame into a buffer from the frame pool. When c takes
// ownership of what it is sent (TakesOwned) the sealed buffer is handed
// over and becomes the frame the peer receives; otherwise it goes back to
// the pool once c's Send returns — unzeroed, as it holds only ciphertext.
//
// Recv opens a frame in place when c vouches that it handed the frame over
// (RecvOwned) and into a pooled buffer of its own otherwise: a conduit that
// lends its frames — or replays the same ones to a second reader — finds
// them byte for byte as it delivered them. Either way the plaintext is the
// caller's, so Secure itself always vouches, and a consumer done with it
// may Release it. A frame that fails authentication leaves no plaintext
// behind in either buffer.
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

	sendMu    sync.Mutex
	sendSeq   uint64
	sendNonce [12]byte // guarded by sendMu
	recvMu    sync.Mutex
	recvSeq   uint64
	recvNonce [12]byte // guarded by recvMu
}

// nonce writes the 12-byte GCM nonce — direction byte, 3 zero bytes,
// 8-byte big-endian sequence number — into n and returns it. n is one of
// the conduit's own buffers, so handing it to the AEAD allocates nothing.
func nonce(n *[12]byte, dir byte, seq uint64) []byte {
	n[0] = dir
	binary.BigEndian.PutUint64(n[4:], seq)
	return n[:]
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
	// Hold the lock through inner.Send, not just the sequence draw, so
	// frames reach the wire in nonce order. The Conduit contract admits one
	// concurrent sender, so the wider critical section serializes nothing
	// new.
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	n := nonce(&s.sendNonce, s.sendDir, s.sendSeq)
	s.sendSeq++
	sealed := s.aead.Seal(getFrame(len(frame) + s.aead.Overhead())[:0], n, frame, nil)
	if TakesOwned(s.inner) {
		return SendOwned(s.inner, sealed)
	}
	err := s.inner.Send(sealed)
	putFrame(sealed)
	return err
}

func (s *secureConduit) Recv() ([]byte, error) {
	s.recvMu.Lock()
	defer s.recvMu.Unlock()
	sealed, err := s.inner.Recv()
	if err != nil {
		return nil, err
	}
	seq := s.recvSeq
	s.recvSeq++
	n := nonce(&s.recvNonce, s.recvDir, seq)
	var dst []byte
	if RecvOwned(s.inner) {
		dst = sealed[:0]
	} else {
		dst = getFrame(max(len(sealed)-s.aead.Overhead(), 0))[:0]
	}
	frame, err := s.aead.Open(dst, n, sealed, nil)
	if err != nil {
		// Open may have written plaintext before the tag check failed.
		clear(dst[:min(cap(dst), len(sealed))])
		return nil, fmt.Errorf("wire: secure channel authentication failed (frame %d): %w", seq, err)
	}
	return frame, nil
}

func (s *secureConduit) RecvOwned() bool { return true }

func (s *secureConduit) Close() error { return s.inner.Close() }
