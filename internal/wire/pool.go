package wire

import (
	"math/bits"
	"sync"
)

// The frame-buffer pool: one per process, shared by every conduit and every
// session in it. A session frame is sealed into a pooled buffer, handed
// along the conduit stack without a copy where the layers allow it, opened
// in place and, by the consumers that drop it once decoded, released back
// (Release). Buffers come in power-of-two size classes from 512 bytes to
// maxRetainedBuf; a larger frame gets a buffer of its own, left to the
// garbage collector. sync.Pool lets the collector empty the classes, so
// the pool holds memory only while frames keep moving.
//
// Everything in the pool is zero or ciphertext, never plaintext: the
// process may serve many tenants, and a buffer one session released may
// carry another's frame next. Release zeroes a buffer's whole capacity
// before it goes back; only a sealed frame returns unzeroed
// (secureConduit.Send).

const (
	minPooledBits = 9 // the smallest class holds 512 bytes
	maxPooledBits = 20
	// poolHeadroom is added to every class's capacity, so a frame that
	// starts a little into a pooled buffer — a holder frame a worker
	// received relayed inside its coordinator's ppc/shard-frame, released
	// once installed — still has its class's full size behind it and goes
	// back to the same class, not one below. It is below the smallest
	// class, so a whole buffer still counts as its own class.
	poolHeadroom = 256
)

// frameClasses[k] holds *[]byte boxes of buffers of at least
// 1<<(minPooledBits+k) bytes. Empty boxes are recycled through boxes, so
// taking a buffer out and putting one back allocates nothing.
var (
	frameClasses [maxPooledBits - minPooledBits + 1]sync.Pool
	boxes        sync.Pool
)

// getFrame returns a buffer of length n: from the pool when n fits a
// class, freshly allocated otherwise. Its contents are zero or stale
// ciphertext; callers overwrite all n bytes.
func getFrame(n int) []byte {
	if n > maxRetainedBuf {
		return make([]byte, n)
	}
	k := 0
	if n > 1<<minPooledBits {
		k = bits.Len(uint(n-1)) - minPooledBits
	}
	if p, _ := frameClasses[k].Get().(*[]byte); p != nil {
		b := *p
		*p = nil
		boxes.Put(p)
		return b[:n]
	}
	return make([]byte, n, 1<<(minPooledBits+k)+poolHeadroom)
}

// putFrame parks b in the largest class its capacity covers, or drops it
// when it is too small to be worth keeping or larger than maxRetainedBuf
// (plus headroom). b must hold no plaintext.
func putFrame(b []byte) {
	k, ok := putClass(cap(b))
	if !ok {
		return
	}
	p, _ := boxes.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = b[:0]
	frameClasses[k].Put(p)
}

// putClass is the class a buffer of capacity c goes back to: the largest
// whose size c covers. ok is false for a buffer the pool does not keep.
func putClass(c int) (k int, ok bool) {
	if c < 1<<minPooledBits || c > maxRetainedBuf+poolHeadroom {
		return 0, false
	}
	return min(bits.Len(uint(c))-1, maxPooledBits) - minPooledBits, true
}

// Release returns frame's buffer to the process's frame pool, zeroed over
// its whole capacity. Only the owner of a frame may release it — one a
// vouching conduit's Recv returned (RecvOwned), or a frame of one — and
// only once nothing reads it any more: the next getFrame may hand the buffer to
// another session. Releasing is optional; an unreleased frame is garbage
// collected as usual. See docs/WIRE.md, "Release".
func Release(frame []byte) {
	if _, ok := putClass(cap(frame)); !ok {
		return
	}
	frame = frame[:cap(frame)]
	clear(frame)
	putFrame(frame)
}
