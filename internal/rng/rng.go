// Package rng provides the deterministic, re-seedable pseudo-random number
// streams that the ppclust comparison protocols are built on.
//
// The İnan et al. protocols assume that pairs of parties share "a secret
// number that will be used as the seed of a pseudo-random number generator"
// and that the generator is "of high quality, has a long period and is not
// predictable". Two interchangeable implementations are provided behind the
// Stream interface:
//
//   - Xoshiro: xoshiro256** — a fast, statistically strong, non-cryptographic
//     generator. Appropriate for tests, workload generation and benchmarks.
//   - AESCTR: an AES-128-CTR keystream generator — unpredictable without the
//     seed, which is the property the protocol's privacy argument needs.
//
// Both are deterministic functions of a 32-byte Seed, and both support
// Reseed, which rewinds the stream to its beginning. Reseed matters because
// the paper's batch protocols re-initialize shared generators at row
// boundaries so that independently operating sites observe identical draws
// (Figures 4–6 and 8–10 of the paper).
package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// Seed is the shared secret from which a Stream's entire output is derived.
// Two parties holding equal Seeds observe identical streams.
type Seed [32]byte

// SeedFromUint64 expands a 64-bit value into a full Seed. It is intended for
// tests and examples; production sessions derive seeds from the key-agreement
// substrate (internal/keys).
func SeedFromUint64(v uint64) Seed {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return sha256.Sum256(b[:])
}

// SeedFromBytes derives a Seed from arbitrary secret bytes.
func SeedFromBytes(b []byte) Seed {
	return sha256.Sum256(b)
}

// Stream is a deterministic, rewindable source of 64-bit words.
//
// Implementations are NOT safe for concurrent use; each protocol role owns
// its streams exclusively.
type Stream interface {
	// Next returns the next 64-bit word of the stream.
	Next() uint64
	// Reseed rewinds the stream to its first word, as the paper's batch
	// protocols require at each row boundary ("re-initialize rngJK with
	// seed rJK").
	Reseed()
}

// Kind selects a Stream implementation.
type Kind int

const (
	// KindXoshiro selects the xoshiro256** generator.
	KindXoshiro Kind = iota
	// KindAESCTR selects the AES-128-CTR keystream generator.
	KindAESCTR
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindXoshiro:
		return "xoshiro256**"
	case KindAESCTR:
		return "aes-ctr"
	default:
		return "unknown"
	}
}

// New constructs a Stream of the given kind from seed.
func New(kind Kind, seed Seed) Stream {
	switch kind {
	case KindAESCTR:
		return NewAESCTR(seed)
	default:
		return NewXoshiro(seed)
	}
}

// Uint64n returns a uniform value in [0, n) drawn from s, using rejection
// sampling so that the result is unbiased. It panics if n == 0.
func Uint64n(s Stream, n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	if n&(n-1) == 0 { // power of two: mask is exact
		return s.Next() & (n - 1)
	}
	// Reject draws from the final, partially covered block.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := s.Next()
		if v < max {
			return v % n
		}
	}
}

// BulkFiller is implemented by streams that can produce whole word
// vectors more cheaply than repeated Next calls (AESCTR decodes straight
// out of its keystream buffer). The filled words MUST be exactly the ones
// Next would have returned, in order.
type BulkFiller interface {
	FillUint64(dst []uint64)
}

// FillUint64 fills dst with the next len(dst) words of s — exactly
// equivalent to calling Next once per element, but batched so protocol
// hot paths can generate whole mask vectors per call.
func FillUint64(s Stream, dst []uint64) {
	if f, ok := s.(BulkFiller); ok {
		f.FillUint64(dst)
		return
	}
	for i := range dst {
		dst[i] = s.Next()
	}
}

// FillInt64n fills dst with successive Int64n(s, n) draws. Rejection
// sampling makes each draw consume a data-dependent number of words, so
// the batch must stay sequential; the win is amortizing call overhead and
// letting callers precompute a mask vector once per row block.
func FillInt64n(s Stream, dst []int64, n int64) {
	if n <= 0 {
		panic("rng: FillInt64n with n <= 0")
	}
	un := uint64(n)
	if un&(un-1) == 0 { // power of two: every draw is exactly one word
		mask := un - 1
		if f, ok := s.(BulkFiller); ok {
			var buf [512]uint64
			for off := 0; off < len(dst); {
				k := len(dst) - off
				if k > len(buf) {
					k = len(buf)
				}
				f.FillUint64(buf[:k])
				for i := 0; i < k; i++ {
					dst[off+i] = int64(buf[i] & mask)
				}
				off += k
			}
			return
		}
		for i := range dst {
			dst[i] = int64(s.Next() & mask)
		}
		return
	}
	for i := range dst {
		dst[i] = Int64n(s, n)
	}
}

// FillFloat64 fills dst with successive Float64(s) draws — each consumes
// exactly one word, so the bulk word path applies.
func FillFloat64(s Stream, dst []float64) {
	if f, ok := s.(BulkFiller); ok {
		var buf [512]uint64
		for off := 0; off < len(dst); {
			k := len(dst) - off
			if k > len(buf) {
				k = len(buf)
			}
			f.FillUint64(buf[:k])
			for i := 0; i < k; i++ {
				dst[off+i] = float64(buf[i]>>11) * (1.0 / (1 << 53))
			}
			off += k
		}
		return
	}
	for i := range dst {
		dst[i] = Float64(s)
	}
}

// FillIntn fills dst with successive Uint64n(s, n) draws as ints — the
// batched form of Symbol, used to precompute the alphanumeric protocol's
// shared mask prefix once instead of once per string or CCM row.
// Power-of-two sizes consume exactly one word per draw and take the bulk
// word path; other sizes stay sequential (rejection sampling).
func FillIntn(s Stream, dst []int, n int) {
	if n <= 0 {
		panic("rng: FillIntn with n <= 0")
	}
	un := uint64(n)
	if un&(un-1) == 0 {
		mask := un - 1
		if f, ok := s.(BulkFiller); ok {
			var buf [512]uint64
			for off := 0; off < len(dst); {
				k := len(dst) - off
				if k > len(buf) {
					k = len(buf)
				}
				f.FillUint64(buf[:k])
				for i := 0; i < k; i++ {
					dst[off+i] = int(buf[i] & mask)
				}
				off += k
			}
			return
		}
		for i := range dst {
			dst[i] = int(s.Next() & mask)
		}
		return
	}
	for i := range dst {
		dst[i] = int(Uint64n(s, uint64(n)))
	}
}

// Int64n returns a uniform value in [0, n) for n > 0.
func Int64n(s Stream, n int64) int64 {
	if n <= 0 {
		panic("rng: Int64n with n <= 0")
	}
	return int64(Uint64n(s, uint64(n)))
}

// Int64Range returns a uniform value in [lo, hi] inclusive. It panics when
// lo > hi.
func Int64Range(s Stream, lo, hi int64) int64 {
	if lo > hi {
		panic("rng: Int64Range with lo > hi")
	}
	span := uint64(hi-lo) + 1
	if span == 0 { // full 64-bit range
		return int64(s.Next())
	}
	return lo + int64(Uint64n(s, span))
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func Float64(s Stream) float64 {
	return float64(s.Next()>>11) * (1.0 / (1 << 53))
}

// NormFloat64 returns a standard normal draw using the Marsaglia polar
// method. It consumes a variable (even) number of stream words but is fully
// deterministic given the stream position.
func NormFloat64(s Stream) float64 {
	for {
		u := 2*Float64(s) - 1
		v := 2*Float64(s) - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Symbol returns a uniform alphabet index in [0, size). It is the draw used
// by the alphanumeric protocol's disguise vector.
func Symbol(s Stream, size int) int {
	if size <= 0 {
		panic("rng: Symbol with size <= 0")
	}
	return int(Uint64n(s, uint64(size)))
}

// Bool returns a uniform boolean, consuming one stream word.
func Bool(s Stream) bool {
	return s.Next()&1 == 1
}

// Perm returns a uniform random permutation of [0, n), Fisher–Yates shuffled.
func Perm(s Stream, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(Uint64n(s, uint64(i+1)))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// splitmix64 is the seeding expander recommended by the xoshiro authors.
// It advances *state and returns the next output.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
