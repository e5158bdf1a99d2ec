// Package costmodel evaluates the closed-form communication costs of the
// paper's Sections 4.1–4.3 and the Atallah et al. [8] comparator, for the
// cost experiments (E6–E8, E14) that check measured wire traffic against
// the stated asymptotics.
//
// Costs are expressed in *elements* (matrix entries, symbols, tags) and in
// bytes under a given element width, so the experiments can separate the
// protocol's intrinsic growth from wire-format constants.
package costmodel

import (
	"fmt"

	"ppclust/internal/alphabet"
	"ppclust/internal/protocol"
)

// Numeric protocol (Section 4.1). With initiator size n and responder size
// m: the initiator sends its local dissimilarity matrix, O(n²), plus the
// disguised vector, O(n); the responder sends its local matrix, O(m²), plus
// the pairwise comparison matrix, O(m·n).

// NumericInitiatorElems returns (local matrix, protocol) element counts for
// an initiator with n objects under the given mode ("O(n²+n)").
func NumericInitiatorElems(n, m int, perPair bool) (local, proto int64) {
	local = int64(n) * int64(n-1) / 2
	proto = int64(n)
	if perPair {
		proto = int64(n) * int64(m)
	}
	return local, proto
}

// NumericResponderElems returns (local matrix, protocol) element counts for
// a responder with m objects against an initiator with n ("O(m²+m·n)").
func NumericResponderElems(n, m int) (local, proto int64) {
	return int64(m) * int64(m-1) / 2, int64(m) * int64(n)
}

// Alphanumeric protocol (Section 4.2). With n initiator strings of length
// ≤ p and m responder strings of length ≤ q: the initiator sends its local
// matrix, O(n²), plus disguised strings, O(n·p); the responder sends its
// local matrix, O(m²), plus the intermediary CCMs, O(m·q·n·p).

// AlphaInitiatorElems returns (local, protocol) element counts for an
// initiator with n strings of length p ("O(n²+n·p)").
func AlphaInitiatorElems(n, p int) (local, proto int64) {
	return int64(n) * int64(n-1) / 2, int64(n) * int64(p)
}

// AlphaResponderElems returns (local, protocol) element counts for a
// responder with m strings of length q ("O(m²+m·q·n·p)").
func AlphaResponderElems(n, p, m, q int) (local, proto int64) {
	return int64(m) * int64(m-1) / 2, int64(m) * int64(q) * int64(n) * int64(p)
}

// AlphaInitiatorBytes is the initiator's protocol payload in bytes: n
// disguised strings of p symbols, each a row of protocol.AlphaCellBits(a)
// bits a symbol padded to a whole byte — the slab protocol.AlphaStrings
// carries, headers excluded.
func AlphaInitiatorBytes(a *alphabet.Alphabet, n, p int) int64 {
	return int64(n) * int64(protocol.AlphaRowBytes(p, protocol.AlphaCellBits(a)))
}

// AlphaResponderBytes is the responder's protocol payload in bytes: m·n
// intermediary matrices of q rows of p cells, each row at
// protocol.AlphaCellBits(a) bits a cell padded to a whole byte — the slabs
// protocol.AlphaChunk carries, headers excluded.
func AlphaResponderBytes(a *alphabet.Alphabet, n, p, m, q int) int64 {
	return int64(m) * int64(n) * int64(q) * int64(protocol.AlphaRowBytes(p, protocol.AlphaCellBits(a)))
}

// CategoricalElems returns the element count for a holder with n objects
// ("O(n)", Section 4.3).
func CategoricalElems(n int) int64 { return int64(n) }

// Bytes converts an element count to bytes under a fixed element width.
func Bytes(elems int64, width int) int64 { return elems * int64(width) }

// Widths of the wire representations used by this implementation. The
// alphanumeric protocol's width is its alphabet's (AlphaInitiatorBytes,
// AlphaResponderBytes).
const (
	// Float64Width is the numeric protocol's float64 element.
	Float64Width = 8
	// Int64Width is the numeric protocol's int64 element.
	Int64Width = 8
	// ModPWidth is the mod-p protocol's 32-byte field element.
	ModPWidth = 32
	// TagWidth is the categorical protocol's HMAC-SHA256 tag.
	TagWidth = 32
)

// AtallahModel parameterizes the secure edit-distance comparator of
// Atallah, Kerschbaum and Du [8], which the paper dismisses as "not
// feasible for clustering private data due to high communication costs".
// Their protocol evaluates the DP table under additively homomorphic
// encryption: every cell of the (p+1)×(q+1) table costs a constant number
// of ciphertext exchanges for the blinded minimum selection.
type AtallahModel struct {
	// CiphertextBytes is the width of one homomorphic ciphertext
	// (128 bytes for Paillier-1024, 256 for Paillier-2048).
	CiphertextBytes int
	// CiphertextsPerCell is the ciphertext traffic per DP cell; the
	// minimum-finding subprotocol costs a small constant (≥3: one per
	// candidate plus the comparison exchange).
	CiphertextsPerCell int
}

// DefaultAtallah models Paillier-1024 with 3 ciphertexts per DP cell.
var DefaultAtallah = AtallahModel{CiphertextBytes: 128, CiphertextsPerCell: 3}

// PairBytes is the comparator's traffic for ONE string pair (p, q).
func (a AtallahModel) PairBytes(p, q int) int64 {
	return int64(p+1) * int64(q+1) * int64(a.CiphertextsPerCell) * int64(a.CiphertextBytes)
}

// TotalBytes is the comparator's traffic for all m×n cross-site pairs.
func (a AtallahModel) TotalBytes(n, p, m, q int) int64 {
	return int64(n) * int64(m) * a.PairBytes(p, q)
}

// OursAlphaTotalBytes is this implementation's alphanumeric traffic for the
// same workload over alphabet a: disguised strings plus intermediary
// matrices.
func OursAlphaTotalBytes(a *alphabet.Alphabet, n, p, m, q int) int64 {
	return AlphaInitiatorBytes(a, n, p) + AlphaResponderBytes(a, n, p, m, q)
}

// FitScale finds c minimizing Σ(measured − c·predicted)² and returns c with
// the maximum relative deviation |measured − c·predicted| / (c·predicted).
// The experiments use it to check that measured traffic follows the model's
// growth with a single constant.
func FitScale(measured, predicted []float64) (scale, maxRelDev float64, err error) {
	if len(measured) != len(predicted) || len(measured) == 0 {
		return 0, 0, fmt.Errorf("costmodel: need equal-length non-empty series")
	}
	var num, den float64
	for i := range measured {
		num += measured[i] * predicted[i]
		den += predicted[i] * predicted[i]
	}
	if den == 0 {
		return 0, 0, fmt.Errorf("costmodel: zero predictions")
	}
	scale = num / den
	for i := range measured {
		p := scale * predicted[i]
		if p == 0 {
			return 0, 0, fmt.Errorf("costmodel: zero prediction at %d", i)
		}
		dev := (measured[i] - p) / p
		if dev < 0 {
			dev = -dev
		}
		if dev > maxRelDev {
			maxRelDev = dev
		}
	}
	return scale, maxRelDev, nil
}
