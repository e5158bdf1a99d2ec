// Package costmodel evaluates the closed-form communication costs of the
// paper's Sections 4.1–4.3 and the Atallah et al. [8] comparator, for the
// cost experiments (E6–E8, E14) that check measured wire traffic against
// the stated asymptotics. It also holds the rule that cuts each numeric
// pair block between its two holders (SplitRows), which the session runs
// and the numeric model counts, so the two cannot drift apart.
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

// Numeric protocol (Section 4.1). With initiator J holding n_j objects
// and responder K holding n_k, Figures 4–6 make J send K its disguised
// values, O(n_j), and K send the third party the pair's comparison block
// S, O(n_k·n_j); each holder also sends its local triangle, O(n²). The
// session cuts each block at a responder row h (SplitRows): K produces
// rows [0, h) as the paper has it, and J rows [h, n_k) with the roles
// swapped, K disguising its values for those rows and J combining them.

// SplitRows plans the numeric split row of every pair, in order: each
// holder's load starts at its local triangle, and each pair's block goes
// to whichever split leaves the larger of its two holders' loads smallest
// (ties keep rows with the responder), given the loads the earlier pairs
// left. With two holders that equalises the two loads to within one row;
// with more, no holder ends up carrying more than the most loaded holder
// carried when every responder produced its whole blocks. An empty
// initiator's block has no cells to move and stays whole.
func SplitRows(counts []int, pairs [][2]int) []int {
	load := make([]int, len(counts))
	for i, n := range counts {
		load[i] = n * (n - 1) / 2
	}
	split := make([]int, len(pairs))
	for p, pr := range pairs {
		j, k := pr[0], pr[1]
		nj, nk := counts[j], counts[k]
		worst := func(h int) int { return max(load[j]+(nk-h)*nj, load[k]+h*nj) }
		h := nk
		if nj > 0 {
			// The loads meet at (load_J − load_K + n_k·n_j) / (2·n_j); of the
			// rows either side, take the better.
			h = min(max((load[j]-load[k]+nk*nj)/(2*nj), 0), nk)
			if h < nk && worst(h+1) <= worst(h) {
				h++
			}
		}
		split[p] = h
		load[j] += (nk - h) * nj
		load[k] += h * nj
	}
	return split
}

// NumericPairElems counts the elements one pair block of a numeric
// attribute puts on each of its holders' links when cut at responder row
// h, for an initiator J with nj objects and a responder K with nk:
//   - jk, J's disguise to K for the rows [0, h): its nj values once
//     (batch) or once a row (per-pair);
//   - kj, K's disguise to J for the rows [h, nk): a value a row (batch) or
//     nj a row (per-pair);
//   - jt and kt, the rows of S that J and K stream to the third party:
//     (nk − h)·nj and h·nj.
func NumericPairElems(nj, nk, h int, perPair bool) (jk, kj, jt, kt int64) {
	rowsJ, widthK := min(int64(h), 1), min(int64(nj), 1)
	if perPair {
		rowsJ, widthK = int64(h), int64(nj)
	}
	rest := int64(nk - h)
	return rowsJ * int64(nj), rest * widthK, rest * int64(nj), int64(h) * int64(nj)
}

// NumericLinkElems counts what each holder of a session sends for one
// numeric attribute, every pair block cut where SplitRows cuts it: toTP[i]
// is holder i's local triangle plus its rows of every block it is in,
// toPeer[i][j] its disguises for holder j. Holders are in session order,
// and pairs (j, k), j < k, are planned in ascending order.
func NumericLinkElems(counts []int, perPair bool) (toTP []int64, toPeer [][]int64) {
	var pairs [][2]int
	toTP, toPeer = make([]int64, len(counts)), make([][]int64, len(counts))
	for j, n := range counts {
		toTP[j], toPeer[j] = triangle(n), make([]int64, len(counts))
		for k := j + 1; k < len(counts); k++ {
			pairs = append(pairs, [2]int{j, k})
		}
	}
	for p, h := range SplitRows(counts, pairs) {
		j, k := pairs[p][0], pairs[p][1]
		jk, kj, jt, kt := NumericPairElems(counts[j], counts[k], h, perPair)
		toPeer[j][k], toPeer[k][j] = jk, kj
		toTP[j] += jt
		toTP[k] += kt
	}
	return toTP, toPeer
}

// triangle is the element count of a holder's local dissimilarity matrix
// over n objects, n(n−1)/2.
func triangle(n int) int64 { return int64(n) * int64(n-1) / 2 }

// Alphanumeric protocol (Section 4.2). With n initiator strings of length
// ≤ p and m responder strings of length ≤ q: the initiator sends its local
// matrix, O(n²), plus disguised strings, O(n·p); the responder sends its
// local matrix, O(m²), plus the intermediary CCMs, O(m·q·n·p).

// AlphaInitiatorElems returns (local, protocol) element counts for an
// initiator with n strings of length p ("O(n²+n·p)").
func AlphaInitiatorElems(n, p int) (local, proto int64) {
	return triangle(n), int64(n) * int64(p)
}

// AlphaResponderElems returns (local, protocol) element counts for a
// responder with m strings of length q ("O(m²+m·q·n·p)").
func AlphaResponderElems(n, p, m, q int) (local, proto int64) {
	return triangle(m), int64(m) * int64(q) * int64(n) * int64(p)
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
