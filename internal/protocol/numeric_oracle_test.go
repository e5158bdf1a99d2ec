package protocol

import (
	"encoding/binary"
	"math"

	"ppclust/internal/modp"
	"ppclust/internal/rng"
)

// The numeric protocol by the paper's per-cell formula, kept as the
// reference Numeric is compared with: for every cell of a block, the
// disguise R + σx (Figure 4), then s = disguise + σ̄y (Figure 5), then
// |s − R| (Figure 6). It draws one mask and one parity per disguised cell,
// one at a time, in the order the session reads the streams, and shares
// nothing with Engine or Numeric but the generators.

// oracleArith is one arithmetic's cell type T under the formula: masks
// draws k masks from jt, add returns c ± x, put appends a cell in the
// wire layout, and abs decodes |s − r|.
type oracleArith[T any] struct {
	masks func(jt rng.Stream, k int) []T
	add   func(c T, x float64, neg bool) T
	put   func(dst []byte, c T) []byte
	abs   func(s, r T) float64
}

var (
	oracleFloat = oracleArith[float64]{
		masks: func(jt rng.Stream, k int) []float64 {
			out := make([]float64, k)
			for i := range out {
				out[i] = rng.Float64(jt) * DefaultFloatParams.MaskRange
			}
			return out
		},
		add: func(c, x float64, neg bool) float64 {
			if neg {
				return c - x
			}
			return c + x
		},
		put: func(dst []byte, c float64) []byte { return binary.LittleEndian.AppendUint64(dst, math.Float64bits(c)) },
		abs: func(s, r float64) float64 { return math.Abs(s - r) },
	}
	oracleInt = oracleArith[int64]{
		masks: func(jt rng.Stream, k int) []int64 {
			out := make([]int64, k)
			for i := range out {
				out[i] = rng.Int64n(jt, Int64MaskRange)
			}
			return out
		},
		add: func(c int64, x float64, neg bool) int64 {
			if neg {
				return c - int64(x)
			}
			return c + int64(x)
		},
		put: func(dst []byte, c int64) []byte { return binary.LittleEndian.AppendUint64(dst, uint64(c)) },
		abs: func(s, r int64) float64 { return math.Abs(float64(s - r)) },
	}
	oracleModP = oracleArith[modp.Element]{
		masks: func(jt rng.Stream, k int) []modp.Element {
			out := make([]modp.Element, k)
			for i := range out {
				out[i] = modp.Random(jt)
			}
			return out
		},
		add: func(c modp.Element, x float64, neg bool) modp.Element {
			e := modp.FromInt64(int64(x))
			if neg {
				e = e.Neg()
			}
			return c.Add(e)
		},
		put: func(dst []byte, c modp.Element) []byte {
			b := c.Bytes()
			return append(dst, b[:]...)
		},
		abs: func(s, r modp.Element) float64 {
			d, err := s.Sub(r).AbsInt64()
			if err != nil {
				return math.NaN() // equal to nothing the session recovers
			}
			return float64(d)
		},
	}
)

// oracleNumeric runs one block of len(ys) rows and len(xs) columns with
// the initiator on the given axis — its objects are xs on the columns, ys
// on the rows — from the shared streams jk and jt, and returns the
// disguise, S and the distances in the session's layouts.
func oracleNumeric(v Variant, mode Mode, axis Axis, xs, ys []float64, jk, jt rng.Stream) numericPass {
	switch v {
	case Float64Variant:
		return oracleRun(oracleFloat, mode, axis, xs, ys, jk, jt)
	case Int64Variant:
		return oracleRun(oracleInt, mode, axis, xs, ys, jk, jt)
	}
	return oracleRun(oracleModP, mode, axis, xs, ys, jk, jt)
}

func oracleRun[T any](a oracleArith[T], mode Mode, axis Axis, xs, ys []float64, jk, jt rng.Stream) numericPass {
	m, n := len(ys), len(xs)
	// draw(r, c) is the disguised cell — the mask and parity — cell (r, c)
	// of the block reads, and x(k) the initiator value disguised cell k
	// carries: one cell per block cell in per-pair mode; in batch mode one
	// per column, which every row re-reads, with the initiator on the
	// columns, and one per row with it on the rows.
	draws, draw, x := m*n, func(r, c int) int { return r*n + c }, func(k int) float64 { return ys[k/n] }
	switch {
	case axis == InitiatorCols:
		x = func(k int) float64 { return xs[k%n] }
		if mode == Batch {
			draws, draw = n, func(_, c int) int { return c }
		}
	case mode == Batch:
		draws, draw, x = m, func(r, _ int) int { return r }, func(k int) float64 { return ys[k] }
		if n == 0 {
			draws = 0 // a row without cells disguises nothing
		}
	}
	y := func(r, c int) float64 { // the responder value of block cell (r, c)
		if axis == InitiatorCols {
			return ys[r]
		}
		return xs[c]
	}
	masks, parities := a.masks(jt, draws), make([]uint64, draws)
	for k := range parities {
		parities[k] = jk.Next()
	}
	var out numericPass
	disguise := make([]T, draws)
	for k := range disguise {
		disguise[k] = a.add(masks[k], x(k), parities[k]%2 == 1) // DHJ negates on an odd draw
		out.disguise = a.put(out.disguise, disguise[k])
	}
	for r := range m {
		for c := range n {
			k := draw(r, c)
			s := a.add(disguise[k], y(r, c), parities[k]%2 == 0) // DHK negates on an even one
			out.s = a.put(out.s, s)
			out.dist = append(out.dist, a.abs(s, masks[k]))
		}
	}
	return out
}
