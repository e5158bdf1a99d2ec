package protocol

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ppclust/internal/rng"
)

// rowAxisForms runs one arithmetic variant with the initiator on the row
// axis: the initiator's disguise of ys, the responder's rows [lo, lo+rows)
// against xs, and the third party's evaluation of those rows as a frame
// carries them.
type rowAxisForms struct {
	name     string
	initiate func(e *Engine, ys []int64, cols int, jk, jt rng.Stream, mode Mode) (any, error)
	respond  func(e *Engine, disg any, xs []int64, lo, rows int, jk rng.Stream, mode Mode) (NumericChunk, error)
	evaluate func(e *Engine, c NumericChunk, lo, hi int, jt rng.Stream, mode Mode) (RowFunc, error)
	advance  func(e *Engine, jt rng.Stream, rows, cols int, mode Mode)
}

func floatsOf(vs []int64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v) / 7
	}
	return out
}

var rowAxisVariants = []rowAxisForms{{
	name: "int64",
	initiate: func(e *Engine, ys []int64, cols int, jk, jt rng.Stream, mode Mode) (any, error) {
		return e.NumericInitiatorRowsInt(ys, cols, jk, jt, DefaultIntParams, mode)
	},
	respond: func(e *Engine, disg any, xs []int64, lo, rows int, jk rng.Stream, mode Mode) (NumericChunk, error) {
		var s Int64Matrix
		err := e.NumericResponderColsIntRows(&s, disg.(*Int64Matrix), xs, lo, rows, jk, DefaultIntParams, mode)
		return leChunk(s.Cell, 0, rows, len(xs)), err
	},
	evaluate: func(e *Engine, c NumericChunk, lo, hi int, jt rng.Stream, mode Mode) (RowFunc, error) {
		return e.NumericThirdPartyIntChunk(c, lo, hi, jt, DefaultIntParams, mode, InitiatorRows)
	},
	advance: func(e *Engine, jt rng.Stream, rows, cols int, mode Mode) {
		e.AdvanceThirdPartyInt(jt, rows, cols, DefaultIntParams, mode, InitiatorRows)
	},
}, {
	name: "float64",
	initiate: func(e *Engine, ys []int64, cols int, jk, jt rng.Stream, mode Mode) (any, error) {
		return e.NumericInitiatorRowsFloat(floatsOf(ys), cols, jk, jt, DefaultFloatParams, mode)
	},
	respond: func(e *Engine, disg any, xs []int64, lo, rows int, jk rng.Stream, mode Mode) (NumericChunk, error) {
		var s Float64Matrix
		err := e.NumericResponderColsFloatRows(&s, disg.(*Float64Matrix), floatsOf(xs), lo, rows, jk, DefaultFloatParams, mode)
		return leChunk(s.Cell, 0, rows, len(xs)), err
	},
	evaluate: func(e *Engine, c NumericChunk, lo, hi int, jt rng.Stream, mode Mode) (RowFunc, error) {
		return e.NumericThirdPartyFloatChunk(c, lo, hi, jt, DefaultFloatParams, mode, InitiatorRows)
	},
	advance: func(e *Engine, jt rng.Stream, rows, cols int, mode Mode) {
		e.AdvanceThirdPartyFloat(jt, rows, cols, DefaultFloatParams, mode, InitiatorRows)
	},
}, {
	name: "modp",
	initiate: func(e *Engine, ys []int64, cols int, jk, jt rng.Stream, mode Mode) (any, error) {
		return e.NumericInitiatorRowsModP(ys, cols, jk, jt, mode)
	},
	respond: func(e *Engine, disg any, xs []int64, lo, rows int, jk rng.Stream, mode Mode) (NumericChunk, error) {
		var s ElementMatrix
		err := e.NumericResponderColsModPRows(&s, disg.(*ElementMatrix), xs, lo, rows, jk, mode)
		return elemChunk(s.Cell, 0, rows, len(xs)), err
	},
	evaluate: func(e *Engine, c NumericChunk, lo, hi int, jt rng.Stream, mode Mode) (RowFunc, error) {
		return e.NumericThirdPartyModPChunk(c, lo, hi, jt, mode, InitiatorRows)
	},
	advance: func(e *Engine, jt rng.Stream, rows, cols int, mode Mode) {
		e.AdvanceThirdPartyModP(jt, rows, cols, mode, InitiatorRows)
	},
}}

// TestRowAxisRecoversDistances: with the initiator's objects on the rows,
// the responder combining a chunk at a time and the third party evaluating
// each chunk — or only the rows from some start on, after advancing — the
// third party recovers |y_m − x_n| at every (m, n): exactly in the integer
// variants, within the float protocol's error otherwise, and bit for bit the
// same at every chunking and start. The batch-mode disguise is one cell per
// row.
func TestRowAxisRecoversDistances(t *testing.T) {
	const m, n = 9, 13 // row (initiator) and column (responder) counts
	s := rng.NewXoshiro(rng.SeedFromUint64(4242))
	ys, xs := make([]int64, m), make([]int64, n)
	for i := range ys {
		ys[i] = rng.Int64Range(s, -500, 500)
	}
	for i := range xs {
		xs[i] = rng.Int64Range(s, -500, 500)
	}
	seedJK, seedKT := rng.SeedFromUint64(81), rng.SeedFromUint64(82)
	e := NewEngine(2)
	for _, f := range rowAxisVariants {
		for _, mode := range []Mode{Batch, PerPair} {
			disg, err := f.initiate(e, ys, n, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedKT), mode)
			if err != nil {
				t.Fatal(err)
			}
			var first []float64
			for _, start := range []int{0, 4} {
				for _, per := range []int{1, 4, m} {
					name := fmt.Sprintf("%s %v start=%d per=%d", f.name, mode, start, per)
					jk, jt := rng.NewAESCTR(seedJK), rng.NewAESCTR(seedKT)
					rng.FillUint64(jk, make([]uint64, start*RowWidth(n, mode)))
					f.advance(e, jt, start, n, mode)
					var got []float64
					for _, ch := range rowRanges(m-start, per) {
						lo, hi := start+ch[0], start+ch[1]
						c, err := f.respond(e, disg, xs, lo, hi-lo, jk, mode)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						row, err := f.evaluate(e, c, lo, hi, jt, mode)
						got = append(got, evalRows(t, row, err, hi-lo, n)...)
					}
					for i, d := range got {
						r, col := start+i/n, i%n
						want := math.Abs(float64(ys[r] - xs[col]))
						if f.name == "float64" {
							want /= 7
						}
						if math.Abs(d-want) > 1e-9 || (f.name != "float64" && d != want) {
							t.Fatalf("%s: cell (%d,%d) = %v, want %v", name, r, col, d, want)
						}
					}
					if start == 0 && first == nil {
						first = got
					}
					if !slices.Equal(got, first[start*n:]) {
						t.Fatalf("%s: cells differ from the one-row chunking's", name)
					}
				}
			}
		}
	}
}

// TestRowAxisDisguiseShape: batch mode disguises each row object once,
// per-pair mode once per cell, and the combine refuses a disguise of any
// other width or rows it does not hold.
func TestRowAxisDisguiseShape(t *testing.T) {
	e := NewEngine(1)
	jk, jt := rng.NewAESCTR(rng.SeedFromUint64(1)), rng.NewAESCTR(rng.SeedFromUint64(2))
	for _, tc := range []struct {
		mode Mode
		cols int
	}{{Batch, 1}, {PerPair, 5}} {
		d, err := e.NumericInitiatorRowsInt([]int64{1, 2, 3}, 5, jk, jt, DefaultIntParams, tc.mode)
		if err != nil {
			t.Fatal(err)
		}
		if d.Rows != 3 || d.Cols != tc.cols {
			t.Fatalf("%v: disguise is %dx%d, want 3x%d", tc.mode, d.Rows, d.Cols, tc.cols)
		}
		var s Int64Matrix
		if err := e.NumericResponderColsIntRows(&s, d, make([]int64, 5), 2, 2, jk, DefaultIntParams, tc.mode); err == nil {
			t.Fatalf("%v: rows past the disguise accepted", tc.mode)
		}
		if err := e.NumericResponderColsIntRows(&s, d, make([]int64, 4), 0, 1, jk, DefaultIntParams, PerPair); err == nil {
			t.Fatalf("%v: a disguise of the wrong width accepted", tc.mode)
		}
	}
}
