package protocol

import (
	"fmt"

	"ppclust/internal/modp"
	"ppclust/internal/parallel"
	"ppclust/internal/rng"
)

// Figures 4–6 with the initiator on the row axis.
//
// The paper names DHJ the initiator and DHK the responder, and the third
// party recovers a block whose rows are DHK's objects and whose columns are
// DHJ's. Nothing in the protocol depends on which holder disguises first, so
// a session may swap the roles for a share of a block's rows and keep the
// block's orientation: DHK disguises its own values for those rows, DHJ
// combines them with its column values, and the rows the third party
// recovers are still DHK's objects, installed where the other share's are.
//
// With the initiator on the row axis every shared stream is read
// sequentially and never rewound, one draw per disguised cell: in batch mode
// each row object is disguised once — one mask and one parity per row,
// reused across the columns, the paper's batch discipline with the roles
// swapped — and in per-pair mode once per cell, row-major. Rows [lo, hi) of
// such a block take draws [lo·w, hi·w) of each stream, w being RowWidth: a
// pass over ascending row ranges on one stream takes exactly what one pass
// over the block would, and a party that starts mid-block first advances
// past the earlier rows (AdvanceThirdParty* with InitiatorRows).

// Axis names the axis of a pair block the initiator's objects lie on.
type Axis int

const (
	// InitiatorCols is Figures 4–6 as drawn: the initiator's objects are
	// the columns, and in batch mode every row re-reads one mask per
	// column.
	InitiatorCols Axis = iota
	// InitiatorRows swaps the roles and keeps the orientation: the
	// initiator's objects are the rows, and in batch mode each row has one
	// mask and one parity, shared by all of its cells.
	InitiatorRows
)

// RowWidth is how many draws one row of a block of cols columns takes from
// each shared stream when the initiator is on the row axis, and so how
// many cells the row's disguise has: one in batch mode (none when the row
// has no cells), one per cell in per-pair mode.
func RowWidth(cols int, mode Mode) int {
	if mode == PerPair || cols == 0 {
		return cols
	}
	return 1
}

// maskRow is row r's masks among a chunk's: the shared run every row
// re-reads (initiator on the columns, batch mode), the row's own run
// (per-pair mode), or — initiator on the rows, batch mode — the one mask
// the whole row shares, a run of length one.
func maskRow[T any](masks []T, r, cols int, mode Mode, axis Axis) []T {
	if axis == InitiatorRows {
		w := RowWidth(cols, mode)
		return masks[r*w : (r+1)*w]
	}
	return drawRow(masks, r, cols, mode)
}

// NumericInitiatorRowsInt is Figure 4 with the initiator's objects on the
// rows of the block: values holds one value per row, and the result holds
// RowWidth(cols, mode) disguised copies of each, out(m, c) = R + y_m·σ, a
// fresh mask from jt and parity from jk per cell, both streams read in
// order. cols is the responder's object count.
func (e *Engine) NumericInitiatorRowsInt(values []int64, cols int, jk, jt rng.Stream, params IntParams, mode Mode) (*Int64Matrix, error) {
	if err := params.validate(values); err != nil {
		return nil, err
	}
	w := RowWidth(cols, mode)
	out := NewInt64Matrix(len(values), w)
	masks := e.i64buf(len(out.Cell))
	rng.FillInt64n(jt, masks, params.MaskRange)
	initiateRows(e, out.Cell, masks, e.parities(jk, len(out.Cell)), values, w)
	return out, nil
}

// NumericInitiatorRowsFloat is the real-valued form of
// NumericInitiatorRowsInt.
func (e *Engine) NumericInitiatorRowsFloat(values []float64, cols int, jk, jt rng.Stream, params FloatParams, mode Mode) (*Float64Matrix, error) {
	if err := params.validate(values); err != nil {
		return nil, err
	}
	w := RowWidth(cols, mode)
	out := NewFloat64Matrix(len(values), w)
	masks := e.f64buf(len(out.Cell))
	rng.FillFloat64(jt, masks)
	for i := range masks {
		masks[i] *= params.MaskRange
	}
	initiateRows(e, out.Cell, masks, e.parities(jk, len(out.Cell)), values, w)
	return out, nil
}

// NumericInitiatorRowsModP is the Z_p form of NumericInitiatorRowsInt.
func (e *Engine) NumericInitiatorRowsModP(values []int64, cols int, jk, jt rng.Stream, mode Mode) (*ElementMatrix, error) {
	w := RowWidth(cols, mode)
	out := NewElementMatrix(len(values), w)
	masks := e.elembuf(len(out.Cell))
	for i := range masks {
		masks[i] = modp.Random(jt)
	}
	signs := e.parities(jk, len(out.Cell))
	parallel.Range(e.workers, len(values), func(_, lo, hi int) {
		for m := lo; m < hi; m++ {
			for c := m * w; c < (m+1)*w; c++ {
				y := modp.FromInt64(values[m])
				if negSignInitiator(signs[c]) < 0 {
					y = y.Neg()
				}
				out.Cell[c] = masks[c].Add(y).Bytes()
			}
		}
	})
	return out, nil
}

// parities draws n parities from jk into the engine's buffer.
func (e *Engine) parities(jk rng.Stream, n int) []uint64 {
	signs := e.u64buf(n)
	rng.FillUint64(jk, signs)
	return signs
}

// initiateRows is the arithmetic of Figure 4 with the values on the rows:
// out(m, c) = masks(m, c) + values[m]·σ(m, c) over rows of w cells.
func initiateRows[T int64 | float64](e *Engine, out, masks []T, signs []uint64, values []T, w int) {
	parallel.Range(e.workers, len(values), func(_, lo, hi int) {
		for m := lo; m < hi; m++ {
			y := values[m]
			for c := m * w; c < (m+1)*w; c++ {
				out[c] = masks[c] + y*T(negSignInitiator(signs[c]))
			}
		}
	})
}

// NumericResponderColsIntRows is Figure 5 for rows [lo, lo+rows) of a
// block whose initiator is on the row axis: the responder's values lie on
// the columns, one per column, disguised holds the initiator's disguised
// rows (RowWidth cells each), and s receives, in storage it reuses from call
// to call, the rows' cells s(m, n) = disguised(lo+m, ·) + x_n·σ̄ — the
// parity of cell (m, n) in per-pair mode, of row m in batch mode. jk
// advances by the rows' draws.
func (e *Engine) NumericResponderColsIntRows(s, disguised *Int64Matrix, values []int64, lo, rows int, jk rng.Stream, params IntParams, mode Mode) (err error) {
	if err = disguised.Validate(); err == nil {
		err = params.validate(values)
	}
	if err != nil {
		return err
	}
	s.Rows, s.Cols = rows, len(values)
	s.Cell, err = respondCols(e, s.Cell, disguised.Cell, disguised.Rows, disguised.Cols, values, lo, rows, jk, mode)
	return err
}

// NumericResponderColsFloatRows is the real-valued form of
// NumericResponderColsIntRows.
func (e *Engine) NumericResponderColsFloatRows(s, disguised *Float64Matrix, values []float64, lo, rows int, jk rng.Stream, params FloatParams, mode Mode) (err error) {
	if err = disguised.Validate(); err == nil {
		err = params.validate(values)
	}
	if err != nil {
		return err
	}
	s.Rows, s.Cols = rows, len(values)
	s.Cell, err = respondCols(e, s.Cell, disguised.Cell, disguised.Rows, disguised.Cols, values, lo, rows, jk, mode)
	return err
}

// NumericResponderColsModPRows is the Z_p form of
// NumericResponderColsIntRows.
func (e *Engine) NumericResponderColsModPRows(s, disguised *ElementMatrix, values []int64, lo, rows int, jk rng.Stream, mode Mode) error {
	if err := disguised.Validate(); err != nil {
		return err
	}
	cols := len(values)
	w := RowWidth(cols, mode)
	if err := disguisedRowsCover(disguised.Rows, disguised.Cols, w, lo, rows); err != nil {
		return err
	}
	s.Rows, s.Cols, s.Cell = rows, cols, resize(s.Cell, rows*cols)
	signs := e.parities(jk, rows*w)
	return parallel.RangeErr(e.workers, rows, func(_, from, to int) error {
		for m := from; m < to; m++ {
			for n, x := range values {
				c := m*w + min(n, w-1)
				d, err := modp.FromBytes(disguised.Cell[lo*w+c])
				if err != nil {
					return fmt.Errorf("protocol: disguised(%d,%d): %w", lo+m, c-m*w, err)
				}
				v := modp.FromInt64(x)
				if negSignResponder(signs[c]) < 0 {
					v = v.Neg()
				}
				s.Cell[m*cols+n] = d.Add(v).Bytes()
			}
		}
		return nil
	})
}

// respondCols is the arithmetic of Figure 5 with the responder's values on
// the columns, for both machine-word variants.
func respondCols[T int64 | float64](e *Engine, cell, disguised []T, dRows, dCols int, values []T, lo, rows int, jk rng.Stream, mode Mode) ([]T, error) {
	cols := len(values)
	w := RowWidth(cols, mode)
	if err := disguisedRowsCover(dRows, dCols, w, lo, rows); err != nil {
		return nil, err
	}
	cell = resize(cell, rows*cols)
	signs := e.parities(jk, rows*w)
	parallel.Range(e.workers, rows, func(_, from, to int) {
		for m := from; m < to; m++ {
			dst := cell[m*cols : (m+1)*cols]
			src, sign := disguised[(lo+m)*w:(lo+m+1)*w], signs[m*w:(m+1)*w]
			if w == 1 {
				d, s := src[0], T(negSignResponder(sign[0]))
				for n, x := range values {
					dst[n] = d + x*s
				}
				continue
			}
			for n, x := range values {
				dst[n] = src[n] + x*T(negSignResponder(sign[n]))
			}
		}
	})
	return cell, nil
}

// disguisedRowsCover checks that a disguised matrix with the initiator on
// the row axis — rows of w cells — holds rows [lo, lo+rows).
func disguisedRowsCover(dRows, dCols, w, lo, rows int) error {
	if dRows > 0 && dCols != w {
		return fmt.Errorf("protocol: disguised rows of %d cells, want %d", dCols, w)
	}
	if lo < 0 || rows < 0 || lo+rows > dRows {
		return fmt.Errorf("protocol: rows [%d,%d) outside the %d disguised rows", lo, lo+rows, dRows)
	}
	return nil
}
