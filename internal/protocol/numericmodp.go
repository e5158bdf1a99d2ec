package protocol

import (
	"fmt"

	"ppclust/internal/modp"
	"ppclust/internal/parallel"
	"ppclust/internal/rng"
)

// The mod-p numeric protocol is the hardened variant of Figures 4–6: the
// same message flow, but with values embedded in Z_p (p = 2^255−19) and
// masks drawn uniformly from the whole field. A uniform additive mask over
// Z_p is a one-time pad, so the disguised value x″ = R + σx mod p carries
// *no* information about x — strengthening the plain-integer variant, whose
// bounded mask range only hides x statistically. Recovery of |x−y| is exact
// whenever |x−y| < p/2.

// ElementMatrix is a dense row-major matrix of Z_p elements in fixed 32-byte
// wire encoding, exchanged by the mod-p protocol.
type ElementMatrix struct {
	Rows, Cols int
	Cell       [][32]byte
}

// NewElementMatrix allocates a zeroed rows×cols element matrix.
func NewElementMatrix(rows, cols int) *ElementMatrix {
	checkDims(rows, cols)
	return &ElementMatrix{Rows: rows, Cols: cols, Cell: make([][32]byte, rows*cols)}
}

// At decodes the element at row i, column j.
func (m *ElementMatrix) At(i, j int) (modp.Element, error) {
	return modp.FromBytes(m.Cell[i*m.Cols+j])
}

// Set stores the element at row i, column j.
func (m *ElementMatrix) Set(i, j int, e modp.Element) {
	m.Cell[i*m.Cols+j] = e.Bytes()
}

// Validate checks storage consistency.
func (m *ElementMatrix) Validate() error {
	if m.Rows < 0 || m.Cols < 0 || len(m.Cell) != m.Rows*m.Cols {
		return fmt.Errorf("protocol: inconsistent ElementMatrix %dx%d with %d cells", m.Rows, m.Cols, len(m.Cell))
	}
	return nil
}

// NumericInitiatorModP is Figure 4 with perfect-hiding masks: out(r, n) =
// R + σ·x_n in Z_p. See NumericInitiatorInt for the batch/per-pair contract.
func NumericInitiatorModP(values []int64, jk, jt rng.Stream, mode Mode, responderRows int) (*ElementMatrix, error) {
	return NewEngine(1).NumericInitiatorModP(values, jk, jt, mode, responderRows)
}

// NumericInitiatorModP is Figure 4 in Z_p on the engine: field masks and
// parities are drawn sequentially up front, the (comparatively expensive)
// big-integer arithmetic runs across the engine's workers.
func (eng *Engine) NumericInitiatorModP(values []int64, jk, jt rng.Stream, mode Mode, responderRows int) (*ElementMatrix, error) {
	rows := 1
	if mode == PerPair {
		if responderRows < 0 {
			return nil, fmt.Errorf("protocol: negative responderRows %d", responderRows)
		}
		rows = responderRows
	}
	cols := len(values)
	out := NewElementMatrix(rows, cols)
	total := rows * cols
	masks := eng.modpDraws(jt, total)
	signs := eng.u64buf(total)
	rng.FillUint64(jk, signs)
	parallel.Range(eng.workers, rows, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			base := r * cols
			for n, x := range values {
				e := modp.FromInt64(x)
				if negSignInitiator(signs[base+n]) < 0 {
					e = e.Neg()
				}
				out.Set(r, n, masks[base+n].Add(e))
			}
		}
	})
	return out, nil
}

// NumericResponderModP is Figure 5 in Z_p.
func NumericResponderModP(disguised *ElementMatrix, values []int64, jk rng.Stream, mode Mode) (*ElementMatrix, error) {
	return NewEngine(1).NumericResponderModP(disguised, values, jk, mode)
}

// NumericResponderModP is Figure 5 in Z_p on the engine; see
// NumericResponderInt.
func (eng *Engine) NumericResponderModP(disguised *ElementMatrix, values []int64, jk rng.Stream, mode Mode) (*ElementMatrix, error) {
	if err := disguised.Validate(); err != nil {
		return nil, err
	}
	rows, cols := len(values), disguised.Cols
	if err := disguisedCovers(disguised.Rows, rows, mode); err != nil {
		return nil, err
	}
	s := NewElementMatrix(rows, cols)
	signs := eng.signs(jk, rows, cols, mode)
	err := parallel.RangeErr(eng.workers, rows, func(_, from, to int) error {
		for m := from; m < to; m++ {
			srcRow, sign := drawIndex(m, mode), drawRow(signs, m, cols, mode)
			for n := 0; n < cols; n++ {
				d, err := disguised.At(srcRow, n)
				if err != nil {
					return fmt.Errorf("protocol: disguised(%d,%d): %w", srcRow, n, err)
				}
				e := modp.FromInt64(values[m])
				if negSignResponder(sign[n]) < 0 {
					e = e.Neg()
				}
				s.Set(m, n, d.Add(e))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// NumericThirdPartyModP is Figure 6 in Z_p: subtract the regenerated mask
// and decode |x−y| from the signed embedding.
func NumericThirdPartyModP(s *ElementMatrix, jt rng.Stream, mode Mode) (*Int64Matrix, error) {
	return NewEngine(1).NumericThirdPartyModP(s, jt, mode)
}

// NumericThirdPartyModP is Figure 6 in Z_p on the engine: the batch-mode
// field-mask prefix is regenerated once instead of once per row, and the
// big-integer mask stripping runs across the engine's workers.
func (eng *Engine) NumericThirdPartyModP(s *ElementMatrix, jt rng.Stream, mode Mode) (*Int64Matrix, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rows, cols := s.Rows, s.Cols
	out := NewInt64Matrix(rows, cols)
	masks := eng.modpMasks(jt, rows, cols, mode, InitiatorCols)
	err := parallel.RangeErr(eng.workers, rows, func(_, lo, hi int) error {
		for m := lo; m < hi; m++ {
			mask := drawRow(masks, m, cols, mode)
			for n := 0; n < cols; n++ {
				abs, err := unmaskModP(s.Cell[m*cols+n], mask[n], m, n)
				if err != nil {
					return err
				}
				out.Set(m, n, abs)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// modpMasks is the Z_p form of intMasks.
func (eng *Engine) modpMasks(jt rng.Stream, rows, cols int, mode Mode, axis Axis) []modp.Element {
	return keystream(jt, func(n int) []modp.Element { return eng.modpDraws(jt, n) }, rows, cols, mode, axis)
}

// modpDraws is the Z_p form of intDraws.
func (eng *Engine) modpDraws(jt rng.Stream, n int) []modp.Element {
	m := eng.elembuf(n)
	for i := range m {
		m[i] = modp.Random(jt)
	}
	return m
}

// unmaskModP strips the mask from the cell at chunk position (m, n) and
// decodes |x−y| from the signed embedding.
func unmaskModP(cell [32]byte, mask modp.Element, m, n int) (int64, error) {
	v, err := modp.FromBytes(cell)
	if err != nil {
		return 0, fmt.Errorf("protocol: s(%d,%d): %w", m, n, err)
	}
	abs, err := v.Sub(mask).AbsInt64()
	if err != nil {
		return 0, fmt.Errorf("protocol: decoding distance (%d,%d): %w", m, n, err)
	}
	return abs, nil
}
