package protocol

import (
	"fmt"
	"math"

	"ppclust/internal/parallel"
	"ppclust/internal/rng"
)

// Mode selects how the numeric and alphanumeric protocols consume their
// shared random streams.
type Mode int

const (
	// Batch is the paper's default (Figures 4–6): the initiator disguises
	// each of its n values once, and the same masks are reused across all
	// of the responder's rows (the responder and third party re-initialize
	// their generators at each row boundary). Communication at the
	// initiator is O(n), but the reuse opens the frequency-analysis attack
	// the paper acknowledges in Section 4.1.
	Batch Mode = iota
	// PerPair uses "unique random numbers for each object pair", the
	// countermeasure the paper offers against the frequency attack. The
	// initiator disguises its vector once per responder row (m·n masks,
	// row-major) and nobody re-initializes mid-protocol. Communication at
	// the initiator grows to O(m·n).
	PerPair
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Batch:
		return "batch"
	case PerPair:
		return "per-pair"
	default:
		return "unknown"
	}
}

// The int64 arithmetic's bounds: masks are drawn uniformly from
// [0, Int64MaskRange) and inputs must satisfy |x| ≤ intMaxMagnitude, so
// every intermediate sum mask ± x ∓ y stays clear of int64 overflow. The
// third party regenerates the masks with the same range, and so does an
// attack simulation in its position (attack.FrequencyAttack).
const (
	Int64MaskRange  = 1 << 62
	intMaxMagnitude = 1 << 40
)

// FloatParams bounds the real-valued numeric protocol. Masks are drawn
// uniformly from [0, MaskRange). Because IEEE-754 addition is lossy, the
// mask range trades privacy margin against precision: with MaskRange = 2^20
// and data of unit scale, recovered distances are exact to ≈2^-32. The
// paper's protocol for reals is otherwise identical to the integer one
// ("only [the] data type of the vector DH'J and the random numbers ... need
// to be changed").
type FloatParams struct {
	MaskRange float64
}

// DefaultFloatParams masks with 2^20 of range, adequate for unit-scale data:
// the float64 arithmetic's mask range.
var DefaultFloatParams = FloatParams{MaskRange: 1 << 20}

// negSignInitiator maps a shared rngJK draw to the initiator's sign: the
// paper negates DHJ's input when the draw is odd (Figure 4's −1^(R%2)).
func negSignInitiator(draw uint64) int64 {
	if draw&1 == 1 {
		return -1
	}
	return 1
}

// negSignResponder is the complement: DHK negates when the draw is even
// (Figure 5's −1^((R+1)%2)), so exactly one side negates for every pair.
func negSignResponder(draw uint64) int64 {
	if draw&1 == 0 {
		return -1
	}
	return 1
}

// keystream draws what a protocol step over rows×cols cells of a block
// consumes of a shared generator, through draw, into an engine buffer: one
// value per cell in per-pair mode; in batch mode one row's worth, re-read by
// every row, when the initiator is on the columns (the stream is left
// rewound), and one value per row, read on, when it is on the rows.
func keystream[T any](g rng.Stream, draw func(n int) []T, rows, cols int, mode Mode, axis Axis) []T {
	if rows == 0 {
		return nil
	}
	n := cols
	switch {
	case axis == InitiatorRows:
		n = rows * RowWidth(cols, mode)
	case mode == PerPair:
		n = rows * cols
	}
	out := draw(n)
	if mode == Batch && axis == InitiatorCols {
		g.Reseed()
	}
	return out
}

// parities draws n parities from jk into the engine's buffer.
func (e *Engine) parities(jk rng.Stream, n int) []uint64 {
	signs := e.u64buf(n)
	rng.FillUint64(jk, signs)
	return signs
}

// drawRow is row m's share of a keystream buffer, or of a disguised matrix,
// which has the same shape.
func drawRow[T any](buf []T, m, cols int, mode Mode) []T {
	r := drawIndex(m, mode)
	return buf[r*cols : (r+1)*cols]
}

// drawIndex is the row of a disguise, or of a keystream's draws, that row m
// of a block with the initiator on the columns reads: its own in per-pair
// mode, the one shared row in batch mode.
func drawIndex(m int, mode Mode) int {
	if mode == PerPair {
		return m
	}
	return 0
}

// intDraws draws n int64 masks of range maskRange from jt into the
// engine's buffer: the one order the int64 arithmetic reads its masks in.
func (e *Engine) intDraws(jt rng.Stream, n int, maskRange int64) []int64 {
	m := e.i64buf(n)
	rng.FillInt64n(jt, m, maskRange)
	return m
}

// floatDraws is the real-valued form of intDraws.
func (e *Engine) floatDraws(jt rng.Stream, n int, maskRange float64) []float64 {
	m := e.f64buf(n)
	rng.FillFloat64(jt, m)
	for i := range m {
		m[i] *= maskRange
	}
	return m
}

// The float64 whole-matrix forms of Figures 4–6 below, with
// NumericThirdPartyFloatRows (rows.go), remain only because the benchmark's
// replay of a session (benchmark/replay.go) calls them; they go with it
// (ROADMAP.md, item 0(b)). Everything else runs Numeric (session.go).

func (p FloatParams) validate(values []float64) error {
	if !(p.MaskRange > 0) || math.IsInf(p.MaskRange, 0) {
		return fmt.Errorf("protocol: MaskRange %v must be positive and finite", p.MaskRange)
	}
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("protocol: non-finite value at index %d", i)
		}
	}
	return nil
}

// NumericInitiatorFloat is Figure 4 over reals, the whole disguise at once:
// one row of len(values) cells, out(0, n) = R(n) + x_n·σ(n), in batch
// mode, responderRows rows of fresh masks and parities in per-pair mode.
// Its only production caller is benchmark/replay.go.
func (e *Engine) NumericInitiatorFloat(values []float64, jk, jt rng.Stream, params FloatParams, mode Mode, responderRows int) (*Float64Matrix, error) {
	if err := params.validate(values); err != nil {
		return nil, err
	}
	rows := 1
	if mode == PerPair {
		if responderRows < 0 {
			return nil, fmt.Errorf("protocol: negative responderRows %d", responderRows)
		}
		rows = responderRows
	}
	cols := len(values)
	out := NewFloat64Matrix(rows, cols)
	total := rows * cols
	masks := e.floatDraws(jt, total, params.MaskRange)
	signs := e.u64buf(total)
	rng.FillUint64(jk, signs)
	parallel.Range(e.workers, rows, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			base := r * cols
			for n, x := range values {
				out.Cell[base+n] = masks[base+n] + x*float64(negSignInitiator(signs[base+n]))
			}
		}
	})
	return out, nil
}

// NumericResponderFloat is Figure 5 over reals, the whole S matrix at once:
// s(m, n) = disguised(m, n) + y_m·σ̄. Its only production caller is
// benchmark/replay.go.
func (e *Engine) NumericResponderFloat(disguised *Float64Matrix, values []float64, jk rng.Stream, params FloatParams, mode Mode) (*Float64Matrix, error) {
	if err := disguised.Validate(); err != nil {
		return nil, err
	}
	if err := params.validate(values); err != nil {
		return nil, err
	}
	rows, cols := len(values), disguised.Cols
	if err := disguisedCovers(disguised.Rows, rows, mode); err != nil {
		return nil, err
	}
	out := NewFloat64Matrix(rows, cols)
	signs := keystream(jk, func(n int) []uint64 { return e.parities(jk, n) }, rows, cols, mode, InitiatorCols)
	parallel.Range(e.workers, rows, func(_, from, to int) {
		for m := from; m < to; m++ {
			y, dst := values[m], out.Cell[m*cols:(m+1)*cols]
			src, sign := drawRow(disguised.Cell, m, cols, mode), drawRow(signs, m, cols, mode)
			for n := range dst {
				dst[n] = src[n] + y*float64(negSignResponder(sign[n]))
			}
		}
	})
	return out, nil
}

// disguisedCovers checks that a disguised matrix of the given row count
// serves rows responder rows: the one masked row of batch mode, or a row
// per responder object in per-pair mode.
func disguisedCovers(disguisedRows, rows int, mode Mode) error {
	if mode == Batch && disguisedRows != 1 {
		return fmt.Errorf("protocol: batch mode expects a 1-row disguised vector, got %d rows", disguisedRows)
	}
	if mode == PerPair && disguisedRows != rows {
		return fmt.Errorf("protocol: per-pair mode expects %d disguised rows, got %d", rows, disguisedRows)
	}
	return nil
}

// NumericThirdPartyFloat is Figure 6 over reals on a whole S matrix:
// out(m, n) = |s(m, n) − R|, the batch-mode mask prefix regenerated once
// instead of once per row. NumericThirdPartyFloatRows is its one caller.
func (e *Engine) NumericThirdPartyFloat(s *Float64Matrix, jt rng.Stream, params FloatParams, mode Mode) (*Float64Matrix, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	masks, err := e.floatMasks(jt, s.Rows, s.Cols, params, mode, InitiatorCols)
	if err != nil {
		return nil, err
	}
	rows, cols := s.Rows, s.Cols
	out := NewFloat64Matrix(rows, cols)
	parallel.Range(e.workers, rows, func(_, lo, hi int) {
		for m := lo; m < hi; m++ {
			mask := drawRow(masks, m, cols, mode)
			src, dst := s.Cell[m*cols:(m+1)*cols], out.Cell[m*cols:(m+1)*cols]
			for n := range dst {
				dst[n] = math.Abs(src[n] - mask[n])
			}
		}
	})
	return out, nil
}

// floatMasks regenerates the masks Figure 6 strips from rows×cols cells.
func (e *Engine) floatMasks(jt rng.Stream, rows, cols int, params FloatParams, mode Mode, axis Axis) ([]float64, error) {
	if !(params.MaskRange > 0) {
		return nil, fmt.Errorf("protocol: MaskRange %v must be positive", params.MaskRange)
	}
	return keystream(jt, func(n int) []float64 { return e.floatDraws(jt, n, params.MaskRange) }, rows, cols, mode, axis), nil
}
