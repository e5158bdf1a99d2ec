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

// IntParams bounds the integer numeric protocol. Masks are drawn uniformly
// from [0, MaskRange); inputs must satisfy |x| ≤ MaxMagnitude. The defaults
// guarantee that every intermediate sum mask ± x ∓ y stays clear of int64
// overflow.
type IntParams struct {
	MaskRange    int64
	MaxMagnitude int64
}

// DefaultIntParams gives masks 2^62 of head-room and admits inputs up to
// 2^40 in magnitude.
var DefaultIntParams = IntParams{MaskRange: 1 << 62, MaxMagnitude: 1 << 40}

// validate checks the parameter invariants and that every value is in range.
func (p IntParams) validate(values []int64) error {
	if p.MaskRange <= 0 {
		return fmt.Errorf("protocol: MaskRange %d must be positive", p.MaskRange)
	}
	if p.MaxMagnitude <= 0 {
		return fmt.Errorf("protocol: MaxMagnitude %d must be positive", p.MaxMagnitude)
	}
	// mask + x - y must fit: MaskRange + 2·MaxMagnitude < 2^63.
	if p.MaskRange > math.MaxInt64-2*p.MaxMagnitude {
		return fmt.Errorf("protocol: MaskRange %d with MaxMagnitude %d risks overflow", p.MaskRange, p.MaxMagnitude)
	}
	for i, v := range values {
		if v > p.MaxMagnitude || v < -p.MaxMagnitude {
			return fmt.Errorf("protocol: value %d at index %d exceeds magnitude bound %d", v, i, p.MaxMagnitude)
		}
	}
	return nil
}

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

// NumericInitiatorInt is Figure 4, run at site DHJ over integer data.
//
// Batch mode emits one disguised value per input: out[n] = R_JT(n) + x[n]·σ(n)
// where σ(n) = ±1 follows the shared rngJK parity stream. PerPair mode emits
// a responderRows×n matrix of independently disguised copies, row-major, so
// every (row, value) pair gets a fresh mask and parity; responderRows must
// then be the responder's object count.
//
// jk is the generator shared with the responder (seed rJK), jt the generator
// shared with the third party (seed rJT); both must be freshly seeded.
func NumericInitiatorInt(values []int64, jk, jt rng.Stream, params IntParams, mode Mode, responderRows int) (*Int64Matrix, error) {
	return NewEngine(1).NumericInitiatorInt(values, jk, jt, params, mode, responderRows)
}

// NumericInitiatorInt is Figure 4 on the engine: all masks and parities
// are drawn into reusable buffers up front (their per-stream order is
// unchanged, so outputs match the serial form bit for bit) and the
// disguise arithmetic is split across the engine's workers.
func (e *Engine) NumericInitiatorInt(values []int64, jk, jt rng.Stream, params IntParams, mode Mode, responderRows int) (*Int64Matrix, error) {
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
	out := NewInt64Matrix(rows, cols)
	total := rows * cols
	masks := e.intDraws(jt, total, params.MaskRange)
	signs := e.u64buf(total)
	rng.FillUint64(jk, signs)
	parallel.Range(e.workers, rows, func(_, lo, hi int) {
		for r := lo; r < hi; r++ {
			base := r * cols
			for n, x := range values {
				out.Cell[base+n] = masks[base+n] + x*negSignInitiator(signs[base+n])
			}
		}
	})
	return out, nil
}

// NumericResponderInt is Figure 5, run at site DHK over integer data. It
// combines the initiator's disguised matrix with DHK's own values into the
// pairwise comparison matrix s with s[m][n] = disguised(m,n) + y[m]·σ̄:
// masked copies of ±(x−y). In batch mode the responder re-initializes the
// shared rngJK at every row boundary, exactly as the paper prescribes, so
// its parities line up with the initiator's single pass.
func NumericResponderInt(disguised *Int64Matrix, values []int64, jk rng.Stream, params IntParams, mode Mode) (*Int64Matrix, error) {
	return NewEngine(1).NumericResponderInt(disguised, values, jk, params, mode)
}

// NumericResponderInt is Figure 5 on the engine: the batch-mode parity
// prefix is drawn once and left rewound instead of re-read per row.
func (e *Engine) NumericResponderInt(disguised *Int64Matrix, values []int64, jk rng.Stream, params IntParams, mode Mode) (*Int64Matrix, error) {
	if err := disguised.Validate(); err != nil {
		return nil, err
	}
	if err := params.validate(values); err != nil {
		return nil, err
	}
	cell, err := respondRows(e, disguised.Cell, disguised.Rows, disguised.Cols, values, jk, mode)
	if err != nil {
		return nil, err
	}
	return &Int64Matrix{Rows: len(values), Cols: disguised.Cols, Cell: cell}, nil
}

// respondRows is the arithmetic of Figure 5 for both machine-word
// variants: s[m][n] = disguised(m, n) + values[m]·σ̄.
func respondRows[T int64 | float64](e *Engine, disguised []T, disguisedRows, cols int, values []T, jk rng.Stream, mode Mode) ([]T, error) {
	rows := len(values)
	if err := disguisedCovers(disguisedRows, rows, mode); err != nil {
		return nil, err
	}
	cell := make([]T, rows*cols)
	signs := e.signs(jk, rows, cols, mode)
	parallel.Range(e.workers, rows, func(_, from, to int) {
		for m := from; m < to; m++ {
			y, dst := values[m], cell[m*cols:(m+1)*cols]
			src, sign := drawRow(disguised, m, cols, mode), drawRow(signs, m, cols, mode)
			for n := range dst {
				dst[n] = src[n] + y*T(negSignResponder(sign[n]))
			}
		}
	})
	return cell, nil
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

// signs draws the responder's parities.
func (e *Engine) signs(jk rng.Stream, rows, cols int, mode Mode) []uint64 {
	return keystream(jk, func(n int) []uint64 { return e.parities(jk, n) }, rows, cols, mode, InitiatorCols)
}

// parities draws n parities from jk into the engine's buffer.
func (e *Engine) parities(jk rng.Stream, n int) []uint64 {
	signs := e.u64buf(n)
	rng.FillUint64(jk, signs)
	return signs
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

// NumericThirdPartyInt is Figure 6, run at site TP over integer data. It
// strips the masks it can regenerate from the shared rngJT and recovers the
// distance block: out[m][n] = |x_n − y_m|. Rows index the responder's
// objects, columns the initiator's.
func NumericThirdPartyInt(s *Int64Matrix, jt rng.Stream, params IntParams, mode Mode) (*Int64Matrix, error) {
	return NewEngine(1).NumericThirdPartyInt(s, jt, params, mode)
}

// NumericThirdPartyInt is Figure 6 on the engine: the batch-mode mask
// prefix is regenerated once instead of once per row, and mask stripping
// runs across the engine's workers.
func (e *Engine) NumericThirdPartyInt(s *Int64Matrix, jt rng.Stream, params IntParams, mode Mode) (*Int64Matrix, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	masks, err := e.intMasks(jt, s.Rows, s.Cols, params, mode, InitiatorCols)
	if err != nil {
		return nil, err
	}
	rows, cols := s.Rows, s.Cols
	out := NewInt64Matrix(rows, cols)
	parallel.Range(e.workers, rows, func(_, lo, hi int) {
		for m := lo; m < hi; m++ {
			mask := drawRow(masks, m, cols, mode)
			src, dst := s.Cell[m*cols:(m+1)*cols], out.Cell[m*cols:(m+1)*cols]
			for n := range dst {
				dst[n] = absInt64(src[n] - mask[n])
			}
		}
	})
	return out, nil
}

// intMasks regenerates the masks Figure 6 strips from rows×cols cells.
func (e *Engine) intMasks(jt rng.Stream, rows, cols int, params IntParams, mode Mode, axis Axis) ([]int64, error) {
	if params.MaskRange <= 0 {
		return nil, fmt.Errorf("protocol: MaskRange %d must be positive", params.MaskRange)
	}
	return keystream(jt, func(n int) []int64 { return e.intDraws(jt, n, params.MaskRange) }, rows, cols, mode, axis), nil
}

// intDraws draws n int64 masks of range maskRange from jt into the
// engine's buffer: the one order every int64 form reads its masks in.
func (e *Engine) intDraws(jt rng.Stream, n int, maskRange int64) []int64 {
	m := e.i64buf(n)
	rng.FillInt64n(jt, m, maskRange)
	return m
}

func absInt64(d int64) int64 {
	if d < 0 {
		return -d
	}
	return d
}

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

// DefaultFloatParams masks with 2^20 of range, adequate for unit-scale data.
var DefaultFloatParams = FloatParams{MaskRange: 1 << 20}

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

// NumericInitiatorFloat is Figure 4 over real-valued data; see
// NumericInitiatorInt for the contract.
func NumericInitiatorFloat(values []float64, jk, jt rng.Stream, params FloatParams, mode Mode, responderRows int) (*Float64Matrix, error) {
	return NewEngine(1).NumericInitiatorFloat(values, jk, jt, params, mode, responderRows)
}

// NumericInitiatorFloat is Figure 4 over reals on the engine; see
// NumericInitiatorInt for the batching contract.
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

// NumericResponderFloat is Figure 5 over real-valued data.
func NumericResponderFloat(disguised *Float64Matrix, values []float64, jk rng.Stream, params FloatParams, mode Mode) (*Float64Matrix, error) {
	return NewEngine(1).NumericResponderFloat(disguised, values, jk, params, mode)
}

// NumericResponderFloat is Figure 5 over reals on the engine; see
// NumericResponderInt.
func (e *Engine) NumericResponderFloat(disguised *Float64Matrix, values []float64, jk rng.Stream, params FloatParams, mode Mode) (*Float64Matrix, error) {
	if err := disguised.Validate(); err != nil {
		return nil, err
	}
	if err := params.validate(values); err != nil {
		return nil, err
	}
	cell, err := respondRows(e, disguised.Cell, disguised.Rows, disguised.Cols, values, jk, mode)
	if err != nil {
		return nil, err
	}
	return &Float64Matrix{Rows: len(values), Cols: disguised.Cols, Cell: cell}, nil
}

// NumericThirdPartyFloat is Figure 6 over real-valued data.
func NumericThirdPartyFloat(s *Float64Matrix, jt rng.Stream, params FloatParams, mode Mode) (*Float64Matrix, error) {
	return NewEngine(1).NumericThirdPartyFloat(s, jt, params, mode)
}

// NumericThirdPartyFloat is Figure 6 over reals on the engine; see
// NumericThirdPartyInt for the batching contract.
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

// floatMasks is the real-valued form of intMasks.
func (e *Engine) floatMasks(jt rng.Stream, rows, cols int, params FloatParams, mode Mode, axis Axis) ([]float64, error) {
	if !(params.MaskRange > 0) {
		return nil, fmt.Errorf("protocol: MaskRange %v must be positive", params.MaskRange)
	}
	return keystream(jt, func(n int) []float64 { return e.floatDraws(jt, n, params.MaskRange) }, rows, cols, mode, axis), nil
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
