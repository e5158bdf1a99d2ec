package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"ppclust/internal/alphabet"
	"ppclust/internal/rng"
)

// numericPass is one run of the session's numeric operations over a pair
// block of len(ys) rows — the responder's objects — and len(xs) columns,
// the initiator's. The disguising holder disguises its column a cut of
// per rows at a time, the other combines each cut of S from the disguise
// chunks as they arrived, and every chunk goes through its block encoding.
// The share starts at row first (the split row, with the initiator on the
// rows), and the third party strips the chunks from row start on, its
// stream advanced past the earlier rows; start must be a cut boundary.
// jk and jt are the shared streams, which each site reads from their
// first word.
type numericPass struct {
	disguise, s []byte    // the blocks' cells, every cut in order
	dist        []float64 // rows [start, len(ys)) of the recovered block
}

var seedJK, seedJT = rng.SeedFromUint64(71), rng.SeedFromUint64(72)

func runNumeric(t *testing.T, e *Engine, num Numeric, axis Axis, xs, ys []float64, first, per, start int, jk, jt rng.Stream) numericPass {
	t.Helper()
	m, n := len(ys), len(xs)
	var out numericPass
	disguiser, combiner, peer := xs, ys, m
	lo, hi := 0, 1 // the initiator's disguise rows
	if num.mode == PerPair {
		hi = m
	}
	if axis == InitiatorRows {
		disguiser, combiner, peer, lo, hi = ys, xs, n, first, m
	}
	jk.Reseed()
	jt.Reseed()
	var chunks []NumericChunk
	for _, ch := range rowRanges(hi-lo, per) {
		c := decodeBlock(t)(num.Disguise(e, nil, column(t, num, disguiser), lo+ch[0], lo+ch[1], peer, jk, jt, axis))
		chunks, out.disguise = append(chunks, c), append(out.disguise, c.Cells...)
	}
	jk.Reseed()
	jt.Reseed()
	num.Advance(e, jt, start-first, n, axis)
	for _, ch := range rowRanges(m-first, per) {
		clo, chi := first+ch[0], first+ch[1]
		d0 := 0
		if axis == InitiatorRows {
			d0 = first // the disguise's rows count from the share's first
		}
		c := decodeBlock(t)(num.Combine(e, nil, chunks, column(t, num, combiner), clo-d0, chi-d0, jk, axis))
		out.s = append(out.s, c.Cells...)
		if clo >= start {
			row, err := num.Strip(e, c, clo, chi, jt, axis)
			out.dist = append(out.dist, evalRows(t, row, err, chi-clo, n)...)
		}
	}
	return out
}

// column checks values for num's arithmetic.
func column(t testing.TB, num Numeric, values []float64) Column {
	t.Helper()
	col, err := num.Column(values)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// decodeBlock checks an operation's result and reads it back as a frame
// would carry it.
func decodeBlock(t testing.TB) func([]byte, error) NumericChunk {
	return func(blk []byte, err error) NumericChunk {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		c, err := DecodeNumericChunk(blk)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

// numericCase is one arithmetic, masking mode, axis and block shape of
// the session's numeric operations, with its uncut run on one worker and
// the per-cell formula's run of the share (numeric_oracle_test.go).
type numericCase struct {
	v           Variant
	mode        Mode
	num         Numeric
	axis        Axis
	xs, ys      []float64
	first       int
	whole, want numericPass
	m, n        int
}

func (c numericCase) String() string {
	return fmt.Sprintf("%v %v %v %dx%d", c.v, c.mode, c.axis, c.m, c.n)
}

// forNumericCases calls f for every arithmetic, masking mode and axis, on
// a block with rows and columns, one without rows and one without
// columns; on the row axis the share starts a third of the way down.
func forNumericCases(t *testing.T, f func(c numericCase)) {
	t.Helper()
	src := rng.NewXoshiro(rng.SeedFromUint64(4242))
	column := func(k int, v Variant) []float64 {
		out := make([]float64, k)
		for i := range out {
			out[i] = float64(rng.Int64Range(src, -500, 500))
			if v == Float64Variant {
				out[i] /= 8
			}
		}
		return out
	}
	for _, v := range []Variant{Float64Variant, Int64Variant, ModPVariant} {
		for _, mode := range []Mode{Batch, PerPair} {
			num, err := NewNumeric(v, mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, axis := range []Axis{InitiatorCols, InitiatorRows} {
				for _, shape := range [][2]int{{9, 13}, {0, 5}, {6, 0}} {
					c := numericCase{v: v, mode: mode, num: num, axis: axis, m: shape[0], n: shape[1]}
					c.xs, c.ys = column(c.n, v), column(c.m, v)
					if axis == InitiatorRows {
						c.first = c.m / 3
					}
					c.whole = runNumeric(t, NewEngine(1), num, axis, c.xs, c.ys, c.first, c.m+1, c.first, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT))
					c.want = oracleNumeric(v, mode, axis, c.xs, c.ys[c.first:], rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT))
					f(c)
				}
			}
		}
	}
}

// checkDistances checks that a run recovered |x − y| on every row of the
// share: exactly, but for the float protocol's error.
func (c numericCase) checkDistances(t *testing.T) {
	t.Helper()
	for r := c.first; r < c.m; r++ {
		for col := range c.n {
			got, want := c.whole.dist[(r-c.first)*c.n+col], math.Abs(c.ys[r]-c.xs[col])
			if got != want && (c.v != Float64Variant || math.Abs(got-want) > 1e-9) {
				t.Fatalf("%v: cell (%d,%d) = %v, want %v", c, r, col, got, want)
			}
		}
	}
}

// checkCuts checks the uncut run, and the block cut every row and every
// four rows on three workers with the third party starting at row
// start(per), against the per-cell formula's cells and distances — for
// float64 with the initiator on the columns, also the matrix forms'
// disguise and S, and the distances NumericThirdPartyFloatRows strips from
// the formula's S at the same cuts.
func (c numericCase) checkCuts(t *testing.T, start func(per int) int) {
	t.Helper()
	c.matches(t, "uncut", c.whole, c.first)
	if c.v == Float64Variant && c.axis == InitiatorCols {
		checkFloatForms(t, NewEngine(3), c.mode, c.xs, c.ys, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), c.want)
	}
	for _, per := range []int{1, 4} {
		from := start(per)
		got := runNumeric(t, NewEngine(3), c.num, c.axis, c.xs, c.ys, c.first, per, from, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT))
		c.matches(t, fmt.Sprintf("per=%d start=%d", per, from), got, from)
		if c.v == Float64Variant && c.axis == InitiatorCols {
			c.checkFloatRows(t, per, from)
		}
	}
}

// matches checks a run's cells, and its distances from row from on,
// against the per-cell formula's, bit for bit.
func (c numericCase) matches(t *testing.T, name string, got numericPass, from int) {
	t.Helper()
	if !bytes.Equal(got.disguise, c.want.disguise) || !bytes.Equal(got.s, c.want.s) {
		t.Fatalf("%v %s: cells differ from the per-cell formula's", c, name)
	}
	if !slices.Equal(got.dist, c.want.dist[(from-c.first)*c.n:]) {
		t.Fatalf("%v %s: distances differ from the per-cell formula's", c, name)
	}
}

// checkFloatForms runs the float64 matrix forms of Figures 4 and 5,
// NumericInitiatorFloat and NumericResponderFloat, over a block with the
// initiator's xs on the columns from the shared streams jk and jt, and
// checks the disguise and S against the per-cell formula's, bit for bit.
func checkFloatForms(t *testing.T, e *Engine, mode Mode, xs, ys []float64, jk, jt rng.Stream, want numericPass) {
	t.Helper()
	d, err := e.NumericInitiatorFloat(xs, jk, jt, DefaultFloatParams, mode, len(ys))
	if err != nil {
		t.Fatal(err)
	}
	jk.Reseed()
	s, err := e.NumericResponderFloat(d, ys, jk, DefaultFloatParams, mode)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]struct {
		got  []float64
		want []byte
	}{"NumericInitiatorFloat": {d.Cell, want.disguise}, "NumericResponderFloat": {s.Cell, want.s}} {
		var got []byte
		for _, v := range m.got {
			got = oracleFloat.put(got, v)
		}
		if !bytes.Equal(got, m.want) {
			t.Fatalf("%v %dx%d: %s differs from the per-cell formula's cells", mode, len(ys), len(xs), name)
		}
	}
}

// checkFloatRows strips the per-cell formula's S through its matrix
// container form, NumericThirdPartyFloatRows, per rows at a time from row
// from on, the stream advanced past the earlier rows, and checks every cut
// against the formula's distances.
func (c numericCase) checkFloatRows(t *testing.T, per, from int) {
	t.Helper()
	e, jt := NewEngine(3), rng.NewAESCTR(seedJT)
	c.num.Advance(e, jt, from, c.n, InitiatorCols)
	for _, ch := range rowRanges(c.m-from, per) {
		lo, hi := from+ch[0], from+ch[1]
		s := NewFloat64Matrix(hi-lo, c.n)
		for i := range s.Cell {
			s.Cell[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.want.s[8*(lo*c.n+i):]))
		}
		got, err := e.NumericThirdPartyFloatRows(s, lo, hi, jt, DefaultFloatParams, c.mode)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Cell, c.want.dist[lo*c.n:hi*c.n]) {
			t.Fatalf("%v per=%d: NumericThirdPartyFloatRows [%d,%d) differs from the per-cell formula's distances", c, per, lo, hi)
		}
	}
}

// TestNumericThirdPartyRowsMatchesMonolithic: with the initiator on the
// columns, every arithmetic and masking mode recovers |x − y|, and the
// cells and distances, uncut or cut into chunks, are the per-cell
// formula's bit for bit.
func TestNumericThirdPartyRowsMatchesMonolithic(t *testing.T) {
	forNumericCases(t, func(c numericCase) {
		if c.axis != InitiatorCols {
			return
		}
		c.checkDistances(t)
		c.checkCuts(t, func(int) int { return c.first })
	})
}

// TestAdvanceThirdPartyPositionsStream: a third party that starts past
// the share's first row, its stream advanced over the earlier rows,
// recovers the per-cell formula's distances from there on, on either axis.
func TestAdvanceThirdPartyPositionsStream(t *testing.T) {
	forNumericCases(t, func(c numericCase) {
		c.checkCuts(t, func(per int) int { return min(c.first+per, c.m) })
	})
}

// TestRowAxisRecoversDistances: with the initiator on the rows and the
// share starting mid-block, every arithmetic and masking mode recovers
// |x − y|, and the cells and distances, uncut or cut into chunks, are the
// per-cell formula's bit for bit.
func TestRowAxisRecoversDistances(t *testing.T) {
	forNumericCases(t, func(c numericCase) {
		if c.axis != InitiatorRows {
			return
		}
		c.checkDistances(t)
		c.checkCuts(t, func(int) int { return c.first })
	})
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
		num, _ := NewNumeric(Int64Variant, tc.mode)
		d := decodeBlock(t)(num.Disguise(e, nil, column(t, num, []float64{1, 2, 3}), 0, 3, 5, jk, jt, InitiatorRows))
		if d.Rows != 3 || d.Cols != tc.cols {
			t.Fatalf("%v: disguise is %dx%d, want 3x%d", tc.mode, d.Rows, d.Cols, tc.cols)
		}
		if _, err := num.Combine(e, nil, []NumericChunk{d}, column(t, num, make([]float64, 5)), 2, 4, jk, InitiatorRows); err == nil {
			t.Fatalf("%v: rows past the disguise accepted", tc.mode)
		}
		perPair, _ := NewNumeric(Int64Variant, PerPair)
		if _, err := perPair.Combine(e, nil, []NumericChunk{d}, column(t, perPair, make([]float64, 4)), 0, 1, jk, InitiatorRows); err == nil {
			t.Fatalf("%v: a disguise of the wrong width accepted", tc.mode)
		}
	}
}

// TestThirdPartyRowsShapeValidation: a chunk — or a matrix, in the
// container form — that does not cover exactly the scheduled rows, is of
// another arithmetic or is torn is refused with a descriptive error.
func TestThirdPartyRowsShapeValidation(t *testing.T) {
	e := NewEngine(1)
	jt := rng.NewAESCTR(rng.SeedFromUint64(1))
	intNum, _ := NewNumeric(Int64Variant, Batch)
	floatNum, _ := NewNumeric(Float64Variant, Batch)
	modpNum, _ := NewNumeric(ModPVariant, Batch)
	chunk := decodeBlock(t)(intNum.Combine(e, nil, []NumericChunk{decodeBlock(t)(intNum.Disguise(e, nil, column(t, intNum, make([]float64, 3)), 0, 1, 2, jt, jt, InitiatorCols))},
		column(t, intNum, make([]float64, 2)), 0, 2, jt, InitiatorCols))
	for name, err := range map[string]error{
		"short chunk":    second(intNum.Strip(e, chunk, 0, 3, jt, InitiatorCols)),
		"inverted range": second(intNum.Strip(e, chunk, 3, 1, jt, InitiatorCols)),
		"float session":  second(floatNum.Strip(e, chunk, 0, 2, jt, InitiatorCols)),
		"modp session":   second(modpNum.Strip(e, chunk, 0, 2, jt, InitiatorCols)),
		"torn cell":      second(intNum.Strip(e, NumericChunk{Rows: 2, Cols: 3, Cells: chunk.Cells[:47], tag: chunk.tag}, 0, 2, jt, InitiatorCols)),
		"untagged chunk": second(intNum.Strip(e, NumericChunk{Rows: 2, Cols: 3, Cells: chunk.Cells}, 0, 2, jt, InitiatorCols)),
		"foreign disg":   second(floatNum.Combine(e, nil, []NumericChunk{chunk}, column(t, floatNum, make([]float64, 3)), 0, 1, jt, InitiatorCols)),
		"float matrix":   second(e.NumericThirdPartyFloatRows(NewFloat64Matrix(2, 3), 0, 1, jt, DefaultFloatParams, Batch)),
		"alpha short":    second(e.AlphaThirdPartyRows(make([][]*SymbolMatrix, 2), 0, 1, alphabet.DNA, jt)),
		"alpha slab":     second(e.AlphaThirdPartyChunk(&AlphaChunk{Counts: []int{0, 0}}, 0, 1, alphabet.DNA, jt)),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	row, err := intNum.Strip(e, chunk, 0, 2, jt, InitiatorCols)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a destination row narrower than the chunk accepted")
			}
		}()
		row(0, make([]float64, 2))
	}()
}

// TestNumericValueChecks: an unknown variant or masking mode is refused
// where the protocol is built, a column the arithmetic cannot carry where
// it is checked — on the float, the bound before any conversion, with an
// error that names the row — and a column another arithmetic checked by
// the operations. The largest mod-p magnitudes, ±(2^62 − 512), are taken.
func TestNumericValueChecks(t *testing.T) {
	for name, err := range map[string]error{
		"unknown mode":    second(NewNumeric(Int64Variant, Mode(2))),
		"unknown variant": second(NewNumeric(Variant(3), Batch)),
	} {
		if err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	e := NewEngine(1)
	jt := rng.NewAESCTR(rng.SeedFromUint64(1))
	intNum, _ := NewNumeric(Int64Variant, PerPair)
	floatNum, _ := NewNumeric(Float64Variant, Batch)
	modpNum, _ := NewNumeric(ModPVariant, Batch)
	for _, tc := range []struct {
		num    Numeric
		values []float64
		want   string
	}{
		{intNum, []float64{0, 2.5}, "value 2.5 at row 1 is not integral"},
		{intNum, []float64{0, 0, 1e300}, "value 1e+300 at row 2 exceeds magnitude bound"},
		{intNum, []float64{1<<40 + 1}, "at row 0 exceeds magnitude bound 1099511627776"},
		{intNum, []float64{math.NaN()}, "at row 0 is not integral"},
		{modpNum, []float64{-(1 << 62)}, "value -4.611686018427388e+18 at row 0 exceeds magnitude bound 4611686018427387392"},
		{modpNum, []float64{math.Inf(1)}, "at row 0 exceeds magnitude bound"},
		{floatNum, []float64{1, math.Inf(-1)}, "value -Inf at row 1 is not finite"},
	} {
		if _, err := tc.num.Column(tc.values); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("checking %v: got %v, want %q", tc.values, err, tc.want)
		}
	}
	if _, err := modpNum.Column([]float64{1<<62 - 512, -(1<<62 - 512)}); err != nil {
		t.Errorf("the largest mod-p magnitudes refused: %v", err)
	}
	floatCol := column(t, floatNum, []float64{0.5})
	for _, axis := range []Axis{InitiatorCols, InitiatorRows} {
		for name, err := range map[string]error{
			"disguise": second(intNum.Disguise(e, nil, floatCol, 0, 1, 1, jt, jt, axis)),
			"combine":  second(modpNum.Combine(e, nil, nil, floatCol, 0, 0, jt, axis)),
			"zero":     second(floatNum.Disguise(e, nil, Column{}, 0, 0, 1, jt, jt, axis)),
		} {
			if err == nil || !strings.Contains(err.Error(), "a column checked for variant byte") {
				t.Errorf("%v: %s of a column another arithmetic checked: got %v", axis, name, err)
			}
		}
	}
}

func second[T any](_ T, err error) error { return err }

// BenchmarkNumeric is Figures 4–6 as a session runs them over one pair
// block of 256 × 256 objects, for every arithmetic in both masking modes:
// the initiator's Disguise, the responder's Combine and the third party's
// Strip of every row, one chunk each, on one worker, the blocks' storage
// reused from one iteration to the next.
func BenchmarkNumeric(b *testing.B) {
	const n = 256
	src := rng.NewXoshiro(rng.SeedFromUint64(4243))
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = float64(rng.Int64Range(src, 0, 1<<30)), float64(rng.Int64Range(src, 0, 1<<30))
	}
	for _, v := range []Variant{Float64Variant, Int64Variant, ModPVariant} {
		for _, mode := range []Mode{Batch, PerPair} {
			b.Run(fmt.Sprintf("%v/%v", v, mode), func(b *testing.B) {
				num, err := NewNumeric(v, mode)
				if err != nil {
					b.Fatal(err)
				}
				e, cx, cy := NewEngine(1), column(b, num, xs), column(b, num, ys)
				rows := 1
				if mode == PerPair {
					rows = n
				}
				var dBlk, sBlk []byte
				dist := make([]float64, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					jk, jt := rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT)
					dBlk, err = num.Disguise(e, dBlk[:0], cx, 0, rows, n, jk, jt, InitiatorCols)
					d := decodeBlock(b)(dBlk, err)
					jk, jt = rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT)
					sBlk, err = num.Combine(e, sBlk[:0], []NumericChunk{d}, cy, 0, n, jk, InitiatorCols)
					row, err := num.Strip(e, decodeBlock(b)(sBlk, err), 0, n, jt, InitiatorCols)
					if err != nil {
						b.Fatal(err)
					}
					for r := range n {
						if err := row(r, dist); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
