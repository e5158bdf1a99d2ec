package protocol

import (
	"math"
	"testing"
	"testing/quick"

	"ppclust/internal/rng"
)

// quickCheck runs a property with a bounded count to keep the suite fast.
func quickCheck(f any) error {
	return quick.Check(f, &quick.Config{MaxCount: 200})
}

// roundTrip runs the three sites through Numeric over one uncut block
// with the initiator on the columns (runNumeric): DHJ disguises xs, DHK
// combines its ys into S, the TP strips S into the distances, row-major.
func roundTrip(t *testing.T, e *Engine, num Numeric, xs, ys []float64, jk, jt rng.Stream) numericPass {
	t.Helper()
	return runNumeric(t, e, num, InitiatorCols, xs, ys, 0, len(ys)+1, 0, jk, jt)
}

// streams returns the two shared streams of the given kind and seeds.
func streams(kind rng.Kind, jk, jt uint64) (rng.Stream, rng.Stream) {
	return rng.New(kind, rng.SeedFromUint64(jk)), rng.New(kind, rng.SeedFromUint64(jt))
}

// intCell is cell i of int64 cells.
func intCell(cells []byte, i int) int64 { return getWord[int64](cells[8*i:]) }

// mustNumeric builds the protocol of a known variant and mode.
func mustNumeric(t testing.TB, v Variant, mode Mode) Numeric {
	t.Helper()
	num, err := NewNumeric(v, mode)
	if err != nil {
		t.Fatal(err)
	}
	return num
}

// checkPlaintext checks that dist is |x − y| for every pair, rows indexing
// ys: exactly, or within tol.
func checkPlaintext(t *testing.T, dist, xs, ys []float64, tol float64) {
	t.Helper()
	if len(dist) != len(xs)*len(ys) {
		t.Fatalf("%d distances for a %dx%d block", len(dist), len(ys), len(xs))
	}
	for m, y := range ys {
		for n, x := range xs {
			if got, want := dist[m*len(xs)+n], math.Abs(x-y); math.Abs(got-want) > tol {
				t.Fatalf("d(x[%d]=%v, y[%d]=%v) = %v, want %v", n, x, m, y, got, want)
			}
		}
	}
}

// TestFigure3WorkedExample reproduces the paper's Figure 3 numeric example
// exactly: x=3, y=8, RJK=5, RJT=7 gives x′=−3, x″=4, m=12 and the third
// party recovers |x−y| = 5. (Experiment E1.)
func TestFigure3WorkedExample(t *testing.T) {
	// The int64 arithmetic's mask range, 2^62, passes small draws through.
	got := roundTrip(t, NewEngine(1), mustNumeric(t, Int64Variant, Batch), []float64{3}, []float64{8}, rng.Scripted(5), rng.Scripted(7))
	// RJK = 5 is odd, so DHJ negates: x′ = −3; x″ = −3 + 7 = 4.
	if x2 := intCell(got.disguise, 0); x2 != 4 {
		t.Fatalf("x″ = %d, want 4", x2)
	}
	// DHK does not negate (5 odd): m = 8 + 4 = 12.
	if m := intCell(got.s, 0); m != 12 {
		t.Fatalf("m = %d, want 12", m)
	}
	if got.dist[0] != 5 {
		t.Fatalf("|x−y| = %v, want 5", got.dist[0])
	}
}

// TestFigure3OppositeParity covers the even-draw orientation: DHK negates
// instead of DHJ and TP still recovers the distance.
func TestFigure3OppositeParity(t *testing.T) {
	got := roundTrip(t, NewEngine(1), mustNumeric(t, Int64Variant, Batch), []float64{3}, []float64{8}, rng.Scripted(4), rng.Scripted(7))
	if x2 := intCell(got.disguise, 0); x2 != 10 { // 7 + 3
		t.Fatalf("x″ = %d, want 10", x2)
	}
	if m := intCell(got.s, 0); m != 2 { // 10 − 8
		t.Fatalf("m = %d, want 2", m)
	}
	if got.dist[0] != 5 {
		t.Fatalf("|x−y| = %v, want 5", got.dist[0])
	}
}

// randomInts draws k integers in [lo, hi] as floats.
func randomInts(gen rng.Stream, k int, lo, hi int64) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = float64(rng.Int64Range(gen, lo, hi))
	}
	return out
}

// TestNumericProtocolMatchesPlaintextInt verifies E2 for the integer
// variant: the third party's block equals |x−y| for every pair, in both
// masking modes and with both generator kinds.
func TestNumericProtocolMatchesPlaintextInt(t *testing.T) {
	gen := rng.NewXoshiro(rng.SeedFromUint64(7))
	xs, ys := randomInts(gen, 23, -1_000_000, 1_000_000), randomInts(gen, 17, -1_000_000, 1_000_000)
	for _, mode := range []Mode{Batch, PerPair} {
		for _, kind := range []rng.Kind{rng.KindXoshiro, rng.KindAESCTR} {
			t.Run(mode.String()+"/"+kind.String(), func(t *testing.T) {
				jk, jt := streams(kind, 1001, 2002)
				got := roundTrip(t, NewEngine(1), mustNumeric(t, Int64Variant, mode), xs, ys, jk, jt)
				if len(got.s) != 8*len(ys)*len(xs) {
					t.Fatalf("S has %d bytes, want %dx%d cells", len(got.s), len(ys), len(xs))
				}
				checkPlaintext(t, got.dist, xs, ys, 0)
			})
		}
	}
}

func TestNumericProtocolEdgeValues(t *testing.T) {
	max := float64(intMaxMagnitude)
	xs, ys := []float64{0, max, -max, 1, -1}, []float64{max, -max, 0}
	jk, jt := streams(rng.KindAESCTR, 1001, 2002)
	checkPlaintext(t, roundTrip(t, NewEngine(1), mustNumeric(t, Int64Variant, Batch), xs, ys, jk, jt).dist, xs, ys, 0)
}

func TestNumericProtocolEmptyVectors(t *testing.T) {
	num := mustNumeric(t, Int64Variant, Batch)
	jk, jt := streams(rng.KindXoshiro, 1001, 2002)
	for _, xs := range [][]float64{nil, {5}} {
		got := roundTrip(t, NewEngine(1), num, xs, nil, jk, jt)
		if len(got.disguise) != 8*len(xs) || len(got.s) != 0 || len(got.dist) != 0 {
			t.Fatalf("%d initiator values: %d disguise bytes, %d of S and %d distances, want %d, none and none",
				len(xs), len(got.disguise), len(got.s), len(got.dist), 8*len(xs))
		}
	}
}

// TestNumericValidationErrors: a value past the int64 bound is refused by
// Column, a disguise row range its block does not have by Disguise, and a
// disguise that does not serve the responder's rows, or is torn, by
// Combine; a torn S by Strip.
func TestNumericValidationErrors(t *testing.T) {
	e, jk, jt := NewEngine(1), rng.Scripted(1), rng.Scripted(1)
	batch, perPair := mustNumeric(t, Int64Variant, Batch), mustNumeric(t, Int64Variant, PerPair)
	if _, err := batch.Column([]float64{1 << 50}); err == nil {
		t.Fatal("magnitude violation accepted")
	}
	if _, err := perPair.Disguise(e, nil, column(t, perPair, []float64{1}), 0, 1, -1, jk, jt, InitiatorCols); err == nil {
		t.Fatal("a disguise for a negative responder row count accepted")
	}

	// Responder shape mismatches.
	d := decodeBlock(t)(batch.Disguise(e, nil, column(t, batch, []float64{1, 2}), 0, 1, 3, jk, jt, InitiatorCols))
	if _, err := perPair.Combine(e, nil, []NumericChunk{d}, column(t, perPair, []float64{3, 4, 5}), 0, 3, jk, InitiatorCols); err == nil {
		t.Fatal("per-pair mode accepted a disguise with the wrong row count")
	}
	dp := decodeBlock(t)(perPair.Disguise(e, nil, column(t, perPair, []float64{1, 2}), 0, 3, 3, jk, jt, InitiatorCols))
	if _, err := batch.Combine(e, nil, []NumericChunk{dp}, column(t, batch, []float64{3}), 0, 1, jk, InitiatorCols); err == nil {
		t.Fatal("batch mode accepted a 3-row disguise")
	}
	torn := NumericChunk{Rows: 2, Cols: 2, Cells: d.Cells[:8], tag: d.tag}
	if _, err := batch.Combine(e, nil, []NumericChunk{torn}, column(t, batch, []float64{1, 2}), 0, 2, jk, InitiatorCols); err == nil {
		t.Fatal("inconsistent disguise accepted")
	}
	if _, err := batch.Strip(e, torn, 0, 2, jt, InitiatorCols); err == nil {
		t.Fatal("TP accepted an inconsistent S")
	}
}

// TestNumericDisguiseHidesValue checks the blinding property the paper's
// privacy argument rests on: with a CSPRNG mask, the disguised outputs for
// two very different inputs are statistically indistinguishable (coarse
// mean/occupancy checks).
func TestNumericDisguiseHidesValue(t *testing.T) {
	const trials = 4000
	e, num := NewEngine(1), mustNumeric(t, Int64Variant, Batch)
	low, high := column(t, num, []float64{0}), column(t, num, []float64{1 << 40})
	countsLow, countsHigh := 0, 0
	for i := 0; i < trials; i++ {
		jk, jt := streams(rng.KindAESCTR, uint64(10_000+i), uint64(20_000+i))
		dLow := decodeBlock(t)(num.Disguise(e, nil, low, 0, 1, 1, jk, jt, InitiatorCols))
		jk.Reseed()
		jt.Reseed()
		dHigh := decodeBlock(t)(num.Disguise(e, nil, high, 0, 1, 1, jk, jt, InitiatorCols))
		mid := int64(1) << 61 // median of the mask range [0, 2^62)
		if intCell(dLow.Cells, 0) > mid {
			countsLow++
		}
		if intCell(dHigh.Cells, 0) > mid {
			countsHigh++
		}
	}
	// Both should sit near 50% above the midpoint; the 2^40 shift is
	// negligible against the 2^62 mask range.
	for name, c := range map[string]int{"low": countsLow, "high": countsHigh} {
		ratio := float64(c) / trials
		if ratio < 0.45 || ratio > 0.55 {
			t.Fatalf("%s input: above-midpoint ratio %v, want ≈0.5", name, ratio)
		}
	}
}

func TestNumericProtocolMatchesPlaintextFloat(t *testing.T) {
	gen := rng.NewXoshiro(rng.SeedFromUint64(8))
	xs, ys := make([]float64, 19), make([]float64, 13)
	for i := range xs {
		xs[i] = rng.Float64(gen)*200 - 100
	}
	for i := range ys {
		ys[i] = rng.Float64(gen)*200 - 100
	}
	for _, mode := range []Mode{Batch, PerPair} {
		t.Run(mode.String(), func(t *testing.T) {
			jk, jt := streams(rng.KindAESCTR, 31, 32)
			got := roundTrip(t, NewEngine(1), mustNumeric(t, Float64Variant, mode), xs, ys, jk, jt)
			checkPlaintext(t, got.dist, xs, ys, 1e-7)
			want := oracleNumeric(Float64Variant, mode, InitiatorCols, xs, ys, rng.NewAESCTR(rng.SeedFromUint64(31)), rng.NewAESCTR(rng.SeedFromUint64(32)))
			jk.Reseed()
			jt.Reseed()
			checkFloatForms(t, NewEngine(1), mode, xs, ys, jk, jt, want)
		})
	}
}

// TestNumericFloatValidation: a value that is not finite is refused where
// the float64 arithmetic checks a column, and by the float64 matrix forms,
// which also refuse a mask range that is not positive and a disguise that
// does not serve the responder's rows.
func TestNumericFloatValidation(t *testing.T) {
	num, e := mustNumeric(t, Float64Variant, Batch), NewEngine(1)
	jk, jt := rng.Scripted(1), rng.Scripted(1)
	for name, v := range map[string]float64{"NaN": math.NaN(), "Inf": math.Inf(1)} {
		if _, err := num.Column([]float64{v}); err == nil {
			t.Fatalf("%s accepted by Column", name)
		}
		if _, err := e.NumericInitiatorFloat([]float64{v}, jk, jt, DefaultFloatParams, Batch, 0); err == nil {
			t.Fatalf("%s accepted by NumericInitiatorFloat", name)
		}
		if _, err := e.NumericResponderFloat(NewFloat64Matrix(1, 1), []float64{v}, jk, DefaultFloatParams, Batch); err == nil {
			t.Fatalf("%s accepted by NumericResponderFloat", name)
		}
	}
	if _, err := e.NumericInitiatorFloat([]float64{1}, jk, jt, FloatParams{MaskRange: -1}, Batch, 0); err == nil {
		t.Fatal("negative mask range accepted")
	}
	if _, err := e.NumericResponderFloat(NewFloat64Matrix(3, 1), []float64{1, 2, 3}, jk, DefaultFloatParams, Batch); err == nil {
		t.Fatal("batch mode accepted a 3-row disguise")
	}
	if _, err := e.NumericResponderFloat(NewFloat64Matrix(2, 1), []float64{1, 2, 3}, jk, DefaultFloatParams, PerPair); err == nil {
		t.Fatal("per-pair mode accepted a disguise with the wrong row count")
	}
}

func TestNumericProtocolMatchesPlaintextModP(t *testing.T) {
	gen := rng.NewXoshiro(rng.SeedFromUint64(9))
	// Beyond the int64 arithmetic's bound.
	xs, ys := randomInts(gen, 11, -1<<45, 1<<45), randomInts(gen, 9, -1<<45, 1<<45)
	for _, mode := range []Mode{Batch, PerPair} {
		t.Run(mode.String(), func(t *testing.T) {
			jk, jt := streams(rng.KindAESCTR, 41, 42)
			checkPlaintext(t, roundTrip(t, NewEngine(1), mustNumeric(t, ModPVariant, mode), xs, ys, jk, jt).dist, xs, ys, 0)
		})
	}
}

// TestModPValidation: a disguise for a negative responder row count is
// refused, and so is a torn chunk or a non-canonical residue wherever it
// is read — by the responder's Combine and the third party's strip.
func TestModPValidation(t *testing.T) {
	e, num := NewEngine(1), mustNumeric(t, ModPVariant, PerPair)
	if _, err := num.Disguise(e, nil, column(t, num, []float64{1}), 0, 1, -2, rng.Scripted(1), rng.Scripted(1), InitiatorCols); err == nil {
		t.Fatal("a disguise for a negative responder row count accepted")
	}
	ones, tag := make([]byte, 32), modPCells{}.tag()
	for i := range ones {
		ones[i] = 0xff
	}
	y := column(t, num, []float64{1})
	for name, c := range map[string]NumericChunk{
		"inconsistent chunk":    {Rows: 1, Cols: 2, Cells: ones, tag: tag},
		"non-canonical residue": {Rows: 1, Cols: 1, Cells: ones, tag: tag},
	} {
		if _, err := num.Combine(e, nil, []NumericChunk{c}, y, 0, 1, rng.Scripted(1), InitiatorCols); err == nil {
			t.Fatalf("%s accepted by responder", name)
		}
	}
	row, err := num.Strip(e, NumericChunk{Rows: 1, Cols: 1, Cells: ones, tag: tag}, 0, 1, rng.Scripted(1), InitiatorCols)
	if err == nil {
		err = row(0, make([]float64, 1))
	}
	if err == nil {
		t.Fatal("non-canonical residue accepted by TP")
	}
}

// TestQuickNumericProtocolRoundTrip property-tests the full three-site
// integer protocol on arbitrary in-range inputs and seeds.
func TestQuickNumericProtocolRoundTrip(t *testing.T) {
	f := func(x, y int32, seedJK, seedJT uint64, perPair bool) bool {
		mode := Batch
		if perPair {
			mode = PerPair
		}
		jk, jt := streams(rng.KindXoshiro, seedJK, seedJT)
		got := roundTrip(t, NewEngine(1), mustNumeric(t, Int64Variant, mode), []float64{float64(x)}, []float64{float64(y)}, jk, jt)
		return got.dist[0] == math.Abs(float64(x)-float64(y))
	}
	if err := quickCheck(f); err != nil {
		t.Fatal(err)
	}
}

func TestModeString(t *testing.T) {
	if Batch.String() != "batch" || PerPair.String() != "per-pair" || Mode(9).String() != "unknown" {
		t.Fatal("Mode.String mismatch")
	}
}

func TestMatrixValidateAndAccessors(t *testing.T) {
	m := NewInt64Matrix(2, 3)
	m.Set(1, 2, -7)
	if m.At(1, 2) != -7 {
		t.Fatal("Int64Matrix accessor mismatch")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	f := NewFloat64Matrix(3, 2)
	f.Set(2, 1, 1.5)
	if f.At(2, 1) != 1.5 {
		t.Fatal("Float64Matrix accessor mismatch")
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (&Float64Matrix{Rows: 1, Cols: 1}).Validate(); err == nil {
		t.Fatal("short float matrix accepted")
	}
}
