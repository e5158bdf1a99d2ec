package costmodel

import (
	"math"
	"testing"

	"ppclust/internal/alphabet"
)

// TestNumericElems: a pair block cut at h puts J's disguise on the J→K
// link only when K produces rows, K's only when J does, and the block's
// rows on the two links to the third party.
func TestNumericElems(t *testing.T) {
	for _, tc := range []struct {
		nj, nk, h      int
		perPair        bool
		jk, kj, jt, kt int64
	}{
		{10, 7, 3, false, 10, 4, 40, 30},
		{10, 7, 3, true, 30, 40, 40, 30},
		{10, 7, 0, false, 0, 7, 70, 0},
		{10, 7, 7, true, 70, 0, 0, 70},
		{0, 7, 7, false, 0, 0, 0, 0},
	} {
		jk, kj, jt, kt := NumericPairElems(tc.nj, tc.nk, tc.h, tc.perPair)
		if jk != tc.jk || kj != tc.kj || jt != tc.jt || kt != tc.kt {
			t.Errorf("%+v: got %d/%d/%d/%d", tc, jk, kj, jt, kt)
		}
	}
	toTP, toPeer := NumericLinkElems([]int{600, 600}, false)
	if want := int64(600*599/2 + 300*600); toTP[0] != want || toTP[1] != want || toPeer[0][1] != 600 || toPeer[1][0] != 300 {
		t.Fatalf("600 + 600: to TP %v, to peers %v", toTP, toPeer)
	}
}

func TestAlphaElems(t *testing.T) {
	local, proto := AlphaInitiatorElems(10, 16)
	if local != 45 || proto != 160 {
		t.Fatalf("alpha initiator: %d/%d", local, proto)
	}
	local, proto = AlphaResponderElems(10, 16, 7, 12)
	if local != 21 || proto != 7*12*10*16 {
		t.Fatalf("alpha responder: %d/%d", local, proto)
	}
}

// TestAlphaBytes: a row is its symbols at the alphabet's cell width,
// padded to a whole byte.
func TestAlphaBytes(t *testing.T) {
	wide := alphabet.MustNew("wide", func() []rune {
		r := make([]rune, 300)
		for i := range r {
			r[i] = rune(0x100 + i)
		}
		return r
	}())
	for _, tc := range []struct {
		a         *alphabet.Alphabet
		p, rowLen int64
	}{
		{alphabet.DNA, 16, 4}, {alphabet.DNA, 13, 4}, {alphabet.DNA, 17, 5},
		{alphabet.Digits, 5, 3}, {alphabet.Digits, 16, 8},
		{alphabet.Protein, 13, 13}, {alphabet.AlphaNum, 7, 7}, {wide, 3, 6},
	} {
		if got := AlphaInitiatorBytes(tc.a, 10, int(tc.p)); got != 10*tc.rowLen {
			t.Errorf("%v, p = %d: initiator %d bytes, want %d", tc.a, tc.p, got, 10*tc.rowLen)
		}
		if got := AlphaResponderBytes(tc.a, 10, int(tc.p), 7, 12); got != 7*10*12*tc.rowLen {
			t.Errorf("%v, p = %d: responder %d bytes, want %d", tc.a, tc.p, got, 7*10*12*tc.rowLen)
		}
	}
}

func TestCategoricalElems(t *testing.T) {
	if CategoricalElems(42) != 42 {
		t.Fatal("categorical is O(n)")
	}
	if Bytes(CategoricalElems(42), TagWidth) != 42*32 {
		t.Fatal("tag bytes")
	}
}

func TestAtallahDominatesOurs(t *testing.T) {
	// E14: for realistic sizes the homomorphic comparator costs orders of
	// magnitude more traffic than the CCM protocol.
	n, p, m, q := 50, 20, 50, 20
	ours := OursAlphaTotalBytes(alphabet.Protein, n, p, m, q)
	theirs := DefaultAtallah.TotalBytes(n, p, m, q)
	if theirs < 100*ours {
		t.Fatalf("expected ≥100x gap, got ours=%d theirs=%d (%.1fx)", ours, theirs, float64(theirs)/float64(ours))
	}
}

func TestAtallahPairBytes(t *testing.T) {
	got := DefaultAtallah.PairBytes(20, 20)
	want := int64(21*21) * 3 * 128
	if got != want {
		t.Fatalf("PairBytes = %d, want %d", got, want)
	}
}

func TestFitScaleExactSeries(t *testing.T) {
	pred := []float64{1, 4, 9, 16}
	meas := []float64{2.5, 10, 22.5, 40} // exactly 2.5x
	scale, dev, err := FitScale(meas, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(scale-2.5) > 1e-12 || dev > 1e-12 {
		t.Fatalf("scale=%v dev=%v", scale, dev)
	}
}

func TestFitScaleDetectsWrongGrowth(t *testing.T) {
	pred := []float64{1, 2, 3, 4}       // linear model
	meas := []float64{1, 4, 9, 16}      // quadratic reality
	_, dev, err := FitScale(meas, pred) // fit must show large deviation
	if err != nil {
		t.Fatal(err)
	}
	if dev < 0.4 {
		t.Fatalf("deviation %v too small for mismatched growth", dev)
	}
}

func TestFitScaleErrors(t *testing.T) {
	if _, _, err := FitScale(nil, nil); err == nil {
		t.Fatal("empty series accepted")
	}
	if _, _, err := FitScale([]float64{1}, []float64{0}); err == nil {
		t.Fatal("zero predictions accepted")
	}
	if _, _, err := FitScale([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
