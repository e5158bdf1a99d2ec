package editdist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ppclust/internal/alphabet"
	"ppclust/internal/rng"
)

func dist(t *testing.T, a *alphabet.Alphabet, s, u string) int {
	t.Helper()
	d, err := DistanceStrings(a, s, u)
	if err != nil {
		t.Fatalf("DistanceStrings(%q,%q): %v", s, u, err)
	}
	return d
}

func TestKnownDistances(t *testing.T) {
	cases := []struct {
		a    *alphabet.Alphabet
		s, t string
		want int
	}{
		{alphabet.Lower, "", "", 0},
		{alphabet.Lower, "abc", "abc", 0},
		{alphabet.Lower, "abc", "", 3},
		{alphabet.Lower, "", "abc", 3},
		{alphabet.Lower, "kitten", "sitting", 3},
		{alphabet.Lower, "flaw", "lawn", 2},
		{alphabet.Lower, "intention", "execution", 5},
		{alphabet.DNA, "GATTACA", "GCATGCT", 4},
		{alphabet.DNA, "ACGT", "ACGT", 0},
		{alphabet.DNA, "A", "T", 1},
		{alphabet.DNA, "AC", "CA", 2},
	}
	for _, c := range cases {
		if got := dist(t, c.a, c.s, c.t); got != c.want {
			t.Errorf("d(%q,%q) = %d, want %d", c.s, c.t, got, c.want)
		}
	}
}

// naive is an independent full-matrix reference implementation.
func naive(a, b []alphabet.Symbol) int {
	dp := make([][]int, len(a)+1)
	for i := range dp {
		dp[i] = make([]int, len(b)+1)
		dp[i][0] = i
	}
	for j := 0; j <= len(b); j++ {
		dp[0][j] = j
	}
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= len(b); j++ {
			sub := dp[i-1][j-1]
			if a[i-1] != b[j-1] {
				sub++
			}
			d := dp[i-1][j] + 1
			ins := dp[i][j-1] + 1
			m := sub
			if d < m {
				m = d
			}
			if ins < m {
				m = ins
			}
			dp[i][j] = m
		}
	}
	return dp[len(a)][len(b)]
}

func randStrings(n, maxLen int, a *alphabet.Alphabet, seed uint64) [][]alphabet.Symbol {
	s := rng.NewXoshiro(rng.SeedFromUint64(seed))
	out := make([][]alphabet.Symbol, n)
	for i := range out {
		l := int(rng.Uint64n(s, uint64(maxLen+1)))
		v := make([]alphabet.Symbol, l)
		for j := range v {
			v[j] = alphabet.Symbol(rng.Symbol(s, a.Size()))
		}
		out[i] = v
	}
	return out
}

func TestMatchesNaiveReference(t *testing.T) {
	strs := randStrings(40, 18, alphabet.DNA, 1)
	for i := range strs {
		for j := range strs {
			got := Distance(strs[i], strs[j])
			want := naive(strs[i], strs[j])
			if got != want {
				t.Fatalf("d(%v,%v) = %d, want %d", strs[i], strs[j], got, want)
			}
		}
	}
}

func TestMetricProperties(t *testing.T) {
	strs := randStrings(14, 10, alphabet.DNA, 2)
	for i := range strs {
		if Distance(strs[i], strs[i]) != 0 {
			t.Fatalf("d(x,x) != 0 for %v", strs[i])
		}
		for j := range strs {
			dij := Distance(strs[i], strs[j])
			if dij != Distance(strs[j], strs[i]) {
				t.Fatalf("asymmetric distance for %v,%v", strs[i], strs[j])
			}
			if i != j && len(strs[i]) != len(strs[j]) && dij == 0 {
				t.Fatalf("distinct-length strings at distance 0")
			}
			for k := range strs {
				if Distance(strs[i], strs[k]) > dij+Distance(strs[j], strs[k]) {
					t.Fatalf("triangle inequality violated at %d,%d,%d", i, j, k)
				}
			}
		}
	}
}

func TestCCMEquivalence(t *testing.T) {
	// Core protocol property: edit distance from the CCM must equal edit
	// distance from the strings, for all pairs.
	strs := randStrings(25, 15, alphabet.Protein, 3)
	for i := range strs {
		for j := range strs {
			ccm := BuildCCM(strs[i], strs[j])
			if err := ccm.Validate(); err != nil {
				t.Fatal(err)
			}
			if got, want := FromCCM(ccm), Distance(strs[i], strs[j]); got != want {
				t.Fatalf("FromCCM = %d, Distance = %d for pair %d,%d", got, want, i, j)
			}
		}
	}
}

func TestCCMDims(t *testing.T) {
	s := alphabet.DNA.MustEncode("ACG")
	u := alphabet.DNA.MustEncode("TT")
	ccm := BuildCCM(s, u)
	if ccm.Rows != 3 || ccm.Cols != 2 {
		t.Fatalf("dims = %d,%d, want 3,2", ccm.Rows, ccm.Cols)
	}
	if ccm.At(0, 1) != 1 { // 'A' vs 'T'
		t.Fatal("At(0,1) should be 1 for differing symbols")
	}
}

func TestCCMValidate(t *testing.T) {
	bad := CCM{Rows: 2, Cols: 2, Cell: []uint8{0, 1, 0}}
	if bad.Validate() == nil {
		t.Fatal("short storage accepted")
	}
	bad2 := CCM{Rows: 1, Cols: 2, Cell: []uint8{0, 2}}
	if bad2.Validate() == nil {
		t.Fatal("non-binary CCM accepted")
	}
	good := CCM{Rows: 2, Cols: 2, Cell: []uint8{0, 1, 1, 0}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if (CCM{}).Validate() != nil {
		t.Fatal("empty CCM rejected")
	}
}

func TestEmptyStringsViaCCM(t *testing.T) {
	// d("", t) must equal len(t): explicit dims preserve the non-empty
	// string's length even when the comparison matrix has no cells.
	u := alphabet.DNA.MustEncode("ACGT")
	if got := FromCCM(BuildCCM(nil, u)); got != 4 {
		t.Fatalf("d(\"\", ACGT) via CCM = %d, want 4", got)
	}
	if got := FromCCM(BuildCCM(u, nil)); got != 4 {
		t.Fatalf("d(ACGT, \"\") via CCM = %d, want 4", got)
	}
	if got := FromCCM(BuildCCM(nil, nil)); got != 0 {
		t.Fatalf("d(\"\",\"\") via CCM = %d, want 0", got)
	}
}

func TestCustomCosts(t *testing.T) {
	a := alphabet.Lower
	s, u := a.MustEncode("abc"), a.MustEncode("adc")
	// Substitution twice as expensive as insert+delete: distance becomes 2
	// via delete+insert rather than 3 via substitution... unit sub = 1.
	if got := DistanceCosts(s, u, Costs{Insert: 1, Delete: 1, Substitute: 3}); got != 2 {
		t.Fatalf("expensive substitution distance = %d, want 2", got)
	}
	if got := DistanceCosts(s, u, Costs{Insert: 1, Delete: 1, Substitute: 1}); got != 1 {
		t.Fatalf("unit distance = %d, want 1", got)
	}
	if got := FromCCMCosts(BuildCCM(s, u), Costs{Insert: 1, Delete: 1, Substitute: 3}); got != 2 {
		t.Fatal("FromCCMCosts disagrees with DistanceCosts")
	}
}

func TestNegativeCostsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative costs did not panic")
		}
	}()
	DistanceCosts(nil, nil, Costs{Insert: -1, Delete: 1, Substitute: 1})
}

func TestQuickCCMEquivalence(t *testing.T) {
	s := rng.NewXoshiro(rng.SeedFromUint64(4))
	f := func(alen, blen uint8) bool {
		a := make([]alphabet.Symbol, alen%12)
		b := make([]alphabet.Symbol, blen%12)
		for i := range a {
			a[i] = alphabet.Symbol(rng.Symbol(s, 4))
		}
		for i := range b {
			b[i] = alphabet.Symbol(rng.Symbol(s, 4))
		}
		return FromCCM(BuildCCM(a, b)) == Distance(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDistanceBounds(t *testing.T) {
	s := rng.NewXoshiro(rng.SeedFromUint64(5))
	f := func(alen, blen uint8) bool {
		a := make([]alphabet.Symbol, alen%20)
		b := make([]alphabet.Symbol, blen%20)
		for i := range a {
			a[i] = alphabet.Symbol(rng.Symbol(s, 4))
		}
		for i := range b {
			b[i] = alphabet.Symbol(rng.Symbol(s, 4))
		}
		d := Distance(a, b)
		lo := len(a) - len(b)
		if lo < 0 {
			lo = -lo
		}
		hi := len(a)
		if len(b) > hi {
			hi = len(b)
		}
		return d >= lo && d <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDistance32(b *testing.B) {
	strs := randStrings(2, 32, alphabet.DNA, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Distance(strs[0], strs[1])
	}
}

func BenchmarkFromCCM32(b *testing.B) {
	strs := randStrings(2, 32, alphabet.DNA, 7)
	ccm := BuildCCM(strs[0], strs[1])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FromCCM(ccm)
	}
}

// TestScratchMatchesOneShot checks the reusable evaluator against the
// allocating entry points across many random pairs, reusing one Scratch.
func TestScratchMatchesOneShot(t *testing.T) {
	s := rng.NewXoshiro(rng.SeedFromUint64(77))
	sc := MustUnitScratch()
	weighted, err := NewScratch(Costs{Insert: 2, Delete: 3, Substitute: 5})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		a := make([]alphabet.Symbol, rng.Symbol(s, 20))
		b := make([]alphabet.Symbol, rng.Symbol(s, 20))
		for i := range a {
			a[i] = alphabet.Symbol(rng.Symbol(s, 4))
		}
		for i := range b {
			b[i] = alphabet.Symbol(rng.Symbol(s, 4))
		}
		if got, want := sc.Distance(a, b), Distance(a, b); got != want {
			t.Fatalf("Scratch.Distance = %d, want %d", got, want)
		}
		ccm := BuildCCM(a, b)
		if got, want := sc.FromCCM(ccm), FromCCM(ccm); got != want {
			t.Fatalf("Scratch.FromCCM = %d, want %d", got, want)
		}
		wc := weighted.Costs()
		if got, want := weighted.Distance(a, b), DistanceCosts(a, b, wc); got != want {
			t.Fatalf("weighted Scratch.Distance = %d, want %d", got, want)
		}
		if got, want := weighted.FromCCM(ccm), FromCCMCosts(ccm, wc); got != want {
			t.Fatalf("weighted Scratch.FromCCM = %d, want %d", got, want)
		}
	}
}

// TestScratchRejectsInvalidCosts checks validation happens once, at
// construction.
func TestScratchRejectsInvalidCosts(t *testing.T) {
	if _, err := NewScratch(Costs{Insert: -1, Delete: 1, Substitute: 1}); err == nil {
		t.Fatal("negative insert cost accepted")
	}
}

// TestFromMaskedMatchesDistance: over masked differences (b[j] + mask[j] −
// a[i]) mod n the fused kernel returns the strings' edit distance, for byte
// and symbol cells alike; a cell at the limit is refused; a matrix with no
// row needs no mask.
func TestFromMaskedMatchesDistance(t *testing.T) {
	const n = 20
	gen := rand.New(rand.NewSource(26))
	s := MustUnitScratch()
	for trial := 0; trial < 200; trial++ {
		a, b := make([]alphabet.Symbol, gen.Intn(70)), make([]alphabet.Symbol, gen.Intn(70))
		for i := range a {
			a[i] = alphabet.Symbol(gen.Intn(n))
		}
		mask := make([]int, len(b))
		for j := range b {
			b[j], mask[j] = alphabet.Symbol(gen.Intn(n)), gen.Intn(n)
		}
		wide, narrow := make([]alphabet.Symbol, len(a)*len(b)), make([]byte, len(a)*len(b))
		for i := range a {
			for j := range b {
				d := (int(b[j]) + mask[j] - int(a[i]) + n) % n
				wide[i*len(b)+j], narrow[i*len(b)+j] = alphabet.Symbol(d), byte(d)
			}
		}
		want := Distance(a, b)
		if got, ok := FromMasked(s, wide, len(a), len(b), mask, n); !ok || got != want {
			t.Fatalf("trial %d: symbol cells give %d (%v), want %d", trial, got, ok, want)
		}
		if got, ok := FromMasked(s, narrow, len(a), len(b), mask, n); !ok || got != want {
			t.Fatalf("trial %d: byte cells give %d (%v), want %d", trial, got, ok, want)
		}
		if len(narrow) > 0 {
			narrow[gen.Intn(len(narrow))] = n
			if _, ok := FromMasked(s, narrow, len(a), len(b), mask, n); ok {
				t.Fatalf("trial %d: a cell at the limit passed", trial)
			}
		}
	}
	if got, ok := FromMasked(s, []byte(nil), 0, 7, nil, n); !ok || got != 7 {
		t.Fatalf("0×7 matrix: %d (%v), want 7", got, ok)
	}
}
