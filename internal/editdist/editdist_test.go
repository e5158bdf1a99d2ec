package editdist

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ppclust/internal/alphabet"
	"ppclust/internal/rng"
)

func dist(t *testing.T, a *alphabet.Alphabet, s, u string) int {
	t.Helper()
	return Distance(a.MustEncode(s), a.MustEncode(u))
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
	}
}

// packRows lays rows×cols cells out as FromMasked reads them: each row's
// cells as little-endian bits-wide fields, padded with zero bits to a byte.
func packRows[T ~uint16 | ~int](cells []T, rows, cols, bits int) []byte {
	rb := (cols*bits + 7) / 8
	out := make([]byte, rows*rb)
	for i := range rows {
		for j := range cols {
			out[i*rb+j*bits/8] |= byte(cells[i*cols+j]) << (j * bits % 8)
		}
	}
	return out
}

// TestFromMaskedMatchesDistance: over masked differences (b[j] + mask[j] −
// a[i]) mod n the fused kernel returns the strings' edit distance, for
// symbol cells and for cells packed at every width that holds them; a cell
// at the limit is refused, and so is a padding bit; a matrix with no row
// needs no mask.
func TestFromMaskedMatchesDistance(t *testing.T) {
	gen := rand.New(rand.NewSource(26))
	s := MustUnitScratch()
	for trial := 0; trial < 300; trial++ {
		n := []int{3, 4, 13, 16, 20, 200}[trial%6]
		a, b := make([]alphabet.Symbol, gen.Intn(70)), make([]alphabet.Symbol, gen.Intn(70))
		for i := range a {
			a[i] = alphabet.Symbol(gen.Intn(n))
		}
		mask := make([]int, len(b))
		for j := range b {
			b[j], mask[j] = alphabet.Symbol(gen.Intn(n)), gen.Intn(n)
		}
		wide := make([]alphabet.Symbol, len(a)*len(b))
		for i := range a {
			for j := range b {
				wide[i*len(b)+j] = alphabet.Symbol((int(b[j]) + mask[j] - int(a[i]) + n) % n)
			}
		}
		want := Distance(a, b)
		if got, ok := FromMaskedSymbols(s, wide, len(a), len(b), mask, n); !ok || got != want {
			t.Fatalf("trial %d: symbol cells give %d (%v), want %d", trial, got, ok, want)
		}
		for _, bits := range []int{2, 4, 8} {
			if n > 1<<bits {
				continue
			}
			cells, pm := packRows(wide, len(a), len(b), bits), packRows(mask, 1, len(b), bits)
			if got, ok := FromMasked(s, cells, bits, len(a), len(b), pm, n); !ok || got != want {
				t.Fatalf("trial %d: %d-bit cells give %d (%v), want %d", trial, bits, got, ok, want)
			}
			if len(cells) == 0 {
				continue
			}
			rb := len(cells) / len(a)
			if len(b)*bits%8 != 0 {
				bad := slices.Clone(cells)
				bad[rb*gen.Intn(len(a))+rb-1] |= 0x80
				if _, ok := FromMasked(s, bad, bits, len(a), len(b), pm, n); ok {
					t.Fatalf("trial %d: a %d-bit row's padding bit passed", trial, bits)
				}
			}
			if n < 1<<bits {
				at := gen.Intn(len(wide))
				bad := slices.Clone(wide)
				bad[at] = alphabet.Symbol(n)
				if _, ok := FromMasked(s, packRows(bad, len(a), len(b), bits), bits, len(a), len(b), pm, n); ok {
					t.Fatalf("trial %d: a %d-bit cell at the limit passed", trial, bits)
				}
				if _, ok := FromMaskedSymbols(s, bad, len(a), len(b), mask, n); ok {
					t.Fatalf("trial %d: a symbol cell at the limit passed", trial)
				}
			}
		}
	}
	if got, ok := FromMasked(s, nil, 2, 0, 7, nil, 4); !ok || got != 7 {
		t.Fatalf("0×7 matrix: %d (%v), want 7", got, ok)
	}
	if got, ok := FromMasked(s, nil, 2, 5, 0, nil, 4); !ok || got != 5 {
		t.Fatalf("5×0 matrix: %d (%v), want 5", got, ok)
	}
}

// BenchmarkScratch times the allocation-free forms on both sides of the
// one-word pattern limit: 16 and 64 symbols run the bit-parallel kernel, 96
// the DP fallback. FromMasked reads a CCM's cells against a byte mask, the
// way the third party reads a byte slab.
func BenchmarkScratch(b *testing.B) {
	for _, size := range []int{16, 64, 96} {
		gen := rng.NewXoshiro(rng.SeedFromUint64(uint64(size)))
		var strs [2][]alphabet.Symbol
		for i := range strs {
			strs[i] = make([]alphabet.Symbol, size)
			for j := range strs[i] {
				strs[i][j] = alphabet.Symbol(rng.Symbol(gen, alphabet.DNA.Size()))
			}
		}
		ccm, zero := BuildCCM(strs[0], strs[1]), make([]byte, size)
		sc := MustUnitScratch()
		b.Run(fmt.Sprintf("Distance/%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sc.Distance(strs[0], strs[1])
			}
		})
		b.Run(fmt.Sprintf("FromMasked/%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				FromMasked(sc, ccm.Cell, 8, size, size, zero, 2)
			}
		})
	}
}

// FuzzEditDistance checks every form against the independent full-matrix
// naive: strings of up to 130 symbols on both sides of the one-word
// pattern, over alphabets of 1 to 65536 symbols. A string is one symbol per
// byte, reduced modulo the alphabet size. From the strings and the masks
// it builds a responder's masked differences as symbol cells and, packed
// at every width of 2, 4 and 8 bits that holds them, as field cells;
// corrupt replaces one cell with a value out of range, and ok must be false
// exactly when some cell is not below the limit.
func FuzzEditDistance(f *testing.F) {
	f.Add([]byte("kitten"), []byte("sitting"), uint16(25), uint64(1), uint32(0))
	f.Add([]byte(""), []byte("abc"), uint16(0), uint64(2), uint32(0))
	f.Add(make([]byte, 64), make([]byte, 65), uint16(3), uint64(3), uint32(0))
	f.Add([]byte(strings.Repeat("acgt", 16)), []byte(strings.Repeat("tgca", 16)+"a"), uint16(3), uint64(4), uint32(196<<8|7))
	f.Add([]byte(strings.Repeat("ab", 33)), []byte(strings.Repeat("ba", 65)), uint16(127), uint64(5), uint32(1<<8|1))
	f.Add([]byte(strings.Repeat("ba", 32)), []byte(strings.Repeat("ab", 40)), uint16(128), uint64(8), uint32(2<<8|5))
	f.Add([]byte("short"), []byte("pattern"), uint16(255), uint64(6), uint32(0))
	f.Add([]byte("short"), []byte("pattern"), uint16(300), uint64(7), uint32(1000<<8|3))
	f.Fuzz(func(t *testing.T, ra, rb []byte, lim uint16, seed uint64, corrupt uint32) {
		n := int(lim) + 1
		sym := func(raw []byte) []alphabet.Symbol {
			out := make([]alphabet.Symbol, min(len(raw), 130))
			for i := range out {
				out[i] = alphabet.Symbol(int(raw[i]) % n)
			}
			return out
		}
		a, b := sym(ra), sym(rb)
		want := naive(a, b)
		sc := MustUnitScratch()
		if got := Distance(a, b); got != want {
			t.Fatalf("Distance = %d, naive %d", got, want)
		}
		if got, back := sc.Distance(a, b), sc.Distance(b, a); got != want || back != want {
			t.Fatalf("Scratch.Distance = %d and %d reversed, naive %d", got, back, want)
		}
		if got := sc.FromCCM(BuildCCM(a, b)); got != want {
			t.Fatalf("Scratch.FromCCM = %d, naive %d", got, want)
		}

		gen := rng.NewXoshiro(rng.SeedFromUint64(seed))
		mask := make([]int, len(b))
		for j := range mask {
			mask[j] = rng.Symbol(gen, n)
		}
		wide := make([]alphabet.Symbol, len(a)*len(b))
		for i := range a {
			for j := range b {
				wide[i*len(b)+j] = alphabet.Symbol((int(b[j]) + mask[j] - int(a[i]) + n) % n)
			}
		}
		if corrupt != 0 && len(wide) > 0 && n < 1<<16 {
			wide[int(corrupt)%len(wide)] = alphabet.Symbol(n + int(corrupt>>8)%(1<<16-n))
		}
		inRange := !slices.ContainsFunc(wide, func(c alphabet.Symbol) bool { return int(c) >= n })
		check := func(form string, got int, ok bool) {
			t.Helper()
			if ok != inRange || ok && got != want {
				t.Fatalf("%s = %d (ok %v), naive %d (in range %v)", form, got, ok, want, inRange)
			}
		}
		got, ok := FromMaskedSymbols(sc, wide, len(a), len(b), mask, n)
		check("FromMaskedSymbols", got, ok)
		for _, bits := range []int{2, 4, 8} {
			if n > 1<<bits || slices.ContainsFunc(wide, func(c alphabet.Symbol) bool { return int(c) >= 1<<bits }) {
				continue
			}
			got, ok = FromMasked(sc, packRows(wide, len(a), len(b), bits), bits, len(a), len(b), packRows(mask, 1, len(b), bits), n)
			check(fmt.Sprintf("FromMasked over %d-bit cells", bits), got, ok)
		}
	})
}
