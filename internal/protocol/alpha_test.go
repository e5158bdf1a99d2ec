package protocol

import (
	"testing"

	"ppclust/internal/alphabet"
	"ppclust/internal/editdist"
	"ppclust/internal/rng"
)

// TestFigure7WorkedExample reproduces the paper's Figure 7 alphanumeric
// example exactly: alphabet A={a,b,c,d}, S="abc" at DHJ, T="bd" at DHK and
// mask vector R=(0,1,3) give S′="acb", the intermediary difference matrix
// M, and a CCM whose only zero is at CCM[0][1], implying s[1] = t[0] = 'b'.
// (Experiment E3.)
func TestFigure7WorkedExample(t *testing.T) {
	abcd := alphabet.MustNew("abcd", []rune("abcd"))
	s := SymbolString(abcd.MustEncode("abc"))
	tt := SymbolString(abcd.MustEncode("bd"))

	// R = "013": symbol offsets 0, 1, 3 (cycled by Reseed for every string).
	e, jt := NewEngine(1), rng.Scripted(0, 1, 3)
	disguised := e.AlphaInitiator([]SymbolString{s}, abcd, jt)
	if got := abcd.Decode(disguised[0]); got != "acb" {
		t.Fatalf("S′ = %q, want %q", got, "acb")
	}

	inter := e.AlphaResponder([]SymbolString{tt}, disguised, abcd)
	// Paper's M (row q = T's chars, col p = S′'s chars):
	//   a−b  c−b  b−b        d  b  a     (symbols: 3,1,0)
	//   a−d  c−d  b−d   =    b  d  c     (symbols: 1,3,2)
	m := inter[0][0]
	wantM := [][]alphabet.Symbol{{3, 1, 0}, {1, 3, 2}}
	for q := 0; q < 2; q++ {
		for p := 0; p < 3; p++ {
			if m.At(q, p) != wantM[q][p] {
				t.Fatalf("M[%d][%d] = %d, want %d", q, p, m.At(q, p), wantM[q][p])
			}
		}
	}

	ccms, err := oracleAlphaCCMs(inter, abcd, rng.Scripted(0, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	ccm := ccms[0][0] // the paper's CCM, by the three-pass reference
	// CCM[0][1] = 0 implies s[1] = t[0] (both 'b'); everything else is 1.
	for q := 0; q < ccm.Rows; q++ {
		for p := 0; p < ccm.Cols; p++ {
			want := uint8(1)
			if q == 0 && p == 1 {
				want = 0
			}
			if ccm.At(q, p) != want {
				t.Fatalf("CCM[%d][%d] = %d, want %d", q, p, ccm.At(q, p), want)
			}
		}
	}

	// End to end: edit distance abc→bd is 2 (delete 'a', substitute c→d).
	dist, err := e.AlphaThirdParty(inter, abcd, rng.Scripted(0, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got := dist.At(0, 0); got != 2 {
		t.Fatalf("editdist = %d, want 2", got)
	}
}

func randomStrings(gen rng.Stream, a *alphabet.Alphabet, n, maxLen int) []SymbolString {
	out := make([]SymbolString, n)
	for i := range out {
		l := int(rng.Uint64n(gen, uint64(maxLen+1)))
		s := make(SymbolString, l)
		for j := range s {
			s[j] = alphabet.Symbol(rng.Symbol(gen, a.Size()))
		}
		out[i] = s
	}
	return out
}

// TestAlphanumericProtocolMatchesPlaintext is experiment E4: the third
// party's distances equal centralized edit distances for every cross-site
// pair, over several alphabets (including ones whose size is not a power of
// two, exercising rejection-sampled symbol draws).
func TestAlphanumericProtocolMatchesPlaintext(t *testing.T) {
	for _, a := range []*alphabet.Alphabet{alphabet.DNA, alphabet.Protein, alphabet.Lower} {
		t.Run(a.Name(), func(t *testing.T) {
			gen := rng.NewXoshiro(rng.SeedFromUint64(11))
			js := randomStrings(gen, a, 12, 14)
			ks := randomStrings(gen, a, 9, 14)
			seedJT := rng.SeedFromUint64(77)

			e := NewEngine(1)
			disguised := e.AlphaInitiator(js, a, rng.NewAESCTR(seedJT))
			inter := e.AlphaResponder(ks, disguised, a)
			dist, err := e.AlphaThirdParty(inter, a, rng.NewAESCTR(seedJT))
			if err != nil {
				t.Fatal(err)
			}
			if dist.Rows != len(ks) || dist.Cols != len(js) {
				t.Fatalf("block %dx%d, want %dx%d", dist.Rows, dist.Cols, len(ks), len(js))
			}
			for m := range ks {
				for n := range js {
					want := int64(editdist.Distance(ks[m], js[n]))
					if got := dist.At(m, n); got != want {
						t.Fatalf("d(K%d, J%d) = %d, want %d", m, n, got, want)
					}
				}
			}
		})
	}
}

func TestAlphanumericEmptyStrings(t *testing.T) {
	a := alphabet.DNA
	js := []SymbolString{a.MustEncode(""), a.MustEncode("ACG")}
	ks := []SymbolString{a.MustEncode("T"), a.MustEncode("")}
	seed := rng.SeedFromUint64(5)
	e := NewEngine(1)
	disguised := e.AlphaInitiator(js, a, rng.NewAESCTR(seed))
	inter := e.AlphaResponder(ks, disguised, a)
	dist, err := e.AlphaThirdParty(inter, a, rng.NewAESCTR(seed))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{1, 3}, {0, 3}} // d(T,"")=1 d(T,ACG)=3; d("","")=0 d("",ACG)=3
	for m := range ks {
		for n := range js {
			if dist.At(m, n) != want[m][n] {
				t.Fatalf("d[%d][%d] = %d, want %d", m, n, dist.At(m, n), want[m][n])
			}
		}
	}
}

// TestAlphaDisguiseHidesStrings: the responder sees only masked symbols;
// with a CSPRNG mask every symbol of the disguised string is uniform, so the
// empirical distribution over many seeds must be flat regardless of input.
func TestAlphaDisguiseHidesStrings(t *testing.T) {
	a := alphabet.DNA
	s := []SymbolString{a.MustEncode("AAAAAAAA")} // worst case: constant input
	counts := make([]int, a.Size())
	const trials = 3000
	for i := 0; i < trials; i++ {
		d := NewEngine(1).AlphaInitiator(s, a, rng.NewAESCTR(rng.SeedFromUint64(uint64(i))))
		counts[d[0][0]]++
	}
	expected := float64(trials) / float64(a.Size())
	chi := 0.0
	for _, c := range counts {
		diff := float64(c) - expected
		chi += diff * diff / expected
	}
	if chi > 16.27 { // 0.1% critical value, 3 dof
		t.Fatalf("disguised first symbol is not uniform: chi=%v counts=%v", chi, counts)
	}
}

// TestAlphaSharedMaskPrefix documents the batch-mode structure: all of a
// site's strings are disguised with the same mask prefix (the generator is
// re-initialized after every string), which is what lets the third party
// decode with a single shared seed.
func TestAlphaSharedMaskPrefix(t *testing.T) {
	a := alphabet.DNA
	strs := []SymbolString{a.MustEncode("ACGT"), a.MustEncode("AC"), a.MustEncode("A")}
	d := NewEngine(1).AlphaInitiator(strs, a, rng.NewAESCTR(rng.SeedFromUint64(3)))
	// Identical leading plaintext symbols ⇒ identical leading disguised
	// symbols across strings.
	if d[0][0] != d[1][0] || d[1][0] != d[2][0] {
		t.Fatal("first symbols disguised differently across strings")
	}
	if d[0][1] != d[1][1] {
		t.Fatal("second symbols disguised differently across strings")
	}
}

func TestAlphaThirdPartyValidation(t *testing.T) {
	a, e := alphabet.DNA, NewEngine(1)
	if _, err := e.AlphaThirdParty([][]*SymbolMatrix{{nil}}, a, rng.Scripted(0)); err == nil {
		t.Fatal("nil intermediary accepted")
	}
	bad := &SymbolMatrix{Rows: 1, Cols: 2, Cell: []alphabet.Symbol{0}}
	if _, err := e.AlphaThirdParty([][]*SymbolMatrix{{bad}}, a, rng.Scripted(0)); err == nil {
		t.Fatal("inconsistent intermediary accepted")
	}
	oob := &SymbolMatrix{Rows: 1, Cols: 1, Cell: []alphabet.Symbol{99}}
	if _, err := e.AlphaThirdParty([][]*SymbolMatrix{{oob}}, a, rng.Scripted(0)); err == nil {
		t.Fatal("out-of-alphabet symbol accepted")
	}
}

func TestSymbolMatrixAccessors(t *testing.T) {
	m := NewSymbolMatrix(2, 2)
	m.Set(1, 0, 3)
	if m.At(1, 0) != 3 {
		t.Fatal("SymbolMatrix accessor mismatch")
	}
	if err := m.Validate(alphabet.DNA); err != nil {
		t.Fatal(err)
	}
}
