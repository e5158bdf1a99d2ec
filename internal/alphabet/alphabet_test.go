package alphabet

import (
	"testing"
	"testing/quick"
)

func TestNewRejectsEmptyAndDuplicates(t *testing.T) {
	if _, err := New("empty", nil); err == nil {
		t.Fatal("empty alphabet accepted")
	}
	if _, err := New("dup", []rune("abca")); err == nil {
		t.Fatal("duplicate symbols accepted")
	}
}

func TestPredefinedSizes(t *testing.T) {
	cases := []struct {
		a    *Alphabet
		size int
	}{
		{DNA, 4}, {Protein, 20}, {Lower, 26}, {Digits, 10}, {AlphaNum, 37},
	}
	for _, c := range cases {
		if c.a.Size() != c.size {
			t.Errorf("%s size = %d, want %d", c.a.Name(), c.a.Size(), c.size)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"dna", "protein", "lower", "digits", "alphanum", "DNA"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("klingon"); err == nil {
		t.Error("unknown alphabet accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, s := range []string{"", "ACGT", "TTTT", "GATTACA"} {
		v, err := DNA.Encode(s)
		if err != nil {
			t.Fatalf("Encode(%q): %v", s, err)
		}
		if got := DNA.Decode(v); got != s {
			t.Fatalf("round trip %q -> %q", s, got)
		}
	}
}

func TestEncodeRejectsForeignRunes(t *testing.T) {
	if _, err := DNA.Encode("ACGU"); err == nil {
		t.Fatal("foreign rune accepted")
	}
	if DNA.Contains("ACGU") {
		t.Fatal("Contains accepted foreign rune")
	}
	if !DNA.Contains("GATTACA") {
		t.Fatal("Contains rejected valid string")
	}
}

func TestSymbolLookup(t *testing.T) {
	s, ok := DNA.Symbol('G')
	if !ok || s != 2 {
		t.Fatalf("Symbol('G') = %d,%v; want 2,true", s, ok)
	}
	if _, ok := DNA.Symbol('z'); ok {
		t.Fatal("Symbol accepted foreign rune")
	}
	if DNA.Rune(3) != 'T' {
		t.Fatal("Rune(3) != 'T'")
	}
}

func TestAddSubInverse(t *testing.T) {
	// Paper Figure 7 example is over A = {a,b,c,d}; verify on DNA (also
	// size 4) plus the larger alphabets via property test below.
	for x := Symbol(0); int(x) < DNA.Size(); x++ {
		for y := Symbol(0); int(y) < DNA.Size(); y++ {
			if got := DNA.Sub(DNA.Add(x, y), y); got != x {
				t.Fatalf("Sub(Add(%d,%d),%d) = %d", x, y, y, got)
			}
		}
	}
}

func TestQuickAddSubInverseAllAlphabets(t *testing.T) {
	for _, a := range []*Alphabet{DNA, Protein, Lower, Digits, AlphaNum} {
		a := a
		f := func(xr, yr uint16) bool {
			x := Symbol(int(xr) % a.Size())
			y := Symbol(int(yr) % a.Size())
			return a.Sub(a.Add(x, y), y) == x && a.Add(a.Sub(x, y), y) == x
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", a.Name(), err)
		}
	}
}

func TestFigure7DisguiseExample(t *testing.T) {
	// Paper Figure 7: alphabet A={a,b,c,d}, S="abc", R="013" (symbol
	// offsets 0,1,3) gives S' = "acb". Reproduce with a custom alphabet.
	abcd := MustNew("abcd", []rune("abcd"))
	s := abcd.MustEncode("abc")
	r := []Symbol{0, 1, 3}
	for i := range s {
		s[i] = abcd.Add(s[i], r[i])
	}
	if got := abcd.Decode(s); got != "acb" {
		t.Fatalf("Figure 7 disguise = %q, want %q", got, "acb")
	}
}

func TestRunePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Rune out of range did not panic")
		}
	}()
	DNA.Rune(4)
}

func TestStringer(t *testing.T) {
	if DNA.String() != "alphabet(dna, 4 symbols)" {
		t.Fatalf("String() = %q", DNA.String())
	}
}

// TestAddSubMatchModulo pins the division-free Add and Sub to the modular
// definition over every operand pair, at sizes on both sides of a byte and
// at the Symbol limit's neighbourhood.
func TestAddSubMatchModulo(t *testing.T) {
	for _, n := range []int{1, 2, 4, 255, 256, 257} {
		runes := make([]rune, n)
		for i := range runes {
			runes[i] = rune(0x100 + i)
		}
		a := MustNew("sized", runes)
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if got, want := a.Add(Symbol(x), Symbol(y)), Symbol((x+y)%n); got != want {
					t.Fatalf("size %d: Add(%d,%d) = %d, want %d", n, x, y, got, want)
				}
				if got, want := a.Sub(Symbol(x), Symbol(y)), Symbol(((x-y)%n+n)%n); got != want {
					t.Fatalf("size %d: Sub(%d,%d) = %d, want %d", n, x, y, got, want)
				}
			}
		}
	}
}

func TestInRange(t *testing.T) {
	if err := InRange(DNA, []Symbol{0, 3, 1}); err != nil {
		t.Fatal(err)
	}
	if err := InRange(DNA, []byte{}); err != nil {
		t.Fatal(err)
	}
	err := InRange(DNA, []byte{2, 4})
	if err == nil || err.Error() != "symbol 4 at position 1 outside alphabet(dna, 4 symbols)" {
		t.Fatalf("InRange = %v", err)
	}
}
