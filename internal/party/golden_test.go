package party

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ppclust/internal/alphabet"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// goldenAlphaCase is one ppc/alpha-m chunk whose payload was recorded, in
// testdata/alpha_m_<name>.hex, from the encoder of commit d84a373 — the
// last one that walked a SymbolMatrix per string pair — over the per-pair
// responder's output for these strings.
type goldenAlphaCase struct {
	name           string
	a              *alphabet.Alphabet
	rows, lo, hi   int
	own, disguised []protocol.SymbolString
	wide           bool // the width byte the parent wrote was 2
}

func goldenAlphaCases() []goldenAlphaCase {
	runes := make([]rune, 300)
	for i := range runes {
		runes[i] = rune(0x100 + i)
	}
	big := alphabet.MustNew("big", runes)
	dna := func(ss ...string) []protocol.SymbolString {
		out := make([]protocol.SymbolString, len(ss))
		for i, s := range ss {
			out[i] = alphabet.DNA.MustEncode(s)
		}
		return out
	}
	return []goldenAlphaCase{
		{"dna", alphabet.DNA, 5, 1, 3, dna("ACGT", "GG"), dna("TTAC", "C", "GATTACA"), false},
		// 0 − 299 and 299 − 0 modulo 300: differences past a byte.
		{"wide", big, 2, 0, 2, []protocol.SymbolString{{299, 0}, {5}}, []protocol.SymbolString{{0, 299, 150}, {298}}, true},
		// The same alphabet, every difference below 256: one byte a cell.
		{"wide_small", big, 7, 6, 7, []protocol.SymbolString{{10, 20}}, []protocol.SymbolString{{30, 40, 200}, {21}}, false},
		// Empty strings on either side: 0×c and r×0 matrices.
		{"empty", alphabet.DNA, 3, 0, 3, dna("", "AC", ""), dna("", "G", ""), false},
	}
}

// TestGoldenAlphaM: the slab responder and encoder reproduce the parent's
// frames byte for byte, the aliasing decoder takes them back to a fixed
// point, and a chunk evaluates the same built or decoded.
func TestGoldenAlphaM(t *testing.T) {
	eng := protocol.NewEngine(2)
	for _, tc := range goldenAlphaCases() {
		text, err := os.ReadFile(filepath.Join("testdata", "alpha_m_"+tc.name+".hex"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := hex.DecodeString(strings.TrimSpace(string(text)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		header := len(appendInts(nil, tc.rows, tc.lo, tc.hi))
		if gotWide := want[header] == 2; gotWide != tc.wide {
			t.Fatalf("%s: recorded width byte %d", tc.name, want[header])
		}

		var built protocol.AlphaChunk
		eng.AlphaResponderChunk(&built, tc.own, tc.disguised, tc.a)
		enc, err := wire.EncodeBody(alphaMBody{Rows: tc.rows, Lo: tc.lo, Hi: tc.hi, M: built})
		if err != nil || !bytes.Equal(enc, want) {
			t.Errorf("%s: encodes to %x (%v), the parent wrote %x", tc.name, enc, err, want)
		}

		evaluate := func(label string, payload []byte) []int64 {
			var body alphaMBody
			if err := wire.DecodeBody(payload, &body); err != nil {
				t.Fatalf("%s, %s: %v", tc.name, label, err)
			}
			if body.Rows != tc.rows || body.Lo != tc.lo || body.Hi != tc.hi {
				t.Errorf("%s, %s: header %d [%d,%d)", tc.name, label, body.Rows, body.Lo, body.Hi)
			}
			if again := reencode(t, &body); !bytes.Equal(again, want) {
				t.Errorf("%s, %s: re-encodes to %x, want %x", tc.name, label, again, want)
			}
			dists, err := eng.AlphaThirdPartyChunk(&body.M, tc.lo, tc.hi, tc.a, rng.NewAESCTR(rng.SeedFromUint64(26)))
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, label, err)
			}
			return dists.Cell
		}
		wantDists, err := eng.AlphaThirdPartyChunk(&built, tc.lo, tc.hi, tc.a, rng.NewAESCTR(rng.SeedFromUint64(26)))
		if err != nil {
			t.Fatal(err)
		}
		if got := evaluate("recorded", want); !slices.Equal(got, wantDists.Cell) {
			t.Errorf("%s: decoded chunk evaluates to %v, built chunk to %v", tc.name, got, wantDists.Cell)
		}
		if tc.wide {
			continue
		}
		// The non-canonical form the parent's decoder took: two bytes a
		// cell for symbols that fit one.
		cells := want[len(want)-built.Cells():]
		loose := append(bytes.Clone(want[:len(want)-len(cells)]), make([]byte, 2*len(cells))...)
		loose[header] = 2
		for i, c := range cells {
			binary.LittleEndian.PutUint16(loose[len(loose)-2*len(cells)+2*i:], uint16(c))
		}
		if got := evaluate("width 2", loose); !slices.Equal(got, wantDists.Cell) {
			t.Errorf("%s: width-2 form evaluates to %v, want %v", tc.name, got, wantDists.Cell)
		}
	}
}
