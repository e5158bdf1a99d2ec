package protocol

import (
	"sync"
	"testing"

	"ppclust/internal/alphabet"
	"ppclust/internal/rng"
)

// rowRanges splits [0, rows) into contiguous ranges of per rows each — the
// shape of a pairwise chunk schedule.
func rowRanges(rows, per int) [][2]int {
	var out [][2]int
	for lo := 0; lo < rows; lo += per {
		hi := lo + per
		if hi > rows {
			hi = rows
		}
		out = append(out, [2]int{lo, hi})
	}
	if len(out) == 0 {
		out = [][2]int{{0, 0}}
	}
	return out
}

// evalRows runs an evaluated chunk's row function over every row, two at
// a time, into a fresh block.
func evalRows(t *testing.T, row RowFunc, err error, rows, cols int) []float64 {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, rows*cols)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := w; r < rows; r += 2 {
				if err := row(r, out[r*cols:(r+1)*cols]); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// TestAlphaThirdPartyRowsMatchesMonolithic: chunked CCM decoding + edit
// distance over row ranges of the intermediary block must reproduce the
// monolithic Figure 10 evaluation, including with variable-length strings
// (the per-chunk mask prefix is a prefix of the monolithic one).
func TestAlphaThirdPartyRowsMatchesMonolithic(t *testing.T) {
	a := alphabet.DNA
	s := rng.NewXoshiro(rng.SeedFromUint64(23))
	mkStrings := func(count int) []SymbolString {
		out := make([]SymbolString, count)
		for i := range out {
			str := make(SymbolString, 2+rng.Symbol(s, 7))
			for j := range str {
				str[j] = alphabet.Symbol(rng.Symbol(s, a.Size()))
			}
			out[i] = str
		}
		return out
	}
	own := mkStrings(11)   // responder strings: block rows
	their := mkStrings(14) // initiator strings: block columns
	seedJT := rng.SeedFromUint64(77)
	e := NewEngine(2)

	disguised := e.AlphaInitiator(their, a, rng.NewAESCTR(seedJT))
	block := e.AlphaResponder(own, disguised, a)
	want, err := oracleAlphaThirdParty(oracleAlphaResponder(own, disguised, a), a, rng.NewAESCTR(seedJT))
	if err != nil {
		t.Fatal(err)
	}
	packed := PackAlphaStrings(disguised, AlphaCellBits(a))
	var chunk AlphaChunk // reused from range to range, as a responder does
	for _, per := range []int{1, 3, len(own)} {
		jt, chunkJT := rng.NewAESCTR(seedJT), rng.NewAESCTR(seedJT)
		for _, ch := range rowRanges(len(own), per) {
			lo, hi := ch[0], ch[1]
			got, err := e.AlphaThirdPartyRows(block[lo:hi], lo, hi, a, jt)
			if err != nil {
				t.Fatal(err)
			}
			e.AlphaResponderChunk(&chunk, own[lo:hi], &packed, a)
			gotChunk, err := e.AlphaThirdPartyChunk(&chunk, lo, hi, a, chunkJT)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < (hi-lo)*len(their); i++ {
				if w := want.Cell[lo*len(their)+i]; got.Cell[i] != w || gotChunk.Cell[i] != w {
					t.Fatalf("per=%d: alpha chunk [%d,%d) differs at %d", per, lo, hi, i)
				}
			}
		}
	}
}
