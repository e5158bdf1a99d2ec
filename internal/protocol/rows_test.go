package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
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

// leChunk packs matrix rows [lo, hi) the way a ppc/numeric-s frame carries
// them.
func leChunk[T int64 | float64](cell []T, lo, hi, cols int) NumericChunk {
	c := NumericChunk{Rows: hi - lo, Cols: cols}
	for _, v := range cell[lo*cols : hi*cols] {
		switch v := any(v).(type) {
		case int64:
			c.Cells = binary.LittleEndian.AppendUint64(c.Cells, uint64(v))
		case float64:
			c.Cells = binary.LittleEndian.AppendUint64(c.Cells, math.Float64bits(v))
		}
	}
	return c
}

func elemChunk(cell [][32]byte, lo, hi, cols int) NumericChunk {
	c := NumericChunk{Rows: hi - lo, Cols: cols}
	for _, v := range cell[lo*cols : hi*cols] {
		c.Cells = append(c.Cells, v[:]...)
	}
	return c
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

// chunkCase is one pair's three S matrices and their monolithic
// evaluations.
type chunkCase struct {
	e     *Engine
	n     int
	sI    *Int64Matrix
	sF    *Float64Matrix
	sM    *ElementMatrix
	wantI *Int64Matrix
	wantF *Float64Matrix
	wantM *Int64Matrix
}

// check evaluates rows [lo, hi) through the chunk forms the session runs —
// the float ones through their matrix container as well — each on its own
// jt stream, and compares them with the monolithic blocks.
func (c chunkCase) check(t *testing.T, name string, lo, hi int, jtI, jtF, jtC, jtM rng.Stream, mode Mode) {
	t.Helper()
	e, n := c.e, c.n
	row, err := e.NumericThirdPartyIntChunk(leChunk(c.sI.Cell, lo, hi, n), lo, hi, jtI, DefaultIntParams, mode, InitiatorCols)
	gI := evalRows(t, row, err, hi-lo, n)
	cF := &Float64Matrix{Rows: hi - lo, Cols: n, Cell: c.sF.Cell[lo*n : hi*n]}
	gF, err := e.NumericThirdPartyFloatRows(cF, lo, hi, jtF, DefaultFloatParams, mode)
	if err != nil {
		t.Fatal(err)
	}
	row, err = e.NumericThirdPartyFloatChunk(leChunk(c.sF.Cell, lo, hi, n), lo, hi, jtC, DefaultFloatParams, mode, InitiatorCols)
	gC := evalRows(t, row, err, hi-lo, n)
	row, err = e.NumericThirdPartyModPChunk(elemChunk(c.sM.Cell, lo, hi, n), lo, hi, jtM, mode, InitiatorCols)
	gM := evalRows(t, row, err, hi-lo, n)
	for i := 0; i < (hi-lo)*n; i++ {
		if gI[i] != float64(c.wantI.Cell[lo*n+i]) {
			t.Fatalf("%s: int chunk [%d,%d) differs at %d", name, lo, hi, i)
		}
		if gF.Cell[i] != c.wantF.Cell[lo*n+i] || gC[i] != c.wantF.Cell[lo*n+i] {
			t.Fatalf("%s: float chunk [%d,%d) differs at %d", name, lo, hi, i)
		}
		if gM[i] != float64(c.wantM.Cell[lo*n+i]) {
			t.Fatalf("%s: modp chunk [%d,%d) differs at %d", name, lo, hi, i)
		}
	}
}

// TestNumericThirdPartyRowsMatchesMonolithic: evaluating a responder's S
// matrix chunk by chunk — every chunking, all three arithmetic variants,
// both masking modes, one shared jt stream per pair in schedule order —
// must reproduce the monolithic third-party evaluation bit for bit. This
// is the engine-level half of the chunked pairwise streaming guarantee;
// the session differential tests pin the wire-level half.
func TestNumericThirdPartyRowsMatchesMonolithic(t *testing.T) {
	const n, m = 13, 9 // initiator and responder counts
	s := rng.NewXoshiro(rng.SeedFromUint64(17))
	xs := make([]int64, n)
	ys := make([]int64, m)
	for i := range xs {
		xs[i] = rng.Int64Range(s, -500, 500)
	}
	for i := range ys {
		ys[i] = rng.Int64Range(s, -500, 500)
	}
	fx := make([]float64, n)
	fy := make([]float64, m)
	for i := range fx {
		fx[i] = rng.Float64(s) * 40
	}
	for i := range fy {
		fy[i] = rng.Float64(s) * 40
	}
	seedJK := rng.SeedFromUint64(31)
	seedJT := rng.SeedFromUint64(32)
	e := NewEngine(2)

	for _, mode := range []Mode{Batch, PerPair} {
		rows := 0
		if mode == PerPair {
			rows = m
		}
		dI, err := e.NumericInitiatorInt(xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), DefaultIntParams, mode, rows)
		if err != nil {
			t.Fatal(err)
		}
		sI, err := e.NumericResponderInt(dI, ys, rng.NewAESCTR(seedJK), DefaultIntParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		wantI, err := e.NumericThirdPartyInt(sI, rng.NewAESCTR(seedJT), DefaultIntParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		dF, err := e.NumericInitiatorFloat(fx, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), DefaultFloatParams, mode, rows)
		if err != nil {
			t.Fatal(err)
		}
		sF, err := e.NumericResponderFloat(dF, fy, rng.NewAESCTR(seedJK), DefaultFloatParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		wantF, err := e.NumericThirdPartyFloat(sF, rng.NewAESCTR(seedJT), DefaultFloatParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		dM, err := e.NumericInitiatorModP(xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), mode, rows)
		if err != nil {
			t.Fatal(err)
		}
		sM, err := e.NumericResponderModP(dM, ys, rng.NewAESCTR(seedJK), mode)
		if err != nil {
			t.Fatal(err)
		}
		wantM, err := e.NumericThirdPartyModP(sM, rng.NewAESCTR(seedJT), mode)
		if err != nil {
			t.Fatal(err)
		}

		for _, per := range []int{1, 4, m} {
			name := fmt.Sprintf("%v/per=%d", mode, per)
			jtI := rng.NewAESCTR(seedJT)
			jtF := rng.NewAESCTR(seedJT)
			jtC := rng.NewAESCTR(seedJT)
			jtM := rng.NewAESCTR(seedJT)
			for _, ch := range rowRanges(m, per) {
				lo, hi := ch[0], ch[1]
				chunkCase{e, n, sI, sF, sM, wantI, wantF, wantM}.check(t, name, lo, hi, jtI, jtF, jtC, jtM, mode)
			}
		}
	}
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

// TestAdvanceThirdPartyPositionsStream: after AdvanceThirdParty* consumes
// the masks of the first lo rows, evaluating only rows [lo, m) must
// reproduce exactly those rows of the monolithic evaluation — the
// property a TP shard whose row range starts mid-block relies on. In
// Batch mode the advance is a no-op and full evaluation still matches.
func TestAdvanceThirdPartyPositionsStream(t *testing.T) {
	const n, m = 11, 10
	s := rng.NewXoshiro(rng.SeedFromUint64(41))
	xs := make([]int64, n)
	ys := make([]int64, m)
	for i := range xs {
		xs[i] = rng.Int64Range(s, -300, 300)
	}
	for i := range ys {
		ys[i] = rng.Int64Range(s, -300, 300)
	}
	fx := make([]float64, n)
	fy := make([]float64, m)
	for i := range fx {
		fx[i] = rng.Float64(s) * 25
	}
	for i := range fy {
		fy[i] = rng.Float64(s) * 25
	}
	seedJK := rng.SeedFromUint64(51)
	seedJT := rng.SeedFromUint64(52)
	e := NewEngine(2)

	for _, mode := range []Mode{Batch, PerPair} {
		rows := 0
		if mode == PerPair {
			rows = m
		}
		dI, err := e.NumericInitiatorInt(xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), DefaultIntParams, mode, rows)
		if err != nil {
			t.Fatal(err)
		}
		sI, err := e.NumericResponderInt(dI, ys, rng.NewAESCTR(seedJK), DefaultIntParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		wantI, err := e.NumericThirdPartyInt(sI, rng.NewAESCTR(seedJT), DefaultIntParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		dF, err := e.NumericInitiatorFloat(fx, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), DefaultFloatParams, mode, rows)
		if err != nil {
			t.Fatal(err)
		}
		sF, err := e.NumericResponderFloat(dF, fy, rng.NewAESCTR(seedJK), DefaultFloatParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		wantF, err := e.NumericThirdPartyFloat(sF, rng.NewAESCTR(seedJT), DefaultFloatParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		dM, err := e.NumericInitiatorModP(xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), mode, rows)
		if err != nil {
			t.Fatal(err)
		}
		sM, err := e.NumericResponderModP(dM, ys, rng.NewAESCTR(seedJK), mode)
		if err != nil {
			t.Fatal(err)
		}
		wantM, err := e.NumericThirdPartyModP(sM, rng.NewAESCTR(seedJT), mode)
		if err != nil {
			t.Fatal(err)
		}

		for _, lo := range []int{0, 1, 4, m - 1} {
			name := fmt.Sprintf("%v/lo=%d", mode, lo)
			jtI := rng.NewAESCTR(seedJT)
			jtF := rng.NewAESCTR(seedJT)
			jtM := rng.NewAESCTR(seedJT)
			e.AdvanceThirdPartyInt(jtI, lo, n, DefaultIntParams, mode, InitiatorCols)
			e.AdvanceThirdPartyFloat(jtF, lo, n, DefaultFloatParams, mode, InitiatorCols)
			jtC := rng.NewAESCTR(seedJT)
			e.AdvanceThirdPartyFloat(jtC, lo, n, DefaultFloatParams, mode, InitiatorCols)
			e.AdvanceThirdPartyModP(jtM, lo, n, mode, InitiatorCols)
			for _, ch := range rowRanges(m-lo, 3) {
				clo, chi := lo+ch[0], lo+ch[1]
				chunkCase{e, n, sI, sF, sM, wantI, wantF, wantM}.check(t, name, clo, chi, jtI, jtF, jtC, jtM, mode)
			}
		}
	}
}

// TestThirdPartyRowsShapeValidation: a chunk whose matrix does not cover
// exactly the scheduled row range is rejected with a descriptive error.
func TestThirdPartyRowsShapeValidation(t *testing.T) {
	e := NewEngine(1)
	jt := rng.NewAESCTR(rng.SeedFromUint64(1))
	chunk := NumericChunk{Rows: 2, Cols: 3, Cells: make([]byte, 2*3*8)}
	if _, err := e.NumericThirdPartyIntChunk(chunk, 0, 3, jt, DefaultIntParams, Batch, InitiatorCols); err == nil {
		t.Fatal("short chunk accepted")
	}
	if _, err := e.NumericThirdPartyIntChunk(chunk, 3, 1, jt, DefaultIntParams, Batch, InitiatorCols); err == nil {
		t.Fatal("inverted range accepted")
	}
	fchunk := NewFloat64Matrix(2, 3)
	if _, err := e.NumericThirdPartyFloatRows(fchunk, 0, 1, jt, DefaultFloatParams, Batch); err == nil {
		t.Fatal("float short matrix accepted")
	}
	if _, err := e.NumericThirdPartyFloatChunk(chunk, 0, 1, jt, DefaultFloatParams, Batch, InitiatorCols); err == nil {
		t.Fatal("float short chunk accepted")
	}
	if _, err := e.NumericThirdPartyModPChunk(chunk, 0, 2, jt, Batch, InitiatorCols); err == nil {
		t.Fatal("modp chunk of 8-byte cells accepted")
	}
	chunk.Cells = chunk.Cells[:2*3*8-1]
	if _, err := e.NumericThirdPartyFloatChunk(chunk, 0, 2, jt, DefaultFloatParams, Batch, InitiatorCols); err == nil {
		t.Fatal("chunk with a torn cell accepted")
	}
	row, err := e.NumericThirdPartyIntChunk(NumericChunk{Rows: 1, Cols: 3, Cells: make([]byte, 3*8)}, 0, 1, jt, DefaultIntParams, Batch, InitiatorCols)
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
	if _, err := e.AlphaThirdPartyRows(make([][]*SymbolMatrix, 2), 0, 1, alphabet.DNA, jt); err == nil {
		t.Fatal("alpha short chunk accepted")
	}
	if _, err := e.AlphaThirdPartyChunk(&AlphaChunk{Counts: []int{0, 0}}, 0, 1, alphabet.DNA, jt); err == nil {
		t.Fatal("alpha short slab chunk accepted")
	}
}
