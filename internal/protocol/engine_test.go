package protocol

import (
	"fmt"
	"slices"
	"testing"

	"ppclust/internal/alphabet"
	"ppclust/internal/rng"
)

// TestEngineNumericBitIdentical checks that every engine worker count
// reproduces the serial protocol output bit for bit, for all three
// arithmetic variants and both masking modes, and that the three-step
// round trip still recovers |x−y|.
func TestEngineNumericBitIdentical(t *testing.T) {
	const n = 37
	s := rng.NewXoshiro(rng.SeedFromUint64(5))
	xs := make([]int64, n)
	ys := make([]int64, n)
	for i := range xs {
		xs[i] = rng.Int64Range(s, -1000, 1000)
		ys[i] = rng.Int64Range(s, -1000, 1000)
	}
	fx := make([]float64, n)
	fy := make([]float64, n)
	for i := range fx {
		fx[i] = rng.Float64(s) * 50
		fy[i] = rng.Float64(s) * 50
	}
	seedJK := rng.SeedFromUint64(21)
	seedJT := rng.SeedFromUint64(22)

	for _, mode := range []Mode{Batch, PerPair} {
		rows := 0
		if mode == PerPair {
			rows = n
		}
		// Serial references via the package-level wrappers.
		dInt, err := NumericInitiatorInt(xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), DefaultIntParams, mode, rows)
		if err != nil {
			t.Fatal(err)
		}
		sInt, err := NumericResponderInt(dInt, ys, rng.NewAESCTR(seedJK), DefaultIntParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		oInt, err := NumericThirdPartyInt(sInt, rng.NewAESCTR(seedJT), DefaultIntParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		dF, err := NumericInitiatorFloat(fx, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), DefaultFloatParams, mode, rows)
		if err != nil {
			t.Fatal(err)
		}
		sF, err := NumericResponderFloat(dF, fy, rng.NewAESCTR(seedJK), DefaultFloatParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		oF, err := NumericThirdPartyFloat(sF, rng.NewAESCTR(seedJT), DefaultFloatParams, mode)
		if err != nil {
			t.Fatal(err)
		}
		dM, err := NumericInitiatorModP(xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), mode, rows)
		if err != nil {
			t.Fatal(err)
		}
		sM, err := NumericResponderModP(dM, ys, rng.NewAESCTR(seedJK), mode)
		if err != nil {
			t.Fatal(err)
		}
		oM, err := NumericThirdPartyModP(sM, rng.NewAESCTR(seedJT), mode)
		if err != nil {
			t.Fatal(err)
		}
		// Sanity: the integer path recovers |x−y| exactly.
		for m := 0; m < oInt.Rows; m++ {
			for c := 0; c < oInt.Cols; c++ {
				want := xs[c] - ys[m]
				if want < 0 {
					want = -want
				}
				if oInt.At(m, c) != want {
					t.Fatalf("mode %v: recovered %d, want %d", mode, oInt.At(m, c), want)
				}
			}
		}

		for _, workers := range []int{1, 2, 3, 8} {
			e := NewEngine(workers)
			name := fmt.Sprintf("%v/workers=%d", mode, workers)
			gd, err := e.NumericInitiatorInt(xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), DefaultIntParams, mode, rows)
			if err != nil {
				t.Fatal(err)
			}
			gs, err := e.NumericResponderInt(gd, ys, rng.NewAESCTR(seedJK), DefaultIntParams, mode)
			if err != nil {
				t.Fatal(err)
			}
			go2, err := e.NumericThirdPartyInt(gs, rng.NewAESCTR(seedJT), DefaultIntParams, mode)
			if err != nil {
				t.Fatal(err)
			}
			for i := range go2.Cell {
				if gd.Cell[i%len(gd.Cell)] != dInt.Cell[i%len(dInt.Cell)] || gs.Cell[i] != sInt.Cell[i] || go2.Cell[i] != oInt.Cell[i] {
					t.Fatalf("%s: int engine output differs at %d", name, i)
				}
			}
			gdF, err := e.NumericInitiatorFloat(fx, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), DefaultFloatParams, mode, rows)
			if err != nil {
				t.Fatal(err)
			}
			gsF, err := e.NumericResponderFloat(gdF, fy, rng.NewAESCTR(seedJK), DefaultFloatParams, mode)
			if err != nil {
				t.Fatal(err)
			}
			goF, err := e.NumericThirdPartyFloat(gsF, rng.NewAESCTR(seedJT), DefaultFloatParams, mode)
			if err != nil {
				t.Fatal(err)
			}
			for i := range goF.Cell {
				if gdF.Cell[i%len(gdF.Cell)] != dF.Cell[i%len(dF.Cell)] || gsF.Cell[i] != sF.Cell[i] || goF.Cell[i] != oF.Cell[i] {
					t.Fatalf("%s: float engine output differs at %d", name, i)
				}
			}
			gdM, err := e.NumericInitiatorModP(xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), mode, rows)
			if err != nil {
				t.Fatal(err)
			}
			gsM, err := e.NumericResponderModP(gdM, ys, rng.NewAESCTR(seedJK), mode)
			if err != nil {
				t.Fatal(err)
			}
			goM, err := e.NumericThirdPartyModP(gsM, rng.NewAESCTR(seedJT), mode)
			if err != nil {
				t.Fatal(err)
			}
			for i := range goM.Cell {
				if gdM.Cell[i%len(gdM.Cell)] != dM.Cell[i%len(dM.Cell)] || gsM.Cell[i] != sM.Cell[i] || goM.Cell[i] != oM.Cell[i] {
					t.Fatalf("%s: modp engine output differs at %d", name, i)
				}
			}
		}
	}
}

// TestEngineAlphaBitIdentical checks the alphanumeric engine against the
// serial protocol for all worker counts, including the CCM inspection
// path and variable-length strings.
func TestEngineAlphaBitIdentical(t *testing.T) {
	s := rng.NewXoshiro(rng.SeedFromUint64(9))
	mk := func(count int) []SymbolString {
		out := make([]SymbolString, count)
		for i := range out {
			str := make(SymbolString, rng.Symbol(s, 12)) // lengths 0..11
			for j := range str {
				str[j] = alphabet.Symbol(rng.Symbol(s, alphabet.Protein.Size()))
			}
			out[i] = str
		}
		return out
	}
	js, ks := mk(9), mk(7)
	seedJT := rng.SeedFromUint64(123)

	// The references are the pre-slab three-pass forms (alpha_oracle_test.go).
	wantD := AlphaInitiator(js, alphabet.Protein, rng.NewAESCTR(seedJT))
	wantM := oracleAlphaResponder(ks, wantD, alphabet.Protein)
	wantOut, err := oracleAlphaThirdParty(wantM, alphabet.Protein, rng.NewAESCTR(seedJT))
	if err != nil {
		t.Fatal(err)
	}
	wantCCMs, err := oracleAlphaCCMs(wantM, alphabet.Protein, rng.NewAESCTR(seedJT))
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 5} {
		e := NewEngine(workers)
		gotD := e.AlphaInitiator(js, alphabet.Protein, rng.NewAESCTR(seedJT))
		for i := range gotD {
			for p := range gotD[i] {
				if gotD[i][p] != wantD[i][p] {
					t.Fatalf("workers=%d: disguised string %d differs", workers, i)
				}
			}
		}
		gotM := e.AlphaResponder(ks, gotD, alphabet.Protein)
		var chunk AlphaChunk
		packed := PackAlphaStrings(gotD, AlphaCellBits(alphabet.Protein))
		e.AlphaResponderChunk(&chunk, ks, &packed, alphabet.Protein)
		if chunk.Bits != 8 || chunk.Wide != nil || chunk.Validate() != nil {
			t.Fatalf("workers=%d: a 20-symbol alphabet's chunk is not one byte a cell, or inconsistent", workers)
		}
		for name, got := range map[string][][]*SymbolMatrix{"per-pair": gotM, "chunk": chunkMatrices(&chunk)} {
			for i := range wantM {
				for j := range wantM[i] {
					g, w := got[i][j], wantM[i][j]
					if g.Rows != w.Rows || g.Cols != w.Cols || !slices.Equal(g.Cell, w.Cell) {
						t.Fatalf("workers=%d: %s intermediary (%d,%d) differs", workers, name, i, j)
					}
				}
			}
		}
		gotChunkOut, err := e.AlphaThirdPartyChunk(&chunk, 0, len(ks), alphabet.Protein, rng.NewAESCTR(seedJT))
		if err != nil || !slices.Equal(gotChunkOut.Cell, wantOut.Cell) {
			t.Fatalf("workers=%d: chunk distance block differs (%v)", workers, err)
		}
		gotOut, err := e.AlphaThirdParty(gotM, alphabet.Protein, rng.NewAESCTR(seedJT))
		if err != nil {
			t.Fatal(err)
		}
		for i := range gotOut.Cell {
			if gotOut.Cell[i] != wantOut.Cell[i] {
				t.Fatalf("workers=%d: distance block differs at %d", workers, i)
			}
		}
		gotCCMs, err := e.AlphaThirdPartyCCMs(gotM, alphabet.Protein, rng.NewAESCTR(seedJT))
		if err != nil {
			t.Fatal(err)
		}
		for i := range gotCCMs {
			for j := range gotCCMs[i] {
				g, w := gotCCMs[i][j], wantCCMs[i][j]
				if g.Rows != w.Rows || g.Cols != w.Cols {
					t.Fatalf("workers=%d: CCM (%d,%d) shape differs", workers, i, j)
				}
				for c := range g.Cell {
					if g.Cell[c] != w.Cell[c] {
						t.Fatalf("workers=%d: CCM (%d,%d) differs at %d", workers, i, j, c)
					}
				}
			}
		}
	}
}

// TestEngineBufferReuse runs two different-shaped calls through one
// engine to check buffer growth/reuse doesn't leak state between calls.
func TestEngineBufferReuse(t *testing.T) {
	e := NewEngine(2)
	seedJK, seedJT := rng.SeedFromUint64(1), rng.SeedFromUint64(2)
	for _, n := range []int{64, 8, 100} {
		xs := make([]int64, n)
		ys := make([]int64, n)
		for i := range xs {
			xs[i] = int64(i)
			ys[i] = int64(2 * i)
		}
		d, err := e.NumericInitiatorInt(xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), DefaultIntParams, Batch, 0)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := e.NumericResponderInt(d, ys, rng.NewAESCTR(seedJK), DefaultIntParams, Batch)
		if err != nil {
			t.Fatal(err)
		}
		out, err := e.NumericThirdPartyInt(sm, rng.NewAESCTR(seedJT), DefaultIntParams, Batch)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < n; m++ {
			for c := 0; c < n; c++ {
				want := int64(c - 2*m)
				if want < 0 {
					want = -want
				}
				if out.At(m, c) != want {
					t.Fatalf("n=%d: recovered %d at (%d,%d), want %d", n, out.At(m, c), m, c, want)
				}
			}
		}
	}
}

// TestEnginePoolReuseAndConcurrency: Get after Put hands back the same
// engine (buffer reuse), engines are independent under concurrent
// borrowers, and concurrent pool use produces bit-identical protocol
// outputs — the property the third party's concurrent lane readers rely
// on.
func TestEnginePool(t *testing.T) {
	p := NewEnginePool(1)
	e1 := p.Get()
	p.Put(e1)
	if e2 := p.Get(); e2 != e1 {
		t.Fatal("pool did not reuse the returned engine")
	} else {
		p.Put(e2)
	}

	const n = 33
	xs := make([]int64, n)
	ys := make([]int64, n)
	for i := range xs {
		xs[i] = int64(3 * i)
		ys[i] = int64(i * i % 50)
	}
	seedJK := rng.SeedFromUint64(11)
	seedJT := rng.SeedFromUint64(12)
	round := func(e *Engine) (*Int64Matrix, error) {
		d, err := e.NumericInitiatorInt(xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), DefaultIntParams, Batch, 0)
		if err != nil {
			return nil, err
		}
		sm, err := e.NumericResponderInt(d, ys, rng.NewAESCTR(seedJK), DefaultIntParams, Batch)
		if err != nil {
			return nil, err
		}
		return e.NumericThirdPartyInt(sm, rng.NewAESCTR(seedJT), DefaultIntParams, Batch)
	}
	ref, err := round(NewEngine(1))
	if err != nil {
		t.Fatal(err)
	}

	const borrowers = 8
	errs := make(chan error, borrowers)
	for b := 0; b < borrowers; b++ {
		go func() {
			for r := 0; r < 4; r++ {
				e := p.Get()
				out, err := round(e)
				p.Put(e)
				if err != nil {
					errs <- err
					return
				}
				for m := 0; m < n; m++ {
					for c := 0; c < n; c++ {
						if out.At(m, c) != ref.At(m, c) {
							errs <- fmt.Errorf("pooled engine diverged at (%d,%d)", m, c)
							return
						}
					}
				}
			}
			errs <- nil
		}()
	}
	for b := 0; b < borrowers; b++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
