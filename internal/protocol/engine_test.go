package protocol

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"ppclust/internal/alphabet"
	"ppclust/internal/rng"
)

// TestEngineNumericBitIdentical checks that every engine worker count
// reproduces the paper's per-cell formula bit for bit — the disguise, S
// and the distances — for all three arithmetic variants and both masking
// modes, the float64 matrix forms too, and that the integer round trip
// recovers |x−y|.
func TestEngineNumericBitIdentical(t *testing.T) {
	const n = 37
	s := rng.NewXoshiro(rng.SeedFromUint64(5))
	xs, ys := randomInts(s, n, -1000, 1000), randomInts(s, n, -1000, 1000)
	fx, fy := make([]float64, n), make([]float64, n)
	for i := range fx {
		fx[i] = rng.Float64(s) * 50
		fy[i] = rng.Float64(s) * 50
	}
	jk, jt := streams(rng.KindAESCTR, 21, 22)
	for _, v := range []Variant{Float64Variant, Int64Variant, ModPVariant} {
		x, y := xs, ys
		if v == Float64Variant {
			x, y = fx, fy
		}
		for _, mode := range []Mode{Batch, PerPair} {
			num := mustNumeric(t, v, mode)
			want := oracleNumeric(v, mode, InitiatorCols, x, y, rng.NewAESCTR(rng.SeedFromUint64(21)), rng.NewAESCTR(rng.SeedFromUint64(22)))
			if v == Int64Variant {
				checkPlaintext(t, want.dist, x, y, 0)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				got := roundTrip(t, NewEngine(workers), num, x, y, jk, jt)
				if !bytes.Equal(got.disguise, want.disguise) || !bytes.Equal(got.s, want.s) || !slices.Equal(got.dist, want.dist) {
					t.Fatalf("%v %v workers=%d: output differs from the per-cell formula's", v, mode, workers)
				}
				if v == Float64Variant {
					jk.Reseed()
					jt.Reseed()
					checkFloatForms(t, NewEngine(workers), mode, x, y, jk, jt, want)
				}
			}
		}
	}
}

// TestEngineAlphaBitIdentical checks the alphanumeric engine against the
// pre-slab three-pass forms for all worker counts and variable-length
// strings.
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
	wantD := oracleAlphaInitiator(js, alphabet.Protein, rng.NewAESCTR(seedJT))
	wantM := oracleAlphaResponder(ks, wantD, alphabet.Protein)
	wantOut, err := oracleAlphaThirdParty(wantM, alphabet.Protein, rng.NewAESCTR(seedJT))
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
	}
}

// TestEngineBufferReuse runs different-shaped blocks through one engine
// to check buffer growth/reuse doesn't leak state between calls.
func TestEngineBufferReuse(t *testing.T) {
	e, num := NewEngine(2), mustNumeric(t, Int64Variant, Batch)
	jk, jt := streams(rng.KindAESCTR, 1, 2)
	for _, n := range []int{64, 8, 100} {
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = float64(i), float64(2*i)
		}
		checkPlaintext(t, roundTrip(t, e, num, xs, ys, jk, jt).dist, xs, ys, 0)
	}
}

// TestEnginePool: Get after Put hands back the same engine (buffer reuse),
// engines are independent under concurrent borrowers, and concurrent pool
// use reproduces the per-cell formula bit for bit — the property the third
// party's concurrent lane readers rely on.
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
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = float64(3*i)/8, float64(i*i%50)/8
	}
	num := mustNumeric(t, Float64Variant, Batch)
	jk, jt := streams(rng.KindAESCTR, 11, 12)
	ref := oracleNumeric(Float64Variant, Batch, InitiatorCols, xs, ys, jk, jt).dist

	// Parallel subtests are the concurrent borrowers; the group returns
	// when all of them have.
	t.Run("borrowers", func(t *testing.T) {
		for b := range 8 {
			t.Run(fmt.Sprint(b), func(t *testing.T) {
				t.Parallel()
				for range 4 {
					e := p.Get()
					jk, jt := streams(rng.KindAESCTR, 11, 12)
					out := roundTrip(t, e, num, xs, ys, jk, jt).dist
					p.Put(e)
					if !slices.Equal(out, ref) {
						t.Fatal("pooled engine diverged from the per-cell formula")
					}
				}
			})
		}
	})
}
