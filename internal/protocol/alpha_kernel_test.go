package protocol

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ppclust/internal/alphabet"
	"ppclust/internal/rng"
)

func sizedAlphabet(n int) *alphabet.Alphabet {
	runes := make([]rune, n)
	for i := range runes {
		runes[i] = rune(0x10000 + i)
	}
	return alphabet.MustNew(fmt.Sprintf("sized-%d", n), runes)
}

// FuzzAlphaKernel drives the slab responder and the fused third-party
// kernel against the three-pass oracle: alphabet sizes at and around every
// field width's edge (2, 4 and 8 bits, and both ends of Symbol) and around
// each width's high bit, strings from empty to longer than the one-word
// pattern — rows that end inside a byte and rows of more than one word —
// and optionally one cell pushed outside the alphabet but inside its field.
// A maxLen of 162 + L or more makes every string exactly L symbols long.
// Cells, distances and the generator's position must be equal, and the
// kernel must fail exactly when the oracle does, naming the same pair — in
// chunk and per-pair form, at one worker and two.
func FuzzAlphaKernel(f *testing.F) {
	var alphabets []*alphabet.Alphabet
	for _, n := range []int{1, 2, 4, 255, 256, 257, 1 << 16, 127, 128, 129, 3, 5, 15, 16, 17} {
		alphabets = append(alphabets, sizedAlphabet(n))
	}
	f.Add(uint64(1), uint8(2), uint8(3), uint8(4), uint8(16), false, uint32(0))
	f.Add(uint64(2), uint8(5), uint8(2), uint8(2), uint8(80), true, uint32(7))
	f.Add(uint64(3), uint8(6), uint8(1), uint8(3), uint8(5), false, uint32(0))
	f.Add(uint64(4), uint8(3), uint8(3), uint8(1), uint8(70), true, uint32(1<<20))
	f.Add(uint64(5), uint8(0), uint8(2), uint8(2), uint8(0), false, uint32(0))
	f.Add(uint64(6), uint8(7), uint8(2), uint8(3), uint8(162+64), true, uint32(5<<8|3))   // 127 symbols, cell 132
	f.Add(uint64(7), uint8(8), uint8(3), uint8(2), uint8(162+65), false, uint32(0))       // 128 symbols
	f.Add(uint64(8), uint8(9), uint8(2), uint8(2), uint8(162+65), true, uint32(100<<8|9)) // 129 symbols, cell 229
	f.Add(uint64(9), uint8(3), uint8(2), uint8(2), uint8(162+64), true, uint32(0<<8|17))  // 255 symbols, cell 255
	f.Add(uint64(10), uint8(4), uint8(2), uint8(3), uint8(162+65), false, uint32(0))      // 256 symbols
	f.Add(uint64(11), uint8(10), uint8(3), uint8(2), uint8(162+13), true, uint32(4<<8|2)) // 3 symbols, 26 bits a row, cell 3
	f.Add(uint64(12), uint8(2), uint8(2), uint8(3), uint8(162+33), false, uint32(0))      // 4 symbols, 66 bits a row
	f.Add(uint64(13), uint8(11), uint8(2), uint8(2), uint8(162+17), true, uint32(9<<8|5)) // 5 symbols, 68 bits a row
	f.Add(uint64(14), uint8(12), uint8(3), uint8(3), uint8(162+7), true, uint32(0<<8|1))  // 15 symbols, 28 bits a row, cell 15
	f.Add(uint64(15), uint8(13), uint8(2), uint8(2), uint8(162+21), false, uint32(0))     // 16 symbols, 84 bits a row
	f.Add(uint64(16), uint8(14), uint8(2), uint8(3), uint8(162+9), true, uint32(30<<8|4)) // 17 symbols, 72 bits a row
	f.Add(uint64(17), uint8(10), uint8(2), uint8(2), uint8(162+70), true, uint32(0<<8|8)) // 3 symbols, past the one-word pattern
	f.Fuzz(func(t *testing.T, seed uint64, which, nOwn, nTheir, maxLen uint8, corrupt bool, where uint32) {
		a := alphabets[int(which)%len(alphabets)]
		gen := rng.NewXoshiro(rng.SeedFromUint64(seed))
		strs := func(n int) []SymbolString {
			if maxLen < 162 {
				return randomStrings(gen, a, n, int(maxLen%81))
			}
			out := make([]SymbolString, n)
			for i := range out {
				out[i] = make(SymbolString, maxLen-162)
				for j := range out[i] {
					out[i][j] = alphabet.Symbol(rng.Symbol(gen, a.Size()))
				}
			}
			return out
		}
		own, their := strs(int(nOwn%5)), strs(int(nTheir%5))
		seedJT := rng.SeedFromUint64(seed ^ 0x5eed)
		disguised := oracleAlphaInitiator(their, a, rng.NewAESCTR(seedJT))

		want := oracleAlphaResponder(own, disguised, a)
		packed := PackAlphaStrings(disguised, AlphaCellBits(a))
		if err := packed.InAlphabet(a); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			e := NewEngine(workers)
			var chunk AlphaChunk
			e.AlphaResponderChunk(&chunk, own, &packed, a)
			if err := chunk.Validate(); err != nil {
				t.Fatal(err)
			}
			if bits := AlphaCellBits(a); chunk.Bits != bits || (bits == 16) != (chunk.Packed == nil) && cellCount(&chunk) > 0 || 1<<bits < a.Size() || bits > 2 && 1<<(bits/2) >= a.Size() {
				t.Fatalf("alphabet of %d symbols: %d-bit cells, packed slab %v", a.Size(), chunk.Bits, chunk.Packed != nil)
			}
			perPair := e.AlphaResponder(own, disguised, a)
			for name, got := range map[string][][]*SymbolMatrix{"chunk": chunkMatrices(&chunk), "per-pair": perPair} {
				for i := range want {
					for j := range want[i] {
						g, w := got[i][j], want[i][j]
						if g.Rows != w.Rows || g.Cols != w.Cols || !slices.Equal(g.Cell, w.Cell) {
							t.Fatalf("workers=%d: %s intermediary (%d,%d) differs", workers, name, i, j)
						}
					}
				}
			}

			// One cell outside the alphabet, where the cell's field can hold
			// such a value at all; the oracle reads the same cells.
			if cells := cellCount(&chunk); corrupt && cells > 0 && a.Size() < 1<<chunk.Bits {
				setCell(&chunk, int(where)%cells, a.Size()+int(where>>8)%(1<<chunk.Bits-a.Size()))
			}
			block := chunkMatrices(&chunk)
			oracleJT := rng.NewAESCTR(seedJT)
			wantOut, wantErr := oracleAlphaThirdParty(block, a, oracleJT)
			evals := map[string]func(jt rng.Stream) (*Int64Matrix, error){
				"chunk":    func(jt rng.Stream) (*Int64Matrix, error) { return e.AlphaThirdPartyChunk(&chunk, 3, 3+len(own), a, jt) },
				"per-pair": func(jt rng.Stream) (*Int64Matrix, error) { return e.AlphaThirdPartyRows(block, 3, 3+len(own), a, jt) },
			}
			for name, eval := range evals {
				jt := rng.NewAESCTR(seedJT)
				got, err := eval(jt)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("workers=%d: %s error %v, oracle error %v", workers, name, err, wantErr)
				}
				if err != nil {
					// Both name the pair first: "protocol: intermediary (i,j): …".
					pair := func(err error) string { return strings.SplitN(err.Error(), "): ", 2)[0] }
					if pair(err) != pair(wantErr) {
						t.Fatalf("workers=%d: %s fails with %q, oracle with %q", workers, name, err, wantErr)
					}
					continue
				}
				if got.Rows != wantOut.Rows || got.Cols != wantOut.Cols || !slices.Equal(got.Cell, wantOut.Cell) {
					t.Fatalf("workers=%d: %s distances differ from the oracle's", workers, name)
				}
				if jt.Next() != rng.NewAESCTR(seedJT).Next() {
					t.Fatalf("workers=%d: %s left the generator unrewound", workers, name)
				}
			}
		}
	})
}

// TestAlphaChunkValidation: a chunk a decoder would not have produced is an
// error at the third party, not an index out of range.
func TestAlphaChunkValidation(t *testing.T) {
	e, a := NewEngine(2), sizedAlphabet(3)
	for name, c := range map[string]*AlphaChunk{
		"ragged":         {Counts: []int{1, 2}, Shapes: []AlphaShape{{1, 1}, {1, 1}, {1, 1}}, Bits: 2, Packed: []byte{0, 1, 2}},
		"rows overclaim": {Counts: []int{2, 2}, Shapes: []AlphaShape{{1, 1}, {1, 1}, {1, 1}}, Bits: 2, Packed: []byte{0, 1, 2}},
		"stray matrix":   {Counts: []int{1, 1}, Shapes: []AlphaShape{{1, 1}, {1, 1}, {1, 1}}, Bits: 2, Packed: []byte{0, 1, 2}},
		"short slab":     {Counts: []int{1, 1}, Shapes: []AlphaShape{{2, 2}, {1, 1}}, Bits: 2, Packed: []byte{0, 1}},
		"long slab":      {Counts: []int{1, 1}, Shapes: []AlphaShape{{1, 1}, {1, 1}}, Bits: 2, Packed: []byte{0, 1, 2}},
		"long row":       {Counts: []int{1, 1}, Shapes: []AlphaShape{{1, 4}, {1, 1}}, Bits: 2, Packed: []byte{0, 1, 2}},
		"negative shape": {Counts: []int{1, 1}, Shapes: []AlphaShape{{-1, 1}, {1, 1}}, Bits: 2, Packed: []byte{0}},
		"overflow":       {Counts: []int{1, 1}, Shapes: []AlphaShape{{1 << 62, 4}, {1, 1}}, Bits: 2, Packed: []byte{0}},
		"wide overflow":  {Counts: []int{1, 1}, Shapes: []AlphaShape{{1, 1 << 61}, {1, 1}}, Bits: 16, Wide: []alphabet.Symbol{0}},
		"both slabs":     {Counts: []int{1, 1}, Shapes: []AlphaShape{{1, 1}, {1, 1}}, Bits: 2, Packed: []byte{0}, Wide: []alphabet.Symbol{1}},
		"no width":       {Counts: []int{1, 1}, Shapes: []AlphaShape{{1, 1}, {1, 1}}, Packed: []byte{0, 1}},
		"width 3":        {Counts: []int{1, 1}, Shapes: []AlphaShape{{1, 1}, {1, 1}}, Bits: 3, Packed: []byte{0, 1}},
		"byte width":     {Counts: []int{1, 1}, Shapes: []AlphaShape{{1, 1}, {1, 1}}, Bits: 8, Packed: []byte{0, 1}},
		"wide width":     {Counts: []int{1, 1}, Shapes: []AlphaShape{{1, 1}, {1, 1}}, Bits: 16, Wide: []alphabet.Symbol{0, 1}},
		"cell outside":   {Counts: []int{1, 1}, Shapes: []AlphaShape{{1, 1}, {1, 2}}, Bits: 2, Packed: []byte{0, 1 | 3<<2}},
		"padding":        {Counts: []int{1, 1}, Shapes: []AlphaShape{{1, 1}, {1, 2}}, Bits: 2, Packed: []byte{0, 1 | 1<<6}},
	} {
		_, err := e.AlphaThirdPartyChunk(c, 0, 2, a, rng.Scripted(0))
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if name == "cell outside" && !strings.Contains(err.Error(), "intermediary (1,0): symbol 3 at position 1 outside") ||
			name == "padding" && !strings.Contains(err.Error(), "intermediary (1,0): padding 0x4 after position 1 outside") {
			t.Errorf("%s: %v", name, err)
		}
	}
	// A 0×c matrix wider than every matrix with a row draws no mask for its
	// columns and still has distance c.
	c := &AlphaChunk{Counts: []int{2}, Shapes: []AlphaShape{{0, 9}, {1, 2}}, Bits: 2, Packed: []byte{1 | 1<<2}}
	got, err := e.AlphaThirdPartyChunk(c, 0, 1, a, rng.Scripted(1, 2))
	if err != nil || got.At(0, 0) != 9 || got.At(0, 1) != 1 {
		t.Fatalf("rowless matrix: %v, %v", got, err)
	}
}

var alphaBenchShapes = []struct {
	name    string
	a       *alphabet.Alphabet
	n, size int
}{
	{"dna-80x80x16", alphabet.DNA, 80, 16},
	{"digits-80x80x16", alphabet.Digits, 80, 16},
	{"protein-80x80x32", alphabet.Protein, 80, 32},
	{"lower-80x80x64", alphabet.Lower, 80, 64}, // the longest pattern one word holds
	{"lower-40x40x96", alphabet.Lower, 40, 96}, // past it: the DP fallback
}

func alphaBenchStrings(a *alphabet.Alphabet, n, size int, seed uint64) []SymbolString {
	gen := rng.NewXoshiro(rng.SeedFromUint64(seed))
	out := make([]SymbolString, n)
	for i := range out {
		out[i] = make(SymbolString, size)
		for j := range out[i] {
			out[i][j] = alphabet.Symbol(rng.Symbol(gen, a.Size()))
		}
	}
	return out
}

// BenchmarkAlphaResponder is Figure 9 over one pair of mixed-cpu-sized
// partitions: the chunk form the session runs (storage reused from call to
// call, as from frame to frame) and the per-pair container.
func BenchmarkAlphaResponder(b *testing.B) {
	for _, sh := range alphaBenchShapes {
		own, their := alphaBenchStrings(sh.a, sh.n, sh.size, 1), alphaBenchStrings(sh.a, sh.n, sh.size, 2)
		e := NewEngine(2)
		disguised := e.AlphaInitiator(their, sh.a, rng.NewAESCTR(rng.SeedFromUint64(3)))
		packed := PackAlphaStrings(disguised, AlphaCellBits(sh.a))
		b.Run(sh.name+"/chunk", func(b *testing.B) {
			b.ReportAllocs()
			var chunk AlphaChunk
			for i := 0; i < b.N; i++ {
				e.AlphaResponderChunk(&chunk, own, &packed, sh.a)
			}
		})
		b.Run(sh.name+"/per-pair", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.AlphaResponder(own, disguised, sh.a)
			}
		})
	}
}

// BenchmarkAlphaThirdParty is Figure 10 over the same blocks.
func BenchmarkAlphaThirdParty(b *testing.B) {
	for _, sh := range alphaBenchShapes {
		own, their := alphaBenchStrings(sh.a, sh.n, sh.size, 1), alphaBenchStrings(sh.a, sh.n, sh.size, 2)
		e := NewEngine(2)
		seed := rng.SeedFromUint64(3)
		disguised := e.AlphaInitiator(their, sh.a, rng.NewAESCTR(seed))
		packed := PackAlphaStrings(disguised, AlphaCellBits(sh.a))
		var chunk AlphaChunk
		e.AlphaResponderChunk(&chunk, own, &packed, sh.a)
		block := e.AlphaResponder(own, disguised, sh.a)
		jt := rng.NewAESCTR(seed)
		b.Run(sh.name+"/chunk", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.AlphaThirdPartyChunk(&chunk, 0, sh.n, sh.a, jt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sh.name+"/per-pair", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.AlphaThirdPartyRows(block, 0, sh.n, sh.a, jt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
