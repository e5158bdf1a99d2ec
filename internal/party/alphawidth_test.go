package party

import (
	"bytes"
	"errors"
	"maps"
	"strings"
	"testing"

	"ppclust/internal/alphabet"
	"ppclust/internal/costmodel"
	"ppclust/internal/dataset"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// dnaParts builds deterministic partitions A, B, … of the given sizes over
// one DNA attribute whose strings are all strLen symbols long.
func dnaParts(strLen int, sizes ...int) []dataset.Partition {
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "seq", Type: dataset.Alphanumeric, Alphabet: alphabet.DNA}}}
	gen := rng.NewXoshiro(rng.SeedFromUint64(13))
	var parts []dataset.Partition
	for i, n := range sizes {
		tab := dataset.MustNewTable(schema)
		for range n {
			s := make([]byte, strLen)
			for j := range s {
				s[j] = "ACGT"[rng.Symbol(gen, 4)]
			}
			tab.MustAppendRow(string(s))
		}
		parts = append(parts, dataset.Partition{Site: string(rune('A' + i)), Table: tab})
	}
	return parts
}

// paddedChunk is a real DNA chunk of 13-symbol strings on both sides — 26
// bits a row, so six padding bits in its last byte — and its encoding.
func paddedChunk(t *testing.T) (c protocol.AlphaChunk, enc []byte) {
	t.Helper()
	strs := make([]protocol.SymbolString, 3)
	for i := range strs {
		strs[i] = alphabet.DNA.MustEncode("ACGTTGCAACGTA"[i:] + "ACGTTGCAACGTA"[:i])
	}
	disg := protocol.PackAlphaStrings(strs, protocol.AlphaCellBits(alphabet.DNA))
	protocol.NewEngine(1).AlphaResponderChunk(&c, strs[:2], &disg, alphabet.DNA)
	enc, err := wire.EncodeBody(alphaMBody{Rows: 2, Lo: 0, Hi: 2, M: c})
	if err != nil {
		t.Fatal(err)
	}
	return c, enc
}

// TestAlphaPaddingRefused: a chunk with one padding bit set still decodes
// — its layout holds — and the third party refuses it with the
// alphabet.RangeError a cell outside the alphabet gets, naming the pair.
func TestAlphaPaddingRefused(t *testing.T) {
	c, enc := paddedChunk(t)
	rb := protocol.AlphaRowBytes(13, 2)
	for _, bit := range []int{2, 7} { // the first and the last padding bit
		for row := range 3 {
			bad := bytes.Clone(enc)
			bad[len(bad)-len(c.Packed)+(13+row)*rb+rb-1] |= 1 << bit // pair (0,1), the second matrix
			var body alphaMBody
			if err := wire.DecodeBody(bad, &body); err != nil {
				t.Fatalf("bit %d of row %d: %v", bit, row, err)
			}
			_, err := protocol.NewEngine(2).AlphaThirdPartyChunk(&body.M, 0, 2, alphabet.DNA, rng.NewAESCTR(rng.SeedFromUint64(1)))
			var re *alphabet.RangeError
			if !errors.As(err, &re) || !re.Padding || re.Value != 1<<(bit-2) || re.Position != 13*row+12 {
				t.Fatalf("bit %d of row %d: %v", bit, row, err)
			}
			if want := "intermediary (0,1): padding"; !strings.Contains(err.Error(), want) {
				t.Fatalf("bit %d of row %d: %q does not name the pair", bit, row, err)
			}
		}
	}
	// The disguised strings' padding is refused the same way.
	strs := protocol.PackAlphaStrings([]protocol.SymbolString{alphabet.DNA.MustEncode("ACGTTGCAACGTA")}, 2)
	strs.Slab[len(strs.Slab)-1] |= 0x80
	var re *alphabet.RangeError
	if err := strs.InAlphabet(alphabet.DNA); !errors.As(err, &re) || !re.Padding {
		t.Fatalf("disguised padding: %v", err)
	}
}

// TestAlphaWidthRefused: the same cells re-laid out at every other width
// are a valid layout, and refused by the third party for a DNA attribute
// with ErrCellWidth; disguised strings at a width not the alphabet's are
// refused by the responder the same way.
func TestAlphaWidthRefused(t *testing.T) {
	c, _ := paddedChunk(t)
	cells, err := chunkCells(&c)
	if err != nil {
		t.Fatal(err)
	}
	for _, bits := range []int{4, 8, 16} {
		var rows [][]*protocol.SymbolMatrix
		for i, n := range c.Counts {
			var row []*protocol.SymbolMatrix
			for j := range n {
				sh := c.Shapes[i*n+j]
				m := protocol.NewSymbolMatrix(sh.Rows, sh.Cols)
				for k, v := range cells[i*n+j] {
					m.Cell[k] = alphabet.Symbol(v)
				}
				row = append(row, m)
			}
			rows = append(rows, row)
		}
		enc, err := wire.EncodeBody(alphaMBody{Rows: 2, Lo: 0, Hi: 2, M: alphaChunkOf(bits, rows...)})
		if err != nil {
			t.Fatalf("%d bits: %v", bits, err)
		}
		var body alphaMBody
		if err := wire.DecodeBody(enc, &body); err != nil {
			t.Fatalf("%d bits: %v", bits, err)
		}
		if _, err := protocol.NewEngine(2).AlphaThirdPartyChunk(&body.M, 0, 2, alphabet.DNA, rng.NewAESCTR(rng.SeedFromUint64(1))); !errors.Is(err, protocol.ErrCellWidth) {
			t.Errorf("%d bits for DNA: %v", bits, err)
		}
		// The schema's alphabet at that width evaluates the very cells.
		a := map[int]*alphabet.Alphabet{4: alphabet.Digits, 8: alphabet.AlphaNum, 16: sizedAlphabet(300)}[bits]
		if _, err := protocol.NewEngine(2).AlphaThirdPartyChunk(&body.M, 0, 2, a, rng.NewAESCTR(rng.SeedFromUint64(1))); err != nil {
			t.Errorf("%d bits for %v: %v", bits, a, err)
		}
		strs := protocol.PackAlphaStrings([]protocol.SymbolString{{0, 1, 2, 3}}, bits)
		if err := strs.InAlphabet(alphabet.DNA); !errors.Is(err, protocol.ErrCellWidth) {
			t.Errorf("%d-bit disguised strings for DNA: %v", bits, err)
		}
	}
}

// TestAlphaSlabLengthRefused: a slab one byte short or one byte long does
// not decode, for the intermediary chunk and the disguised strings alike;
// the failure is wire.ErrMalformed, never a panic.
func TestAlphaSlabLengthRefused(t *testing.T) {
	_, chunk := paddedChunk(t)
	strs, err := wire.EncodeBody(alphaDisguisedBody{S: protocol.PackAlphaStrings([]protocol.SymbolString{{0, 1, 2}, {3, 3, 3, 3, 3}}, 2)})
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		enc []byte
		d   func() wire.BodyDecoder
	}{
		"chunk":   {chunk, func() wire.BodyDecoder { return &alphaMBody{} }},
		"strings": {strs, func() wire.BodyDecoder { return &alphaDisguisedBody{} }},
	} {
		if err := wire.DecodeBody(tc.enc, tc.d()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for label, bad := range map[string][]byte{"short": tc.enc[:len(tc.enc)-1], "long": append(bytes.Clone(tc.enc), 0)} {
			if err := wire.DecodeBody(bad, tc.d()); !errors.Is(err, wire.ErrMalformed) {
				t.Errorf("%s one byte %s: %v", name, label, err)
			}
		}
	}
}

// TestAlphaSessionPaddingZero: every ppc/alpha-m and ppc/alpha-disguised
// frame of a DNA session with 13-symbol strings — rows of 26 bits, six
// padding bits each — has every padding bit zero, at one-row chunks and
// the default budget, one TP shard and two.
func TestAlphaSessionPaddingZero(t *testing.T) {
	parts := dnaParts(13, 5, 6, 7)
	for _, cfg := range []Config{{LocalChunkBytes: 1}, {}, {TPShards: 2}} {
		chunks := 0
		for _, f := range tapSession(t, cfg, parts).sent("", "", kindAlphaM, kindAlphaDisg) {
			m := f.Msg
			if m.Kind == kindAlphaDisg {
				var b alphaDisguisedBody
				if err := wire.DecodeBody(m.Payload, &b); err != nil || b.S.InAlphabet(alphabet.DNA) != nil {
					t.Fatalf("%s's disguised strings: %v, %v", m.From, err, b.S.InAlphabet(alphabet.DNA))
				}
				continue
			}
			var b alphaMBody
			if err := wire.DecodeBody(m.Payload, &b); err != nil {
				t.Fatal(err)
			}
			if _, err := chunkCells(&b.M); err != nil {
				t.Fatalf("%s's chunk [%d,%d): %v", m.From, f.Lo, f.Hi, err)
			}
			chunks++
		}
		if chunks < 3 {
			t.Fatalf("%+v: %d alpha-m frames", cfg, chunks)
		}
	}
}

// TestAlphaBytesMatchCostModel: a real session's alphanumeric slabs — the
// payload bytes past the headers — are exactly what the cost model
// counts: per pair block, the intermediary matrices'; per disguise, the
// strings'.
func TestAlphaBytesMatchCostModel(t *testing.T) {
	const strLen = 13
	sizes := map[string]int{"A": 5, "B": 6, "C": 7}
	parts := dnaParts(strLen, sizes["A"], sizes["B"], sizes["C"])
	perPair := map[string]int64{}
	for _, f := range tapSession(t, Config{LocalChunkBytes: 1}, parts).sent("", "", kindAlphaM, kindAlphaDisg) {
		m := f.Msg
		if m.Kind == kindAlphaDisg {
			var b alphaDisguisedBody
			if err := wire.DecodeBody(m.Payload, &b); err != nil {
				t.Fatal(err)
			}
			if got, want := int64(len(b.S.Slab)), costmodel.AlphaInitiatorBytes(alphabet.DNA, sizes[m.From], strLen); got != want {
				t.Errorf("%s's disguised strings: %d slab bytes, the model counts %d", m.From, got, want)
			}
			continue
		}
		var b alphaMBody
		if err := wire.DecodeBody(m.Payload, &b); err != nil {
			t.Fatal(err)
		}
		perPair[m.PairJ+m.PairK] += int64(len(b.M.Packed))
	}
	if len(perPair) != 3 {
		t.Fatalf("alpha-m frames for %d pairs", len(perPair))
	}
	for pair, got := range perPair {
		j, k := pair[:1], pair[1:]
		if want := costmodel.AlphaResponderBytes(alphabet.DNA, sizes[j], strLen, sizes[k], strLen); got != want {
			t.Errorf("pair %s: %d slab bytes, the model counts %d", pair, got, want)
		}
	}
}

// TestNumericCellsMatchCostModel: in a three-holder session with uneven
// counts, the numeric cells each holder sends on each link, per numeric
// attribute and in both masking modes, are exactly what the cost model
// counts for blocks cut where the session cuts them: its local triangle
// and its rows of S toward the third party, its disguises toward each
// peer.
func TestNumericCellsMatchCostModel(t *testing.T) {
	counts := []int{5, 9, 13}
	parts := pipelinePartsOf(counts...)
	holders := []string{"A", "B", "C"}
	for _, mode := range []protocol.Mode{protocol.Batch, protocol.PerPair} {
		cfg := Config{Variant: Int64Variant, Mode: mode, LocalChunkBytes: 64}
		sent := map[int]map[[2]string]int64{}
		for _, f := range tapSession(t, cfg, parts).sent("", "", kindLocal, kindNumDisg, kindNumS) {
			m := f.Msg
			if parts[0].Table.Schema().Attrs[m.Attr].Type != dataset.Numeric {
				continue
			}
			cells, err := f.cells()
			if err != nil {
				t.Fatal(err)
			}
			if sent[m.Attr] == nil {
				sent[m.Attr] = map[[2]string]int64{}
			}
			sent[m.Attr][[2]string{m.From, m.To}] += int64(cells)
		}
		toTP, toPeer := costmodel.NumericLinkElems(counts, mode == protocol.PerPair)
		want := map[[2]string]int64{}
		for i, from := range holders {
			want[[2]string{from, TPName}] = toTP[i]
			for j, to := range holders {
				if toPeer[i][j] > 0 {
					want[[2]string{from, to}] = toPeer[i][j]
				}
			}
		}
		if len(sent) != 2 {
			t.Fatalf("%v: numeric frames for %d attributes, want 2", mode, len(sent))
		}
		for attr, links := range sent {
			if !maps.Equal(links, want) {
				t.Errorf("%v, attribute %d: links carry %v cells, the model counts %v", mode, attr, links, want)
			}
		}
	}
}
