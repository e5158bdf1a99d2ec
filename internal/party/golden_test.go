package party

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ppclust/internal/alphabet"
	"ppclust/internal/hcluster"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// goldenAlphaCase is one ppc/alpha-m chunk whose payload is recorded in
// testdata/alpha_m_<name>.hex, and the ppc/alpha-disguised body its
// disguised strings travel in, in testdata/alpha_disguised_<name>.hex. The
// recordings were made once, when the slab went to the alphabet's cell
// width — 2 bits for DNA, 4 for digits, 16 above 256 symbols — and the test
// checks every recorded cell against the one-symbol-a-cell per-pair
// responder, so the bytes pin the layout and the layout is checked against
// the arithmetic.
type goldenAlphaCase struct {
	name           string
	a              *alphabet.Alphabet
	rows, lo, hi   int
	own, disguised []protocol.SymbolString
}

func goldenAlphaCases() []goldenAlphaCase {
	big := sizedAlphabet(300)
	enc := func(a *alphabet.Alphabet, ss ...string) []protocol.SymbolString {
		out := make([]protocol.SymbolString, len(ss))
		for i, s := range ss {
			out[i] = a.MustEncode(s)
		}
		return out
	}
	dna := func(ss ...string) []protocol.SymbolString { return enc(alphabet.DNA, ss...) }
	return []goldenAlphaCase{
		// GATTACA is 14 bits: two bytes, the second with two padding bits.
		{"dna", alphabet.DNA, 5, 1, 3, dna("ACGT", "GG"), dna("TTAC", "C", "GATTACA")},
		// Four bits a cell; rows of 5 and 1 cells end inside a byte.
		{"digits", alphabet.Digits, 4, 2, 4, enc(alphabet.Digits, "0123456789", "7"), enc(alphabet.Digits, "31415", "", "2718281828", "9")},
		// 0 − 299 and 299 − 0 modulo 300: differences past a byte.
		{"wide", big, 2, 0, 2, []protocol.SymbolString{{299, 0}, {5}}, []protocol.SymbolString{{0, 299, 150}, {298}}},
		// The same alphabet, every difference below 256: still two bytes a
		// cell, the width being the alphabet's and not the data's.
		{"wide_small", big, 7, 6, 7, []protocol.SymbolString{{10, 20}}, []protocol.SymbolString{{30, 40, 200}, {21}}},
		// Empty strings on either side: 0×c and r×0 matrices.
		{"empty", alphabet.DNA, 3, 0, 3, dna("", "AC", ""), dna("", "G", "")},
	}
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("testdata", name+".hex"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return want
}

// TestGoldenAlphaM: the packing initiator and the slab responder and their
// encoders reproduce the recorded frames byte for byte, the decoders take
// them back to a fixed point, every decoded cell is the per-pair
// responder's, and a chunk evaluates the same built, decoded or per pair.
func TestGoldenAlphaM(t *testing.T) {
	eng := protocol.NewEngine(2)
	for _, tc := range goldenAlphaCases() {
		bits := protocol.AlphaCellBits(tc.a)
		wantDisg := readGolden(t, "alpha_disguised_"+tc.name)
		disg := protocol.PackAlphaStrings(tc.disguised, bits)
		if enc, err := wire.EncodeBody(alphaDisguisedBody{S: disg}); err != nil || !bytes.Equal(enc, wantDisg) {
			t.Errorf("%s: disguised strings encode to %x (%v), recorded %x", tc.name, enc, err, wantDisg)
		}
		var gotDisg alphaDisguisedBody
		if err := wire.DecodeBody(wantDisg, &gotDisg); err != nil || gotDisg.S.InAlphabet(tc.a) != nil {
			t.Fatalf("%s: recorded disguised strings: %v", tc.name, err)
		}
		if again := reencode(t, &gotDisg, nil); !bytes.Equal(again, wantDisg) {
			t.Errorf("%s: disguised strings re-encode to %x", tc.name, again)
		}

		want := readGolden(t, "alpha_m_"+tc.name)
		header := len(appendInts(nil, tc.rows, tc.lo, tc.hi))
		if int(want[header]) != bits {
			t.Fatalf("%s: recorded width byte %d, the alphabet takes %d bits", tc.name, want[header], bits)
		}
		var built protocol.AlphaChunk
		eng.AlphaResponderChunk(&built, tc.own, &gotDisg.S, tc.a)
		enc, err := wire.EncodeBody(alphaMBody{Rows: tc.rows, Lo: tc.lo, Hi: tc.hi, M: built})
		if err != nil || !bytes.Equal(enc, want) {
			t.Errorf("%s: encodes to %x (%v), recorded %x", tc.name, enc, err, want)
		}
		var body alphaMBody
		if err := wire.DecodeBody(want, &body); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if body.Rows != tc.rows || body.Lo != tc.lo || body.Hi != tc.hi {
			t.Errorf("%s: header %d [%d,%d)", tc.name, body.Rows, body.Lo, body.Hi)
		}
		if again := reencode(t, &body, nil); !bytes.Equal(again, want) {
			t.Errorf("%s: re-encodes to %x, want %x", tc.name, again, want)
		}
		cells, err := chunkCells(&body.M)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		perPair := eng.AlphaResponder(tc.own, tc.disguised, tc.a)
		for i, row := range perPair {
			for j, m := range row {
				got := cells[i*len(row)+j]
				for k, c := range m.Cell {
					if got[k] != int(c) {
						t.Fatalf("%s: recorded cell %d of pair (%d,%d) is %d, the per-pair responder's %d", tc.name, k, i, j, got[k], c)
					}
				}
			}
		}

		dists := func(label string, eval func(jt rng.Stream) (*protocol.Int64Matrix, error)) []int64 {
			d, err := eval(rng.NewAESCTR(rng.SeedFromUint64(26)))
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, label, err)
			}
			return d.Cell
		}
		wantDists := dists("per pair", func(jt rng.Stream) (*protocol.Int64Matrix, error) {
			return eng.AlphaThirdPartyRows(perPair, tc.lo, tc.hi, tc.a, jt)
		})
		for label, c := range map[string]*protocol.AlphaChunk{"built": &built, "recorded": &body.M} {
			got := dists(label, func(jt rng.Stream) (*protocol.Int64Matrix, error) {
				return eng.AlphaThirdPartyChunk(c, tc.lo, tc.hi, tc.a, jt)
			})
			if !slices.Equal(got, wantDists) {
				t.Errorf("%s: %s chunk evaluates to %v, per-pair matrices to %v", tc.name, label, got, wantDists)
			}
		}
	}
}

// controlSample is one control body whose encoding is recorded in
// testdata/<kind>.hex, the kind named without its "ppc/" prefix.
type controlSample struct {
	kind wire.Kind
	body wire.BodyAppender
}

// controlSamples is one body of each control kind, its fields chosen to
// reach every item of its layout: multi-byte and negative integers, empty
// strings and lists, raw tags and seeds, and float64 bit patterns a
// decoder could canonicalize (−0, the smallest subnormal, ±Inf).
func controlSamples() []controlSample {
	run := func(from byte, n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = from + byte(i)
		}
		return b
	}
	block := func(from byte) [32]byte { return [32]byte(run(from, 32)) }
	return []controlSample{
		{kindHello, helloBody{Public: run(0, 32), Fingerprint: "age/numeric/1;dna/alphanumeric/dna/1;"}},
		{kindCount, countBody{Count: 300}},
		{kindCensus, censusBody{Holders: []string{"A", "B", "C"}, Counts: []int{80, 0, 1 << 20}}},
		{kindGroupKey, groupKeyBody{Box: run(0x40, 60)}},
		{kindCatTags, catTagsBody{Tags: [][32]byte{block(1), block(2), block(1)}}},
		{kindPathTags, pathTagsBody{Paths: [][][32]byte{{block(3)}, {block(3), block(4), block(5)}}}},
		{kindRequest, requestBody{Weights: []float64{1, 0.5, math.Copysign(0, -1), math.SmallestNonzeroFloat64}, Method: 2, Linkage: 3, K: 4}},
		{kindResult, resultBody{
			ClusterSites:   [][]string{{"A", "B", "A"}, {"C"}},
			ClusterIndices: [][]int{{0, 5, 1}, {2}},
			Quality:        []hcluster.ClusterQuality{{Size: 3, AvgSquaredDistance: 0.25, Diameter: math.Inf(1)}, {Size: 1}},
			Silhouette:     -0.125,
			Method:         0, Linkage: 1, K: 2,
		}},
		{kindShardOffer, shardOfferBody{
			Shard: 1, Lo: 4, Hi: 9,
			Holders: []string{"A", "B"}, Counts: []int{5, 6},
			Fingerprint: "x/numeric/1;",
			Mode:        protocol.PerPair, Variant: ModPVariant, RNG: rng.KindAESCTR,
			LocalChunkBytes: -1,
			Seeds:           [][]rng.Seed{{block(7)}, nil},
			RowSeeds:        [][]rng.Seed{{block(8)}, {block(9)}},
		}},
		{kindShardBeat, shardBeatBody{}},
		{kindShardDone, shardDoneBody{}},
		{kindAbort, abortBody{Reason: "party: B local chunk 1 covers rows [0,4), schedule says [4,6)"}},
	}
}

// TestGoldenControlBodies: every control kind's body encodes to its
// recorded bytes and decodes from them to the body it was recorded from
// (TestChunkBodyRoundTrip takes it back to the same bytes); what a gob-era
// peer sent for the same body is refused as malformed, never accepted.
func TestGoldenControlBodies(t *testing.T) {
	for _, tc := range controlSamples() {
		name := strings.TrimPrefix(string(tc.kind), "ppc/")
		want := readGolden(t, name)
		if enc, err := wire.EncodeBody(tc.body); err != nil || !bytes.Equal(enc, want) {
			t.Errorf("%s: encodes to %x (%v), recorded %x", name, enc, err, want)
		}
		d := newBody(tc.kind)
		if err := wire.DecodeBody(want, d); err != nil {
			t.Errorf("%s: recorded bytes: %v", name, err)
			continue
		}
		if got := reflect.ValueOf(d).Elem().Interface(); !reflect.DeepEqual(got, tc.body) {
			t.Errorf("%s: decodes to %+v, recorded from %+v", name, got, tc.body)
		}
		if err := wire.DecodeBody(gobEncode(t, tc.body), newBody(tc.kind)); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: gob-era body: want ErrMalformed, got %v", name, err)
		}
	}
}
