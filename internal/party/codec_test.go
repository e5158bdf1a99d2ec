package party

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"ppclust/internal/alphabet"
	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// chunkDecoders lists a fresh decoder for each fixed layout, in a fixed
// order the fuzz target indexes.
func chunkDecoders() []wire.BodyDecoder {
	return []wire.BodyDecoder{&localBody{}, &numSBody{}, &numDisguisedBody{}, &alphaMBody{}, &shardSliceBody{}, &shardFrameBody{}}
}

// reencode encodes what a decoder holds, through the value receiver the
// session sends with. The two bodies that keep their cells in the payload
// are never sent again by the session, so their send form is rebuilt here:
// the local cells as values, the numeric header around the cell block.
func reencode(t testing.TB, d wire.BodyDecoder) []byte {
	t.Helper()
	body := reflect.ValueOf(d).Elem().Interface()
	switch b := d.(type) {
	case *localBody:
		body = localBody{N: b.N, Lo: b.Lo, Hi: b.Hi, Cells: float64s(b.wire)}
	case *numSBody:
		if b.variant != numNone {
			out := appendInts(append(appendInts(nil, b.Rows, b.Lo, b.Hi), b.variant), b.wire.Rows, b.wire.Cols)
			return append(out, b.wire.Cells...)
		}
	}
	out, err := wire.EncodeBody(body)
	if err != nil {
		t.Fatalf("re-encoding %T: %v", d, err)
	}
	return out
}

func symbolMatrix(rows, cols int, cells ...alphabet.Symbol) *protocol.SymbolMatrix {
	m := protocol.NewSymbolMatrix(rows, cols)
	copy(m.Cell, cells)
	return m
}

// alphaChunkOf packs per-pair matrices into the slab form the body
// carries: narrow, or wide when asked — which symbols that fit a byte do
// not prevent.
func alphaChunkOf(wide bool, rows ...[]*protocol.SymbolMatrix) protocol.AlphaChunk {
	var c protocol.AlphaChunk
	for _, row := range rows {
		c.Counts = append(c.Counts, len(row))
		for _, m := range row {
			c.Shapes = append(c.Shapes, protocol.AlphaShape{Rows: m.Rows, Cols: m.Cols})
			for _, s := range m.Cell {
				if wide {
					c.Wide = append(c.Wide, s)
				} else {
					c.Narrow = append(c.Narrow, byte(s))
				}
			}
		}
	}
	return c
}

// TestChunkBodyRoundTrip drives every fixed layout through
// wire.EncodeBody / wire.DecodeBody — the calls the session makes — over
// the shapes the schedules produce and the edge cases they can: the
// decoded body must re-encode to the same bytes (the layouts write every
// field bit for bit, so equal bytes are equal bodies), and one byte more
// or less must be rejected as malformed.
func TestChunkBodyRoundTrip(t *testing.T) {
	specials := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.MaxFloat64}
	var elems [][32]byte
	for i := 0; i < 6; i++ {
		var e [32]byte
		for j := range e {
			e[j] = byte(i*32 + j)
		}
		elems = append(elems, e)
	}
	for _, tc := range []struct {
		name    string
		body    wire.BodyAppender
		decoder wire.BodyDecoder
		size    int // exact encoded size, 0 to skip
	}{
		{"local", localBody{N: 5, Lo: 2, Hi: 4, Cells: []float64{1, 2, 3, 4, 5}}, &localBody{}, 3 + 5*8},
		{"local zero rows", localBody{N: 0, Lo: 0, Hi: 0}, &localBody{}, 3},
		{"local special floats", localBody{N: 9, Lo: 1, Hi: 2, Cells: specials}, &localBody{}, 0},
		{"local negative header", localBody{N: -1, Lo: -7, Hi: 1 << 40}, &localBody{}, 0},
		{"numS no variant", numSBody{Rows: 4, Lo: 1, Hi: 3}, &numSBody{}, 4},
		{"numS float", numSBody{Rows: 4, Lo: 1, Hi: 3, Float: &protocol.Float64Matrix{Rows: 2, Cols: 4, Cell: specials}}, &numSBody{}, 6 + 8*8},
		{"numS int", numSBody{Rows: 4, Lo: 0, Hi: 2, Int: &protocol.Int64Matrix{Rows: 2, Cols: 2,
			Cell: []int64{math.MinInt64, -1, 0, math.MaxInt64}}}, &numSBody{}, 6 + 4*8},
		{"numS modp", numSBody{Rows: 3, Lo: 0, Hi: 3, ModP: &protocol.ElementMatrix{Rows: 3, Cols: 2, Cell: elems}}, &numSBody{}, 6 + 6*32},
		{"numS zero rows", numSBody{Rows: 0, Lo: 0, Hi: 0, Float: &protocol.Float64Matrix{Rows: 0, Cols: 7}}, &numSBody{}, 6},
		{"disguised float", numDisguisedBody{Rows: 1, Lo: 0, Hi: 1, Float: &protocol.Float64Matrix{Rows: 1, Cols: 3,
			Cell: []float64{1.5, -2.5, 1e300}}}, &numDisguisedBody{}, 0},
		{"disguised modp", numDisguisedBody{Rows: 2, Lo: 1, Hi: 2, ModP: &protocol.ElementMatrix{Rows: 1, Cols: 2, Cell: elems[:2]}}, &numDisguisedBody{}, 0},
		{"alpha one-byte symbols", alphaMBody{Rows: 2, Lo: 0, Hi: 2, M: alphaChunkOf(false,
			[]*protocol.SymbolMatrix{symbolMatrix(2, 3, 0, 1, 2, 3, 254, 255), symbolMatrix(0, 3)},
			[]*protocol.SymbolMatrix{symbolMatrix(1, 1, 7), symbolMatrix(2, 0)},
		)}, &alphaMBody{}, 3 + 1 + 2 + 2 + 8 + 7},
		{"alpha one-byte symbols in a wide slab", alphaMBody{Rows: 2, Lo: 0, Hi: 2, M: alphaChunkOf(true,
			[]*protocol.SymbolMatrix{symbolMatrix(2, 3, 0, 1, 2, 3, 254, 255), symbolMatrix(0, 3)},
			[]*protocol.SymbolMatrix{symbolMatrix(1, 1, 7), symbolMatrix(2, 0)},
		)}, &alphaMBody{}, 3 + 1 + 2 + 2 + 8 + 7},
		{"alpha two-byte symbols", alphaMBody{Rows: 9, Lo: 4, Hi: 5, M: alphaChunkOf(true,
			[]*protocol.SymbolMatrix{symbolMatrix(1, 2, 255, 256), symbolMatrix(2, 2, 0, 1000, 65535, 3)},
		)}, &alphaMBody{}, 3 + 1 + 2 + 1 + 4 + 2*6},
		{"alpha zero rows", alphaMBody{Rows: 0, Lo: 0, Hi: 0}, &alphaMBody{}, 6},
		{"alpha ragged", alphaMBody{Rows: 3, Lo: 0, Hi: 3, M: alphaChunkOf(false,
			[]*protocol.SymbolMatrix{symbolMatrix(1, 1, 1)}, nil, []*protocol.SymbolMatrix{symbolMatrix(1, 1, 2), symbolMatrix(1, 1, 3)},
		)}, &alphaMBody{}, 0},
		{"slice", shardSliceBody{Attr: 2, Max: math.Inf(1), Cells: specials}, &shardSliceBody{}, 1 + 8 + 8*8},
		{"slice empty", shardSliceBody{Attr: 0, Max: 0}, &shardSliceBody{}, 9},
		{"relayed frame", shardFrameBody{Frame: []byte("any bytes at all")}, &shardFrameBody{}, 16},
	} {
		enc, err := wire.EncodeBody(tc.body)
		if err != nil {
			t.Errorf("%s: encode: %v", tc.name, err)
			continue
		}
		if tc.size != 0 && len(enc) != tc.size {
			t.Errorf("%s: encodes to %d bytes, layout says %d", tc.name, len(enc), tc.size)
		}
		if err := wire.DecodeBody(enc, tc.decoder); err != nil {
			t.Errorf("%s: decode: %v", tc.name, err)
			continue
		}
		if again := reencode(t, tc.decoder); !bytes.Equal(again, enc) {
			t.Errorf("%s: decoded body re-encodes to %x, want %x", tc.name, again, enc)
		}
		if _, relayed := tc.body.(shardFrameBody); relayed {
			continue // every byte string is a relayed frame
		}
		for name, bad := range map[string][]byte{"trailing byte": append(enc[:len(enc):len(enc)], 0), "short by one": enc[:len(enc)-1]} {
			if err := wire.DecodeBody(bad, tc.decoder); !errors.Is(err, wire.ErrMalformed) {
				t.Errorf("%s, %s: want ErrMalformed, got %v", tc.name, name, err)
			}
		}
	}

	// Bit patterns, not just values: the re-encode comparison above would
	// pass a decoder that canonicalized NaNs both ways.
	enc, _ := wire.EncodeBody(localBody{Cells: specials})
	var got localBody
	if err := wire.DecodeBody(enc, &got); err != nil {
		t.Fatal(err)
	}
	for i, v := range specials {
		if bits := binary.LittleEndian.Uint64(got.wire[8*i:]); bits != math.Float64bits(v) {
			t.Errorf("cell %d: bits %#x, want %#x", i, bits, math.Float64bits(v))
		}
	}
	// The alphanumeric decoder allocates per chunk, not per string pair.
	row := make([]*protocol.SymbolMatrix, 100)
	for i := range row {
		row[i] = symbolMatrix(2, 2, 1, 2, 3, 0)
	}
	enc, _ = wire.EncodeBody(alphaMBody{Rows: 2, Lo: 0, Hi: 2, M: alphaChunkOf(false, row, row)})
	if allocs := testing.AllocsPerRun(10, func() {
		var am alphaMBody
		if err := wire.DecodeBody(enc, &am); err != nil || am.M.Narrow[199*4+2] != 3 {
			t.Errorf("alphanumeric chunk: %v", err)
		}
	}); allocs > 3 {
		t.Errorf("decoding a chunk of 200 symbol matrices took %v allocations", allocs)
	}
	// What a sender must not put on the wire is refused where it is built.
	for name, body := range map[string]wire.BodyAppender{
		"stray matrix":   alphaMBody{M: protocol.AlphaChunk{Shapes: []protocol.AlphaShape{{Rows: 0, Cols: 0}}}},
		"short slab":     alphaMBody{M: protocol.AlphaChunk{Counts: []int{1}, Shapes: []protocol.AlphaShape{{Rows: 2, Cols: 2}}, Narrow: make([]byte, 3)}},
		"inconsistent S": numSBody{Float: &protocol.Float64Matrix{Rows: 2, Cols: 2, Cell: make([]float64, 3)}},
	} {
		if _, err := wire.EncodeBody(body); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestChunkDecodersBoundClaims: a few bytes that claim a huge shape are
// refused before anything is allocated for them.
func TestChunkDecodersBoundClaims(t *testing.T) {
	huge := func(dst []byte) []byte { return appendInts(dst, math.MaxInt64/2) }
	header := appendInts(appendInts(appendInts(nil, 1), 0), 1)
	for name, tc := range map[string]struct {
		payload []byte
		decoder wire.BodyDecoder
	}{
		"S rows":       {huge(appendInts(append(header[:3:3], numFloat), 1)), &numSBody{}},
		"S overflow":   {huge(huge(append(header[:3:3], numModP))), &numSBody{}},
		"alpha rows":   {appendInts(huge(append(header[:3:3], 1)), 0), &alphaMBody{}},
		"alpha mats":   {huge(appendInts(append(header[:3:3], 1), 1)), &alphaMBody{}},
		"alpha shape":  {huge(huge(appendInts(appendInts(appendInts(append(header[:3:3], 2), 1), 1), 1))), &alphaMBody{}},
		"alpha cells":  {appendInts(appendInts(appendInts(appendInts(appendInts(append(header[:3:3], 1), 1), 1), 1), 1<<20), 1<<20), &alphaMBody{}},
		"alpha width":  {appendInts(appendInts(append(header[:3:3], 3), 0), 0), &alphaMBody{}},
		"S bad tag":    {append(header[:3:3], 9, 0, 0), &numSBody{}},
		"slice no max": {[]byte{0, 1, 2, 3}, &shardSliceBody{}},
	} {
		grew := allocatedBytes(func() {
			if err := wire.DecodeBody(tc.payload, tc.decoder); !errors.Is(err, wire.ErrMalformed) {
				t.Errorf("%s: want ErrMalformed, got %v", name, err)
			}
		})
		// The error values are about all a refusal may allocate.
		if grew > 4<<10 {
			t.Errorf("%s: allocated %d bytes while refusing %d", name, grew, len(tc.payload))
		}
	}
}

// allocatedBytes reports the heap bytes allocated while fn ran (by any
// goroutine — callers leave slack for the runtime's own).
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// sessionFrames runs a small plaintext session and returns every frame it
// put on a wire, the seed material of the fuzz corpora.
func sessionFrames(t testing.TB, cfg Config, parts []dataset.Partition) [][]byte {
	t.Helper()
	var mu sync.Mutex
	var frames [][]byte
	tap := func(_, _ string, c wire.Conduit) wire.Conduit {
		return wire.Tap(c, func(dir string, frame []byte) {
			if dir == "send" {
				mu.Lock()
				frames = append(frames, bytes.Clone(frame))
				mu.Unlock()
			}
		})
	}
	cfg.PlaintextChannels = true
	if _, err := RunInMemoryWrapped(cfg, parts, pipelineReqs(), deterministicRandom(61), tap); err != nil {
		t.Fatalf("seed session: %v", err)
	}
	return frames
}

// laneDigest runs the session and digests every frame of the given kinds,
// lane by lane in the order it was sent: "lanes/frames/digest", where the
// digest covers each lane's name and the SHA-256 of its length-prefixed
// frames — what the transcript differentials below compare with the
// digests a parent commit's session produced.
func laneDigest(t *testing.T, cfg Config, parts []dataset.Partition, kinds ...wire.Kind) string {
	t.Helper()
	lanes := map[string]hash.Hash{}
	frames := 0
	for _, frame := range sessionFrames(t, cfg, parts) {
		m, err := wire.ParseFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(kinds, m.Kind) {
			continue
		}
		lane := m.From + ">" + m.To
		if lanes[lane] == nil {
			lanes[lane] = sha256.New()
		}
		binary.Write(lanes[lane], binary.LittleEndian, uint64(len(frame)))
		lanes[lane].Write(frame)
		frames++
	}
	names := make([]string, 0, len(lanes))
	for lane := range lanes {
		names = append(names, lane)
	}
	sort.Strings(names)
	all := sha256.New()
	for _, lane := range names {
		fmt.Fprintf(all, "%s %x\n", lane, lanes[lane].Sum(nil))
	}
	return fmt.Sprintf("%d/%d/%x", len(names), frames, all.Sum(nil)[:8])
}

// TestAlphaFramesMatchParent is the transcript differential of the
// alphanumeric engine: every ppc/alpha-m frame of a mixed-schema session,
// lane by lane in the order it was sent, must hash to what commit d84a373
// — the last one to build a SymbolMatrix per string pair — put on the same
// lane, at every chunk budget, shard count and worker count (the recorded
// digests do not depend on the last).
func TestAlphaFramesMatchParent(t *testing.T) {
	parts := pipelineParts(t, 40)
	for _, tc := range []struct {
		chunk, shards int
		hash          string
	}{
		{1, 1, "2/125/b8995a1d4c009a6c"},
		{64, 1, "2/125/b8995a1d4c009a6c"},
		{0, 1, "2/6/dd33634bcc8f6733"},
		{oneFrameBudget, 1, "2/3/20962a784e1d016d"},
		{1, 2, "3/125/1f072683517bed5a"},
		{64, 2, "3/125/1f072683517bed5a"},
		{0, 2, "3/8/a7484b74663bdd39"},
		{oneFrameBudget, 2, "3/5/b3d1412079729d48"},
	} {
		for _, workers := range []int{1, 2} {
			cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant,
				LocalChunkBytes: tc.chunk, TPShards: tc.shards, Parallelism: workers}
			if got := laneDigest(t, cfg, parts, kindAlphaM); got != tc.hash {
				t.Errorf("chunk %d, shards %d, workers %d: lanes/frames/digest %s, the parent sent %s",
					tc.chunk, tc.shards, workers, got, tc.hash)
			}
		}
	}
}

// TestNumericFramesMatchParent is the same differential for the numeric
// frames — every ppc/local, ppc/numeric-disguised and ppc/numeric-s frame —
// at every variant and mode, chunk budget, shard count and worker count.
// The digests were first recorded at 813549b, the last commit whose holders
// built whole local triangles and whole S matrices before the first chunk
// left, and re-recorded once when each pair block was split between its two
// holders: the initiator then produces the rows from the split on, the
// responder sends its disguise of them back, and both holders stream S
// frames.
func TestNumericFramesMatchParent(t *testing.T) {
	parts := pipelineParts(t, 24)
	for _, tc := range []struct {
		variant Variant
		mode    protocol.Mode
		hashes  [8]string // chunk budgets 1, 64, default, monolithic × shards 1, 2
	}{
		{Float64Variant, protocol.Batch, [8]string{
			"9/450/9389d2acd6cdfd5e", "12/450/d34b2b79e8b43f31",
			"9/368/2ec1f7fa97d7982e", "12/368/2f5a8aa5d6c68f8f",
			"9/33/52af87e425be8f8a", "12/40/d1348ea6b00b3c43",
			"9/33/52af87e425be8f8a", "12/40/d1348ea6b00b3c43",
		}},
		{Float64Variant, protocol.PerPair, [8]string{
			"9/524/db2b9ffa0c1e1660", "12/524/ae3d6d63f00c6ccd",
			"9/506/f32d63fb76efde06", "12/506/418f0b364d527544",
			"9/33/42b841ab0b049b27", "12/40/8a119ae90da8dc39",
			"9/33/42b841ab0b049b27", "12/40/8a119ae90da8dc39",
		}},
		{Int64Variant, protocol.Batch, [8]string{
			"9/450/16337a8e5f6879d7", "12/450/340407400d4b279d",
			"9/368/a49edadb07f5d8bb", "12/368/92c13c43b38419b8",
			"9/33/b55b3cf14647db3f", "12/40/18098400e80c0a93",
			"9/33/b55b3cf14647db3f", "12/40/18098400e80c0a93",
		}},
		{Int64Variant, protocol.PerPair, [8]string{
			"9/524/409f655989f73e97", "12/524/c717a9b4f994f04d",
			"9/506/9d8c6b4985ec474d", "12/506/bf23eb80e9c309ac",
			"9/33/f578c39524e27ce9", "12/40/3320e7560fe3e0af",
			"9/33/f578c39524e27ce9", "12/40/3320e7560fe3e0af",
		}},
		{ModPVariant, protocol.Batch, [8]string{
			"9/450/973318b3810f2e26", "12/450/abfcd63fbe5a37a5",
			"9/396/6304cbe888b67930", "12/396/a764885cc6ea4f23",
			"9/33/e8416d4308d360b9", "12/40/a76095182e03c51e",
			"9/33/e8416d4308d360b9", "12/40/a76095182e03c51e",
		}},
		{ModPVariant, protocol.PerPair, [8]string{
			"9/524/5b991ba73ad639ca", "12/524/6411b99023b30fcc",
			"9/506/15d9e11beb3ae0e5", "12/506/0ce210b83905c148",
			"9/33/8bd63505901cd538", "12/40/9213b39ee8fb157e",
			"9/33/8bd63505901cd538", "12/40/9213b39ee8fb157e",
		}},
	} {
		for i, hash := range tc.hashes {
			chunk, shards := [...]int{1, 64, 0, oneFrameBudget}[i/2], 1+i%2
			for _, workers := range []int{1, 2} {
				cfg := Config{Schema: pipelineSchema(), Variant: tc.variant, Mode: tc.mode,
					LocalChunkBytes: chunk, TPShards: shards, Parallelism: workers}
				if got := laneDigest(t, cfg, parts, kindLocal, kindNumDisg, kindNumS); got != hash {
					t.Errorf("%v %v, chunk %d, shards %d, workers %d: lanes/frames/digest %s, recorded %s",
						tc.variant, tc.mode, chunk, shards, workers, got, hash)
				}
			}
		}
	}
}

// FuzzChunkBodyDecoders feeds arbitrary payloads to the six fixed-layout
// decoders: never a panic, only ErrMalformed failures, memory bounded by
// the input (no claimed length is believed before the bytes are seen), and
// whatever decodes re-encodes to a fixed point; the chunks that keep their
// cells in the payload — local, numeric S and alphanumeric — are also
// evaluated and installed, and nothing may have written the payload by the
// end. Seeded with the payloads of real session
// frames in every numeric variant and mode — both holders' S chunks of a
// split pair block, and the disguise each sends the other: the initiator's
// column row, the responder's rows of one cell (batch) or of every column
// (per-pair).
func FuzzChunkBodyDecoders(f *testing.F) {
	which := map[wire.Kind]uint8{kindLocal: 0, kindNumS: 1, kindNumDisg: 2, kindAlphaM: 3}
	for _, cfg := range []Config{
		{Schema: pipelineSchema(), Variant: Float64Variant, LocalChunkBytes: 64},
		{Schema: pipelineSchema(), Variant: Float64Variant, Mode: protocol.PerPair},
		{Schema: pipelineSchema(), Variant: Int64Variant, Mode: protocol.PerPair},
		{Schema: pipelineSchema(), Variant: ModPVariant, LocalChunkBytes: 256},
	} {
		for _, frame := range sessionFrames(f, cfg, pipelineParts(f, 3)) {
			m, err := wire.ParseFrame(frame)
			if err != nil {
				f.Fatalf("session frame does not parse: %v", err)
			}
			if w, ok := which[m.Kind]; ok {
				f.Add(w, m.Payload)
				f.Add(uint8(5), frame) // as the coordinator relays it
			}
		}
	}
	slice, _ := wire.EncodeBody(shardSliceBody{Attr: 1, Max: 2.5, Cells: []float64{0.5, 2.5}})
	f.Add(uint8(4), slice)

	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		decoders := chunkDecoders()
		d := decoders[int(which)%len(decoders)]
		received := bytes.Clone(payload)
		defer func() {
			if !bytes.Equal(payload, received) {
				t.Fatalf("%T: the payload was written", d)
			}
		}()
		var err error
		grew := allocatedBytes(func() { err = wire.DecodeBody(payload, d) })
		// The widest expansion is an empty symbol matrix: two shape bytes
		// become a 16-byte AlphaShape. The slack covers the error value
		// and whatever the runtime allocates on the side.
		if grew > 64*uint64(len(payload))+32<<10 {
			t.Fatalf("%T allocated %d bytes decoding %d", d, grew, len(payload))
		}
		if err != nil {
			if !errors.Is(err, wire.ErrMalformed) {
				t.Fatalf("%T: unclassified error: %v", d, err)
			}
			return
		}
		// The bodies that keep their cells in the payload are also evaluated
		// and installed the way the third party does. Either outcome is fine
		// — fuzzed cells seldom stay inside an alphabet, fuzzed headers seldom
		// agree with their cell count — as long as it is an outcome and not a
		// panic, and (the deferred check) the payload is only read.
		jt := rng.NewAESCTR(rng.SeedFromUint64(1))
		switch b := d.(type) {
		case *alphaMBody:
			for _, a := range []*alphabet.Alphabet{alphabet.DNA, alphabet.AlphaNum} {
				protocol.NewEngine(2).AlphaThirdPartyChunk(&b.M, 0, len(b.M.Counts), a, jt)
			}
		case *localBody:
			if 0 <= b.Lo && b.Lo <= b.N && b.N <= 256 {
				if asm, err := dissim.NewSliceAssembler([]int{b.N}, b.Lo, b.N, 2); err == nil {
					asm.SetLocalRowsLE(0, b.Lo, b.Hi, b.wire)
				}
			}
		case *numSBody:
			c, eng := b.wire, protocol.NewEngine(2)
			for _, mode := range []protocol.Mode{protocol.Batch, protocol.PerPair} {
				for _, axis := range []protocol.Axis{protocol.InitiatorCols, protocol.InitiatorRows} {
					for _, eval := range []func() (protocol.RowFunc, error){
						func() (protocol.RowFunc, error) {
							return eng.NumericThirdPartyFloatChunk(c, b.Lo, b.Hi, jt, protocol.DefaultFloatParams, mode, axis)
						},
						func() (protocol.RowFunc, error) {
							return eng.NumericThirdPartyIntChunk(c, b.Lo, b.Hi, jt, protocol.DefaultIntParams, mode, axis)
						},
						func() (protocol.RowFunc, error) { return eng.NumericThirdPartyModPChunk(c, b.Lo, b.Hi, jt, mode, axis) },
					} {
						row, err := eval()
						if err != nil || b.Lo < 0 || b.Hi > 256 || c.Cols > 256 {
							continue
						}
						if asm, err := dissim.NewSliceAssembler([]int{c.Cols, b.Hi}, c.Cols+b.Lo, c.Cols+b.Hi, 2); err == nil {
							asm.SetCrossRowsInto(0, 1, b.Lo, b.Hi, row)
						}
					}
				}
			}
		}
		enc := reencode(t, d)
		again := chunkDecoders()[int(which)%len(decoders)]
		if err := wire.DecodeBody(enc, again); err != nil {
			t.Fatalf("%T: own encoding rejected: %v", d, err)
		}
		if !bytes.Equal(reencode(t, again), enc) {
			t.Fatalf("%T: encoding is not a fixed point", d)
		}
	})
}

// TestPooledTCPPlaintextSessionBitIdentical is the frame-ownership
// regression: with plaintext channels nothing stands between the session
// endpoints and wire.TCPPooled's recycled receive buffer, and a one-row
// chunk budget sends many frames per lane, and the third party keeps each
// holder's tag frame across the Recvs that overwrite that buffer. The report must still be
// bit-identical to the in-memory session's.
func TestPooledTCPPlaintextSessionBitIdentical(t *testing.T) {
	parts := pairCapParts(t, 24, 24)
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant,
		PlaintextChannels: true, LocalChunkBytes: 1}
	want, err := RunInMemory(cfg, parts, nil, deterministicRandom(62))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The driver wraps the two ends of a link back to back, so the first
	// call of a pair dials and parks the accepted end for the second.
	var parked net.Conn
	overTCP := func(_, _ string, c wire.Conduit) wire.Conduit {
		if parked != nil {
			conn := parked
			parked = nil
			return wire.TCPPooled(conn)
		}
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		accepted, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close(); accepted.Close() })
		parked = accepted
		return wire.TCPPooled(conn)
	}
	got, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(62), overTCP)
	if err != nil {
		t.Fatalf("session over pooled TCP: %v", err)
	}
	assertSameOutcome(t, "plaintext over TCPPooled, one-row chunks", want, got)
}

// BenchmarkChunkBodyCodec tracks serialization cost for the session's
// dominant messages — a responder's S matrix chunk and an alphanumeric M
// chunk — through the calls the session makes.
func BenchmarkChunkBodyCodec(b *testing.B) {
	s := numSBody{Rows: 128, Lo: 0, Hi: 128, Float: protocol.NewFloat64Matrix(128, 128)}
	for i := range s.Float.Cell {
		s.Float.Cell[i] = float64(i) * 1.000003
	}
	row := make([]*protocol.SymbolMatrix, 64)
	for i := range row {
		row[i] = symbolMatrix(16, 16, 1, 2, 3)
	}
	rows := make([][]*protocol.SymbolMatrix, 16)
	for i := range rows {
		rows[i] = row
	}
	m := alphaMBody{Rows: 16, Lo: 0, Hi: 16, M: alphaChunkOf(false, rows...)}
	for _, tc := range []struct {
		name    string
		body    wire.BodyAppender
		decoder func() wire.BodyDecoder
	}{
		{"numeric-s", s, func() wire.BodyDecoder { return &numSBody{} }},
		{"alpha-m", m, func() wire.BodyDecoder { return &alphaMBody{} }},
	} {
		enc, err := wire.EncodeBody(tc.body)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name+"/encode", func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			buf := make([]byte, 0, len(enc))
			for i := 0; i < b.N; i++ {
				if buf, err = tc.body.AppendBody(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/decode", func(b *testing.B) {
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := wire.DecodeBody(enc, tc.decoder()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
