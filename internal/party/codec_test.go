package party

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ppclust/internal/alphabet"
	"ppclust/internal/dissim"
	"ppclust/internal/leakcheck"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// sessionKinds lists every Kind a session sends, in a fixed order the fuzz
// target indexes: the partition-quadratic bodies' kinds first, then the
// control kinds.
var sessionKinds = []wire.Kind{kindLocal, kindNumS, kindAlphaM, kindShardSlice, kindShardFrame, kindAlphaDisg,
	kindNumDisg, kindHello, kindCount, kindCensus, kindGroupKey, kindCatTags, kindPathTags, kindRequest,
	kindResult, kindShardOffer, kindShardBeat, kindShardDone, kindAbort}

// newBody returns a fresh decoder of kind's body.
func newBody(kind wire.Kind) wire.BodyDecoder {
	switch kind {
	case kindLocal:
		return &localBody{}
	case kindNumS, kindNumDisg:
		return &numSBody{}
	case kindAlphaM:
		return &alphaMBody{}
	case kindShardSlice:
		return &shardSliceBody{}
	case kindShardFrame:
		return &shardFrameBody{}
	case kindAlphaDisg:
		return &alphaDisguisedBody{}
	case kindHello:
		return &helloBody{}
	case kindCount:
		return &countBody{}
	case kindCensus:
		return &censusBody{}
	case kindGroupKey:
		return &groupKeyBody{}
	case kindCatTags:
		return &catTagsBody{}
	case kindPathTags:
		return &pathTagsBody{}
	case kindRequest:
		return &requestBody{}
	case kindResult:
		return &resultBody{}
	case kindShardOffer:
		return &shardOfferBody{}
	case kindShardBeat:
		return &shardBeatBody{}
	case kindShardDone:
		return &shardDoneBody{}
	case kindAbort:
		return &abortBody{}
	}
	panic(fmt.Sprintf("no body for kind %q", kind))
}

// The wire's numeric variant bytes (protocol.NumericChunk).
const (
	tagInt64 byte = iota + 1
	tagFloat64
	tagModP
)

// numBody is a numeric chunk body whose cell block — variant byte, shape,
// cells — is given as it goes on the wire.
func numBody(rows, lo, hi int, tag byte, cRows, cCols int, cells []byte) numSBody {
	return numSBody{Rows: rows, Lo: lo, Hi: hi, fill: func(dst []byte) ([]byte, error) {
		return append(appendInts(append(dst, tag), cRows, cCols), cells...), nil
	}}
}

// reencode encodes what a decoder holds, through the value receiver the
// session sends with. The two bodies that keep their cells in the payload
// they were decoded from are never sent again by the session, so their
// send form is rebuilt here from what was decoded: the local cells as
// values, the numeric block from its shape and cells. Only the numeric
// block's variant byte, which the protocol keeps to itself, is taken from
// the payload the body was decoded from.
func reencode(t testing.TB, d wire.BodyDecoder, payload []byte) []byte {
	t.Helper()
	body := reflect.ValueOf(d).Elem().Interface()
	switch b := d.(type) {
	case *localBody:
		body = localBody{N: b.N, Lo: b.Lo, Hi: b.Hi, Cells: float64s(b.wire)}
	case *numSBody:
		tag := payload[len(appendInts(nil, b.Rows, b.Lo, b.Hi))]
		body = numBody(b.Rows, b.Lo, b.Hi, tag, b.cells.Rows, b.cells.Cols, b.cells.Cells)
	}
	out, err := wire.EncodeBody(body)
	if err != nil {
		t.Fatalf("re-encoding %T: %v", d, err)
	}
	return out
}

// gobEncode is v as a gob-era peer sent it: the body the session once
// encoded through gob.
func gobEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob-encoding %T: %v", v, err)
	}
	return buf.Bytes()
}

// sizedAlphabet is an alphabet of n symbols.
func sizedAlphabet(n int) *alphabet.Alphabet {
	runes := make([]rune, n)
	for i := range runes {
		runes[i] = rune(0x100 + i)
	}
	return alphabet.MustNew(fmt.Sprintf("sized-%d", n), runes)
}

func symbolMatrix(rows, cols int, cells ...alphabet.Symbol) *protocol.SymbolMatrix {
	m := protocol.NewSymbolMatrix(rows, cols)
	copy(m.Cell, cells)
	return m
}

// alphaChunkOf packs per-pair matrices into the slab form the body
// carries at the given cell width: rows of little-endian bits-wide fields
// padded to a byte, or one symbol a cell for 16 bits.
func alphaChunkOf(bits int, rows ...[]*protocol.SymbolMatrix) protocol.AlphaChunk {
	c := protocol.AlphaChunk{Bits: bits}
	for _, row := range rows {
		c.Counts = append(c.Counts, len(row))
		for _, m := range row {
			c.Shapes = append(c.Shapes, protocol.AlphaShape{Rows: m.Rows, Cols: m.Cols})
			if bits == 16 {
				c.Wide = append(c.Wide, m.Cell...)
				continue
			}
			rb := protocol.AlphaRowBytes(m.Cols, bits)
			for q := 0; q < m.Rows; q++ {
				row := make([]byte, rb)
				for p := 0; p < m.Cols; p++ {
					row[p*bits/8] |= byte(int(m.At(q, p)) << (p * bits % 8))
				}
				c.Packed = append(c.Packed, row...)
			}
		}
	}
	return c
}

// chunkCells reads every matrix of a chunk back out of its slab, one
// symbol an int, matrix after matrix and row after row, refusing a row
// whose padding bits are not zero.
func chunkCells(c *protocol.AlphaChunk) ([][]int, error) {
	var out [][]int
	off := 0
	for i, sh := range c.Shapes {
		rb := protocol.AlphaRowBytes(sh.Cols, c.Bits)
		cells := make([]int, 0, sh.Rows*sh.Cols)
		for q := 0; q < sh.Rows; q++ {
			if c.Bits == 16 {
				for _, s := range c.Wide[off/2+q*sh.Cols : off/2+(q+1)*sh.Cols] {
					cells = append(cells, int(s))
				}
				continue
			}
			row := c.Packed[off+q*rb : off+(q+1)*rb]
			for p := 0; p < sh.Cols; p++ {
				cells = append(cells, int(row[p*c.Bits/8]>>(p*c.Bits%8))&(1<<c.Bits-1))
			}
			if used := sh.Cols*c.Bits - 8*(rb-1); rb > 0 && row[rb-1]>>used != 0 {
				return nil, fmt.Errorf("matrix %d row %d: padding bits %#x", i, q, row[rb-1]>>used)
			}
		}
		off += sh.Rows * rb
		out = append(out, cells)
	}
	return out, nil
}

// TestChunkBodyRoundTrip drives every fixed layout through
// wire.EncodeBody / wire.DecodeBody — the calls the session makes — over
// the shapes the schedules produce and the edge cases they can, and over
// the recorded control bodies: the decoded body must re-encode to the same
// bytes (the layouts write every field bit for bit, so equal bytes are
// equal bodies), and one byte more or less must be rejected as malformed.
func TestChunkBodyRoundTrip(t *testing.T) {
	specials := []float64{math.NaN(), math.Float64frombits(0x7ff8000000000123), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.MaxFloat64}
	var ints, elems []byte // four int64 cells, six 32-byte cells
	for _, v := range []int64{math.MinInt64, -1, 0, math.MaxInt64} {
		ints = binary.LittleEndian.AppendUint64(ints, uint64(v))
	}
	for i := 0; i < 6*32; i++ {
		elems = append(elems, byte(i))
	}
	type roundTrip struct {
		name    string
		body    wire.BodyAppender
		decoder wire.BodyDecoder
		size    int // exact encoded size, 0 to skip
	}
	cases := []roundTrip{
		{"local", localBody{N: 5, Lo: 2, Hi: 4, Cells: []float64{1, 2, 3, 4, 5}}, &localBody{}, 3 + 5*8},
		{"local zero rows", localBody{N: 0, Lo: 0, Hi: 0}, &localBody{}, 3},
		{"local special floats", localBody{N: 9, Lo: 1, Hi: 2, Cells: specials}, &localBody{}, 0},
		{"local negative header", localBody{N: -1, Lo: -7, Hi: 1 << 40}, &localBody{}, 0},
		{"numS float", numBody(4, 1, 3, tagFloat64, 2, 4, appendFloat64s(nil, specials)), &numSBody{}, 6 + 8*8},
		{"numS int", numBody(4, 0, 2, tagInt64, 2, 2, ints), &numSBody{}, 6 + 4*8},
		{"numS modp", numBody(3, 0, 3, tagModP, 3, 2, elems), &numSBody{}, 6 + 6*32},
		{"numS zero rows", numBody(0, 0, 0, tagFloat64, 0, 7, nil), &numSBody{}, 6},
		{"disguised row", numBody(1, 0, 1, tagFloat64, 1, 3, appendFloat64s(nil, []float64{1.5, -2.5, 1e300})), &numSBody{}, 0},
		{"alpha 2-bit symbols", alphaMBody{Rows: 2, Lo: 0, Hi: 2, M: alphaChunkOf(2,
			[]*protocol.SymbolMatrix{symbolMatrix(2, 3, 0, 1, 2, 3, 3, 1), symbolMatrix(0, 3)},
			[]*protocol.SymbolMatrix{symbolMatrix(1, 1, 2), symbolMatrix(2, 0)},
		)}, &alphaMBody{}, 3 + 1 + 2 + 2 + 8 + 2 + 1},
		{"alpha 4-bit symbols", alphaMBody{Rows: 2, Lo: 0, Hi: 2, M: alphaChunkOf(4,
			[]*protocol.SymbolMatrix{symbolMatrix(2, 3, 0, 1, 2, 13, 14, 15), symbolMatrix(0, 3)},
			[]*protocol.SymbolMatrix{symbolMatrix(1, 1, 7), symbolMatrix(2, 0)},
		)}, &alphaMBody{}, 3 + 1 + 2 + 2 + 8 + 4 + 1},
		{"alpha one-byte symbols", alphaMBody{Rows: 2, Lo: 0, Hi: 2, M: alphaChunkOf(8,
			[]*protocol.SymbolMatrix{symbolMatrix(2, 3, 0, 1, 2, 3, 254, 255), symbolMatrix(0, 3)},
			[]*protocol.SymbolMatrix{symbolMatrix(1, 1, 7), symbolMatrix(2, 0)},
		)}, &alphaMBody{}, 3 + 1 + 2 + 2 + 8 + 7},
		{"alpha one-byte symbols in a wide slab", alphaMBody{Rows: 2, Lo: 0, Hi: 2, M: alphaChunkOf(16,
			[]*protocol.SymbolMatrix{symbolMatrix(2, 3, 0, 1, 2, 3, 254, 255), symbolMatrix(0, 3)},
			[]*protocol.SymbolMatrix{symbolMatrix(1, 1, 7), symbolMatrix(2, 0)},
		)}, &alphaMBody{}, 3 + 1 + 2 + 2 + 8 + 2*7},
		{"alpha two-byte symbols", alphaMBody{Rows: 9, Lo: 4, Hi: 5, M: alphaChunkOf(16,
			[]*protocol.SymbolMatrix{symbolMatrix(1, 2, 255, 256), symbolMatrix(2, 2, 0, 1000, 65535, 3)},
		)}, &alphaMBody{}, 3 + 1 + 2 + 1 + 4 + 2*6},
		{"alpha zero rows", alphaMBody{Rows: 0, Lo: 0, Hi: 0, M: protocol.AlphaChunk{Bits: 2}}, &alphaMBody{}, 6},
		{"alpha ragged", alphaMBody{Rows: 3, Lo: 0, Hi: 3, M: alphaChunkOf(2,
			[]*protocol.SymbolMatrix{symbolMatrix(1, 1, 1)}, nil, []*protocol.SymbolMatrix{symbolMatrix(1, 1, 2), symbolMatrix(1, 1, 3)},
		)}, &alphaMBody{}, 0},
		{"disguised 2-bit", alphaDisguisedBody{S: protocol.PackAlphaStrings([]protocol.SymbolString{{1, 2, 3}, {}, {3, 3, 3, 3, 0}}, 2)},
			&alphaDisguisedBody{}, 1 + 1 + 3 + 1 + 0 + 2},
		{"disguised 16-bit", alphaDisguisedBody{S: protocol.PackAlphaStrings([]protocol.SymbolString{{299, 0}}, 16)},
			&alphaDisguisedBody{}, 1 + 1 + 1 + 4},
		{"disguised none", alphaDisguisedBody{S: protocol.AlphaStrings{Bits: 4}}, &alphaDisguisedBody{}, 2},
		{"slice", shardSliceBody{Attr: 2, Max: math.Inf(1), Cells: specials}, &shardSliceBody{}, 1 + 8 + 8*8},
		{"slice empty", shardSliceBody{Attr: 0, Max: 0}, &shardSliceBody{}, 9},
		{"relayed frame", shardFrameBody{Frame: []byte("any bytes at all")}, &shardFrameBody{}, 16},
	}
	for _, c := range controlSamples() {
		cases = append(cases, roundTrip{string(c.kind), c.body, newBody(c.kind), 0})
	}
	for _, tc := range cases {
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
		if again := reencode(t, tc.decoder, enc); !bytes.Equal(again, enc) {
			t.Errorf("%s: decoded body re-encodes to %x, want %x", tc.name, again, enc)
		}
		if _, relayed := tc.body.(shardFrameBody); relayed {
			continue // every byte string is a relayed frame
		}
		bad := map[string][]byte{"trailing byte": append(enc[:len(enc):len(enc)], 0)}
		if len(enc) > 0 {
			bad["short by one"] = enc[:len(enc)-1]
		}
		for name, bad := range bad {
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
	// The alphanumeric decoder allocates per chunk, not per string pair,
	// and keeps the slab where it arrived.
	row := make([]*protocol.SymbolMatrix, 100)
	for i := range row {
		row[i] = symbolMatrix(2, 2, 1, 2, 3, 0)
	}
	enc, _ = wire.EncodeBody(alphaMBody{Rows: 2, Lo: 0, Hi: 2, M: alphaChunkOf(2, row, row)})
	if allocs := testing.AllocsPerRun(10, func() {
		var am alphaMBody
		if err := wire.DecodeBody(enc, &am); err != nil || len(am.M.Packed) != 400 || &am.M.Packed[0] != &enc[len(enc)-400] {
			t.Errorf("alphanumeric chunk: %v", err)
		}
	}); allocs > 3 {
		t.Errorf("decoding a chunk of 200 symbol matrices took %v allocations", allocs)
	}
	// What a sender must not put on the wire is refused where it is built.
	for name, body := range map[string]wire.BodyAppender{
		"stray matrix":  alphaMBody{M: protocol.AlphaChunk{Bits: 2, Shapes: []protocol.AlphaShape{{Rows: 0, Cols: 0}}}},
		"short slab":    alphaMBody{M: protocol.AlphaChunk{Bits: 2, Counts: []int{1}, Shapes: []protocol.AlphaShape{{Rows: 2, Cols: 5}}, Packed: make([]byte, 3)}},
		"no width":      alphaMBody{M: protocol.AlphaChunk{Counts: []int{1}, Shapes: []protocol.AlphaShape{{Rows: 1, Cols: 1}}, Packed: make([]byte, 1)}},
		"short strings": alphaDisguisedBody{S: protocol.AlphaStrings{Bits: 2, Lens: []int{5}, Slab: make([]byte, 1)}},
		"a column another arithmetic checked": numSBody{fill: func(dst []byte) ([]byte, error) {
			floatNum, _ := protocol.NewNumeric(Float64Variant, protocol.Batch)
			intNum, _ := protocol.NewNumeric(Int64Variant, protocol.Batch)
			col, err := floatNum.Column([]float64{0.5})
			if err != nil {
				return nil, err
			}
			return intNum.Disguise(protocol.NewEngine(1), dst, col, 0, 1, 1, rng.NewXoshiro(rng.Seed{}), rng.NewXoshiro(rng.Seed{}), protocol.InitiatorCols)
		}},
	} {
		if _, err := wire.EncodeBody(body); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestChunkDecodersBoundClaims: a few bytes that claim a huge shape or
// count are refused before anything is allocated for them, by the chunk
// decoders and the control decoders alike.
func TestChunkDecodersBoundClaims(t *testing.T) {
	huge := func(dst []byte) []byte { return appendInts(dst, math.MaxInt64/2) }
	header := appendInts(appendInts(appendInts(nil, 1), 0), 1)
	// An offer up to its seed tables: one attribute of 2^40 seeds follows.
	offer, err := wire.EncodeBody(shardOfferBody{Shard: 1, Lo: 0, Hi: 4, Holders: []string{"A", "B"}, Counts: []int{2, 2}, Fingerprint: "x/numeric/1;"})
	if err != nil {
		t.Fatal(err)
	}
	offer = offer[:len(offer)-2] // the two empty seed tables
	for name, tc := range map[string]struct {
		payload []byte
		decoder wire.BodyDecoder
	}{
		"S rows":       {huge(appendInts(append(header[:3:3], tagFloat64), 1)), &numSBody{}},
		"S overflow":   {huge(huge(append(header[:3:3], tagModP))), &numSBody{}},
		"S no variant": {append(header[:3:3], 0), &numSBody{}},
		"alpha rows":   {appendInts(huge(append(header[:3:3], 8)), 0), &alphaMBody{}},
		"alpha mats":   {huge(appendInts(append(header[:3:3], 8), 1)), &alphaMBody{}},
		"alpha shape":  {huge(huge(appendInts(appendInts(appendInts(append(header[:3:3], 16), 1), 1), 1))), &alphaMBody{}},
		"alpha cells":  {appendInts(appendInts(appendInts(appendInts(appendInts(append(header[:3:3], 8), 1), 1), 1), 1<<20), 1<<20), &alphaMBody{}},
		"alpha width":  {appendInts(appendInts(append(header[:3:3], 3), 0), 0), &alphaMBody{}},
		"alpha rows 2": {appendInts(appendInts(appendInts(appendInts(appendInts(append(header[:3:3], 2), 1), 1), 1), 1<<20), 1<<20), &alphaMBody{}},
		"alpha cols":   {appendInts(appendInts(appendInts(appendInts(appendInts(append(header[:3:3], 16), 1), 1), 1), 1), math.MaxInt64/2), &alphaMBody{}},
		"disg strings": {huge([]byte{2}), &alphaDisguisedBody{}},
		"disg length":  {huge(appendInts([]byte{2}, 1)), &alphaDisguisedBody{}},
		"disg width":   {appendInts([]byte{5}, 0), &alphaDisguisedBody{}},
		"S bad tag":    {append(header[:3:3], 9, 0, 0), &numSBody{}},
		"slice no max": {[]byte{0, 1, 2, 3}, &shardSliceBody{}},

		"census holders":   {appendInts(nil, 1<<40), &censusBody{}},
		"census counts":    {appendInts(appendStrings(nil, []string{"A"}), 1<<40), &censusBody{}},
		"result clusters":  {appendInts(nil, 1<<40), &resultBody{}},
		"result members":   {appendInts(nil, 1, 1<<40), &resultBody{}},
		"result quality":   {appendInts(nil, 0, 0, 1<<40), &resultBody{}},
		"path levels":      {appendInts(nil, 1, 1<<40), &pathTagsBody{}},
		"category tags":    {appendInts(nil, 1<<40), &catTagsBody{}},
		"offer seeds":      {appendInts(offer, 1, 1<<40), &shardOfferBody{}},
		"offer attributes": {appendInts(offer, 1<<40), &shardOfferBody{}},
		"request weights":  {appendInts(nil, 1<<40), &requestBody{}},
		"hello key":        {appendInts(nil, 1<<40), &helloBody{}},
		"abort reason":     {appendInts(nil, 1<<40), &abortBody{}},
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

// TestSessionBodiesHaveFixedLayouts: no session body goes through gob.
// Over a plain session, a K = 2 one, one whose shards run on ShardServers
// and an aborted one over the extension types, every frame on every link —
// the worker links recorded inside their channel protection, a relayed
// holder frame opened too — decodes through its kind's body decoder and
// re-encodes to the same bytes, and every kind a session sends is among
// them.
func TestSessionBodiesHaveFixedLayouts(t *testing.T) {
	leakcheck.Check(t)
	seen := map[wire.Kind]bool{}
	var check func(label string, raw []byte)
	check = func(label string, raw []byte) {
		m, err := wire.ParseFrame(raw)
		if err != nil {
			t.Errorf("%s: %v", label, err)
			return
		}
		seen[m.Kind] = true
		d := newBody(m.Kind)
		if err := wire.DecodeBody(m.Payload, d); err != nil {
			t.Errorf("%s: %v", label, err)
			return
		}
		if again := reencode(t, d, m.Payload); !bytes.Equal(again, m.Payload) {
			t.Errorf("%s: %s body re-encodes to %x, sent as %x", label, m.Kind, again, m.Payload)
		}
		if relayed, ok := d.(*shardFrameBody); ok {
			check(label+", relayed", relayed.Frame)
		}
	}
	checkAll := func(label string, tp *tap) {
		for _, f := range append(tp.sent("", ""), tp.received("", "")...) {
			check(fmt.Sprintf("%s, %s>%s frame %d (received %v)", label, f.From, f.To, f.N, f.Recv), f.Raw)
		}
	}

	parts := pipelineParts(t, 4)
	plain := Config{Schema: pipelineSchema(), Variant: Float64Variant, LocalChunkBytes: 256, PlaintextChannels: true}
	checkAll("plain", tapSession(t, plain, parts))
	sharded := plain
	sharded.TPShards = 2
	checkAll("K = 2", tapSession(t, sharded, parts))

	// The first relayed frame is held past a heartbeat, so the worker
	// sends one.
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
	tp := newTap(sharded)
	var held sync.Once
	worker := sharded
	worker.ShardDial = pool.dialer("tapped", tp.workerLinks(pool.servers[0].fp, func(f *tapFrame) {
		if f.Msg.Kind == kindShardFrame {
			held.Do(func() { time.Sleep(shardHeartbeat + shardHeartbeat/4) })
		}
	}))
	if _, err := RunInMemoryWrapped(worker, parts, pipelineReqs(), deterministicRandom(61), tp.wrap); err != nil {
		t.Fatalf("worker session: %v", err)
	}
	checkAll("worker", tp)

	// B gives up where it would send its request: its peers get aborts.
	schema, ext := extensionParts()
	aborted := Config{Schema: schema, Variant: Int64Variant, PlaintextChannels: true}
	tp = newTap(aborted)
	tp.onSend("B", TPName, first(kindRequest, func(*tapFrame) ([][]byte, error) {
		return nil, errors.New("B gives up")
	}))
	if _, err := RunInMemoryWrapped(aborted, ext, nil, deterministicRandom(61), tp.wrap); err == nil {
		t.Fatal("the aborted session succeeded")
	}
	checkAll("aborted", tp)

	for _, kind := range sessionKinds {
		if !seen[kind] {
			t.Errorf("no %s frame recorded", kind)
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

// TestAlphaFramesMatchParent is the transcript differential of the
// alphanumeric engine: every ppc/alpha-m frame of a mixed-schema session,
// lane by lane in the order it was sent, must hash to the recorded digest,
// at every chunk budget, shard count and worker count (the recorded
// digests do not depend on the last). The digests were first recorded at
// d84a373, the last commit to build a SymbolMatrix per string pair, and
// re-recorded once when the slab went from a byte a cell to the
// alphabet's cell width: the lanes and frame counts stayed, the frames
// shrank.
func TestAlphaFramesMatchParent(t *testing.T) {
	parts := pipelineParts(t, 40)
	for _, tc := range []struct {
		chunk, shards int
		hash          string
	}{
		{1, 1, "2/125/3147fef6b52889b4"},
		{64, 1, "2/125/3147fef6b52889b4"},
		{0, 1, "2/6/b60a0d25b984a080"},
		{oneFrameBudget, 1, "2/3/3b9b7111df3206a6"},
		{1, 2, "3/125/1b59b3295bf62ff3"},
		{64, 2, "3/125/1b59b3295bf62ff3"},
		{0, 2, "3/8/a5f9ea624f5dbc23"},
		{oneFrameBudget, 2, "3/5/d39d3e717dd25c26"},
	} {
		for _, workers := range []int{1, 2} {
			cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant,
				LocalChunkBytes: tc.chunk, TPShards: tc.shards, Parallelism: workers}
			if got := tapSession(t, cfg, parts).laneDigest(kindAlphaM); got != tc.hash {
				t.Errorf("chunk %d, shards %d, workers %d: lanes/frames/digest %s, recorded %s",
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
				if got := tapSession(t, cfg, parts).laneDigest(kindLocal, kindNumDisg, kindNumS); got != hash {
					t.Errorf("%v %v, chunk %d, shards %d, workers %d: lanes/frames/digest %s, recorded %s",
						tc.variant, tc.mode, chunk, shards, workers, got, hash)
				}
			}
		}
	}
}

// FuzzChunkBodyDecoders, named when only the chunk bodies had layouts of
// their own, feeds arbitrary payloads to the decoder of every Kind a
// session sends: never a panic, only ErrMalformed failures, memory bounded
// by the input (no claimed length or count is believed before the bytes
// are seen), and whatever decodes re-encodes to a fixed point; the chunks
// that keep their cells in the payload — local, numeric S and
// alphanumeric — are also evaluated and installed, and the disguised
// strings responded to, and nothing may have written the payload by the
// end. Seeded with the payloads of every frame of real sessions in every
// numeric variant and mode — among them both holders' S chunks of a split
// pair block, and the disguise each sends the other: the initiator's
// column row, the responder's rows of one cell (batch) or of every column
// (per-pair) — with the recorded control bodies, and with alphanumeric
// chunks and strings at every cell width, and under width bytes no
// alphabet has.
func FuzzChunkBodyDecoders(f *testing.F) {
	alphabets := []*alphabet.Alphabet{alphabet.DNA, sizedAlphabet(3), alphabet.Digits, alphabet.AlphaNum, sizedAlphabet(256), sizedAlphabet(300)}
	index := func(kind wire.Kind) uint8 { return uint8(slices.Index(sessionKinds, kind)) }
	for _, cfg := range []Config{
		{Schema: pipelineSchema(), Variant: Float64Variant, LocalChunkBytes: 64},
		{Schema: pipelineSchema(), Variant: Float64Variant, Mode: protocol.PerPair},
		{Schema: pipelineSchema(), Variant: Int64Variant, Mode: protocol.PerPair},
		{Schema: pipelineSchema(), Variant: ModPVariant, LocalChunkBytes: 256},
		{Schema: pipelineSchema(), Variant: Int64Variant, LocalChunkBytes: 128},
		{Schema: pipelineSchema(), Variant: ModPVariant, Mode: protocol.PerPair},
	} {
		for _, fr := range tapSession(f, cfg, pipelineParts(f, 3)).sent("", "") {
			if fr.Msg == nil {
				f.Fatalf("session frame %d from %s does not parse", fr.N, fr.From)
			}
			f.Add(index(fr.Msg.Kind), fr.Msg.Payload)
			switch fr.Msg.Kind {
			case kindLocal, kindNumS, kindNumDisg, kindAlphaM, kindAlphaDisg:
				f.Add(index(kindShardFrame), fr.Raw) // as the coordinator relays it
			}
		}
	}
	slice, _ := wire.EncodeBody(shardSliceBody{Attr: 1, Max: 2.5, Cells: []float64{0.5, 2.5}})
	f.Add(index(kindShardSlice), slice)
	for _, c := range controlSamples() {
		enc, _ := wire.EncodeBody(c.body)
		f.Add(index(c.kind), enc)
	}
	eng := protocol.NewEngine(1)
	own := []protocol.SymbolString{{0, 1, 2}, {2, 0, 1, 1, 2, 0, 1, 2, 2, 1, 0, 0, 1}}
	for _, a := range alphabets {
		their := []protocol.SymbolString{{1}, {2, 2, 0, 1, 0, 2, 1, 1, 0, 2, 2, 1, 0}, {}}
		disg := protocol.PackAlphaStrings(their, protocol.AlphaCellBits(a))
		enc, _ := wire.EncodeBody(alphaDisguisedBody{S: disg})
		f.Add(index(kindAlphaDisg), enc)
		var c protocol.AlphaChunk
		eng.AlphaResponderChunk(&c, own, &disg, a)
		enc, _ = wire.EncodeBody(alphaMBody{Rows: 2, Lo: 0, Hi: 2, M: c})
		f.Add(index(kindAlphaM), enc)
		for _, bits := range []byte{0, 1, 3, 32, 255} {
			bad := bytes.Clone(enc)
			bad[3] = bits // the width byte, after three one-byte header integers
			f.Add(index(kindAlphaM), bad)
		}
	}

	f.Fuzz(func(t *testing.T, which uint8, payload []byte) {
		kind := sessionKinds[int(which)%len(sessionKinds)]
		d := newBody(kind)
		received := bytes.Clone(payload)
		defer func() {
			if !bytes.Equal(payload, received) {
				t.Fatalf("%T: the payload was written", d)
			}
		}()
		var err error
		grew := allocatedBytes(func() { err = wire.DecodeBody(payload, d) })
		// The widest expansions are an empty symbol matrix — two shape
		// bytes become a 16-byte AlphaShape — and an empty list in a list,
		// one byte a 24-byte slice header. The slack covers the error
		// value and whatever the runtime allocates on the side.
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
			// One alphabet of each width, and one whose width has room for
			// cells past it, so the third party's width, range and padding
			// checks all see cells from the payload.
			for _, a := range alphabets {
				protocol.NewEngine(2).AlphaThirdPartyChunk(&b.M, 0, len(b.M.Counts), a, jt)
			}
		case *alphaDisguisedBody:
			for _, a := range alphabets {
				if b.S.InAlphabet(a) == nil && len(b.S.Slab) <= 1<<10 {
					var c protocol.AlphaChunk
					protocol.NewEngine(2).AlphaResponderChunk(&c, []protocol.SymbolString{{0}, {0, 1, 0, 1, 0}}, &b.S, a)
				}
			}
		case *localBody:
			if 0 <= b.Lo && b.Lo <= b.N && b.N <= 256 {
				if asm, err := dissim.NewSliceAssembler([]int{b.N}, b.Lo, b.N, 2); err == nil {
					asm.SetLocalRowsLE(0, b.Lo, b.Hi, b.wire)
				}
			}
		case *numSBody:
			c, eng := b.cells, protocol.NewEngine(2)
			for _, v := range []Variant{Float64Variant, Int64Variant, ModPVariant} {
				for _, mode := range []protocol.Mode{protocol.Batch, protocol.PerPair} {
					for _, axis := range []protocol.Axis{protocol.InitiatorCols, protocol.InitiatorRows} {
						num, _ := protocol.NewNumeric(v, mode)
						row, err := num.Strip(eng, c, b.Lo, b.Hi, jt, axis)
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
		enc := reencode(t, d, payload)
		again := newBody(kind)
		if err := wire.DecodeBody(enc, again); err != nil {
			t.Fatalf("%T: own encoding rejected: %v", d, err)
		}
		if !bytes.Equal(reencode(t, again, enc), enc) {
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
	got, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(62), overTCP(t, 0))
	if err != nil {
		t.Fatalf("session over pooled TCP: %v", err)
	}
	assertSameOutcome(t, "plaintext over TCPPooled, one-row chunks", want, got)
}

// BenchmarkChunkBodyCodec tracks serialization cost for the session's
// dominant messages — a responder's S matrix chunk and an alphanumeric M
// chunk — through the calls the session makes.
func BenchmarkChunkBodyCodec(b *testing.B) {
	cells := make([]float64, 128*128)
	for i := range cells {
		cells[i] = float64(i) * 1.000003
	}
	s := numBody(128, 0, 128, tagFloat64, 128, 128, appendFloat64s(nil, cells))
	row := make([]*protocol.SymbolMatrix, 64)
	for i := range row {
		row[i] = symbolMatrix(16, 16, 1, 2, 3)
	}
	rows := make([][]*protocol.SymbolMatrix, 16)
	for i := range rows {
		rows[i] = row
	}
	m := alphaMBody{Rows: 16, Lo: 0, Hi: 16, M: alphaChunkOf(2, rows...)}
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
