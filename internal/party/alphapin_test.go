package party

import (
	"fmt"
	"testing"

	"ppclust/internal/alloccheck"
	"ppclust/internal/alphabet"
	"ppclust/internal/dataset"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// scriptedConduit hands out the frames it was given and measures the ones
// it is sent, keeping none (the Conduit contract).
type scriptedConduit struct {
	recv          [][]byte
	frames, bytes int
}

func (c *scriptedConduit) Send(frame []byte) error {
	c.frames++
	c.bytes += len(frame)
	return nil
}

func (c *scriptedConduit) Recv() ([]byte, error) {
	if len(c.recv) == 0 {
		return nil, wire.ErrClosed
	}
	frame := c.recv[0]
	c.recv = c.recv[1:]
	return frame, nil
}

func (c *scriptedConduit) Close() error { return nil }

// TestAlphaChunkAllocationPin runs the responder role of one alphanumeric
// pair — Holder.respond itself, over conduits that only count — and pins
// what it may allocate and send. The allocation COUNT follows the strings
// on either side and the frames sent, never the rows × cols string pairs
// (the parent allocated two objects per pair); the allocated BYTES, an
// upper bound on the holder's peak, follow one chunk's slab and not the
// block's (the parent built the whole rows × cols × len² block, two bytes
// a cell, before its first frame). The frames carry the cells at DNA's two
// bits each, rows padded to a byte, plus headers.
func TestAlphaChunkAllocationPin(t *testing.T) {
	const strLen = 16
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "seq", Type: dataset.Alphanumeric, Alphabet: alphabet.DNA}}}
	cfg, num, err := Config{Schema: schema, Variant: Float64Variant, Parallelism: 2}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	gen := rng.NewXoshiro(rng.SeedFromUint64(26))
	dna := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			s := make([]byte, strLen)
			for j := range s {
				s[j] = "ACGT"[rng.Symbol(gen, 4)]
			}
			out[i] = string(s)
		}
		return out
	}
	respond := func(rows, cols int) (mallocs, bytes uint64, sink *scriptedConduit) {
		table := dataset.MustNewTable(schema)
		for _, s := range dna(rows) {
			table.MustAppendRow(s)
		}
		strs := make([]protocol.SymbolString, cols)
		for i, s := range dna(cols) {
			strs[i] = alphabet.DNA.MustEncode(s)
		}
		body, err := wire.EncodeBody(alphaDisguisedBody{S: protocol.PackAlphaStrings(strs, protocol.AlphaCellBits(alphabet.DNA))})
		if err != nil {
			t.Fatal(err)
		}
		// One holder a reading: a holder responds once.
		holders := make([]*Holder, 3)
		for i := range holders {
			frame := wire.AppendFrame(nil, &wire.Message{From: "A", To: "B", Kind: kindAlphaDisg, Payload: body})
			sink = &scriptedConduit{}
			holders[i] = &Holder{name: "B", index: 1, holders: []string{"A", "B"}, table: table, cfg: cfg, eng: protocol.NewEngine(cfg.Parallelism),
				peers:      map[string]*wire.Endpoint{"A": wire.NewEndpoint(&scriptedConduit{recv: [][]byte{frame}})},
				census:     newCensus([]int{cols, rows}),
				ranges:     [][2]int{{0, cols + rows}},
				rangeLanes: []compLane{{ep: wire.NewEndpoint(sink), to: TPName}},
			}
		}
		next := 0
		bytes, mallocs = alloccheck.Least(len(holders), func() {
			if err := holders[next].respond(0, 0); err != nil {
				t.Fatal(err)
			}
			next++
		})
		return mallocs, bytes, sink // every holder sends the same frames
	}

	respond(8, 8) // warm the frame-buffer pool
	for _, tc := range []struct{ rows, cols int }{{80, 80}, {160, 80}, {80, 160}, {160, 160}} {
		mallocs, bytes, sink := respond(tc.rows, tc.cols)
		pairs, cells := tc.rows*tc.cols, tc.rows*tc.cols*strLen*strLen
		slab := pairs * strLen * protocol.AlphaRowBytes(strLen, protocol.AlphaCellBits(alphabet.DNA))
		chunks := len(cfg.pairChunksRange(num, dataset.Alphanumeric, 0, tc.rows, tc.cols))
		chunkBytes := slab / tc.rows * ((tc.rows + chunks - 1) / chunks)
		label := fmt.Sprintf("%dx%d", tc.rows, tc.cols)
		t.Logf("%s: %d pairs, %d cells in %d slab bytes and %d frames of %d bytes; %d allocations, %d bytes (largest chunk %d bytes)",
			label, pairs, cells, slab, sink.frames, sink.bytes, mallocs, bytes, chunkBytes)
		if sink.frames != chunks || sink.bytes < slab || sink.bytes > slab+slab/8 {
			t.Fatalf("%s: sent %d frames of %d bytes, want %d frames carrying %d slab bytes and their headers", label, sink.frames, sink.bytes, chunks, slab)
		}
		if chunks < 2 || pairs < 1600 {
			t.Fatalf("%s: %d chunks of %d pairs pin nothing", label, chunks, pairs)
		}
		// Per string: its decoded or encoded symbols. Per frame: the
		// worker fan-out. Nothing per pair.
		if limit := uint64(6*(tc.rows+tc.cols) + 32*chunks + 64); mallocs > limit {
			t.Errorf("%s: %d allocations for %d string pairs, want at most %d", label, mallocs, pairs, limit)
		}
		// The slab, the shapes beside it and the frame it is copied into,
		// each reached by growing: a few chunks' worth, and well under the
		// block. Not under the race detector, where sync.Pool drops a share
		// of the frame buffers it is handed back and every dropped one is a
		// chunk-sized allocation.
		if limit := uint64(4*chunkBytes + 64<<10); !raceEnabled && (bytes > limit || limit > uint64(slab)) {
			t.Errorf("%s: %d bytes allocated, want at most %d (the block is %d bytes)", label, bytes, limit, slab)
		}
	}
}
