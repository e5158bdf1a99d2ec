package protocol

import (
	"encoding/binary"
	"fmt"
	"math"

	"ppclust/internal/alphabet"
	"ppclust/internal/modp"
	"ppclust/internal/rng"
)

// Row-range third-party evaluation — the engine side of the chunked
// pairwise wire path. A responder streams its masked S/M matrix to the
// third party as contiguous row-range chunks (dissim.RectChunksRange schedule),
// and the third party evaluates each chunk the moment it arrives instead
// of waiting for the whole payload. The methods below are the row-exact
// forms of NumericThirdParty* and AlphaThirdParty: each takes one chunk
// (rows [lo, hi) of the full matrix) and returns that range's decoded
// distance block.
//
// Per-chunk mask alignment keeps the batched keystreams bit-identical to
// the monolithic evaluation:
//
//   - Batch mode re-initializes the shared generator at every row boundary
//     (the paper's per-row Reseed discipline), so every row of every chunk
//     consumes the same stream prefix. Each chunk call draws that prefix
//     and leaves jt rewound, exactly as the monolithic call does — the
//     masks stripped from chunk rows are the very values the monolithic
//     pass would strip, and chunks may in principle be evaluated in any
//     order.
//   - PerPair mode consumes one fresh mask per matrix cell, row-major,
//     with no re-initialization. A chunk call advances jt by exactly its
//     own rows·cols draws, so evaluating the chunks of one pair in
//     ascending row order on one shared jt stream consumes the identical
//     keystream positions as the monolithic pass. Callers MUST therefore
//     feed chunks in schedule order — the order the wire delivers them in.
//   - The alphanumeric protocol re-initializes per CCM row; a chunk call
//     (AlphaThirdPartyChunk, alpha.go) draws the chunk's longest mask
//     prefix (a prefix of the monolithic pass's longest prefix, so the
//     shared values are identical) and leaves jt rewound.
//
// In all three cases, evaluating every chunk of a pair on one jt stream,
// in schedule order, yields blocks bit-identical to the monolithic
// evaluation of the reassembled matrix — the property the session's
// differential tests pin.

// chunkShape validates that a received chunk matrix covers exactly the
// scheduled row range.
func chunkShape(got, lo, hi int) error {
	if hi < lo {
		return fmt.Errorf("protocol: inverted chunk row range [%d,%d)", lo, hi)
	}
	if got != hi-lo {
		return fmt.Errorf("protocol: chunk carries %d rows, schedule range [%d,%d) wants %d", got, lo, hi, hi-lo)
	}
	return nil
}

// NumericThirdPartyFloatRows is Figure 6 restricted to rows [lo, hi) of the
// responder's S matrix held as a matrix — the container form of
// NumericThirdPartyFloatChunk, which the session runs.
func (e *Engine) NumericThirdPartyFloatRows(chunk *Float64Matrix, lo, hi int, jt rng.Stream, params FloatParams, mode Mode) (*Float64Matrix, error) {
	if err := chunkShape(chunk.Rows, lo, hi); err != nil {
		return nil, err
	}
	return e.NumericThirdPartyFloat(chunk, jt, params, mode)
}

// NumericChunk is a row range of a responder's S matrix as its frame
// carries it: Rows×Cols cells, row-major — 8 little-endian bytes of int64
// or float64 bits each, or a 32-byte field element. Cells aliases the
// received payload and is only read.
type NumericChunk struct {
	Rows, Cols int
	Cells      []byte
}

// RowFunc writes row r of an evaluated chunk — the distances between the
// responder's object lo+r and every initiator object — into dst, one
// element per chunk column: the shape dissim.SliceAssembler.SetCrossRowsInto
// installs from, so a distance is written once, where it stays. Calls for
// distinct rows may run concurrently; the function reads the engine's mask
// buffer and is dead once the engine is used again.
type RowFunc = func(r int, dst []float64) error

// row returns row r's cells, size bytes each, for the destination dst.
func (c NumericChunk) row(r, size int, dst []float64) []byte {
	if len(dst) != c.Cols {
		panic(fmt.Sprintf("protocol: destination row of %d cells for a chunk of %d columns", len(dst), c.Cols))
	}
	return c.Cells[size*r*c.Cols : size*(r+1)*c.Cols]
}

// covers validates that the chunk holds exactly rows [lo, hi) in cells of
// size bytes.
func (c NumericChunk) covers(lo, hi, size int) error {
	if err := chunkShape(c.Rows, lo, hi); err != nil {
		return err
	}
	if c.Cols < 0 || len(c.Cells) != size*c.Rows*c.Cols {
		return fmt.Errorf("protocol: inconsistent chunk %dx%d with %d bytes of %d-byte cells", c.Rows, c.Cols, len(c.Cells), size)
	}
	return nil
}

// NumericThirdPartyIntChunk is Figure 6 over rows [lo, hi) of the
// responder's S matrix where they arrived: the masks are regenerated at
// once (the alignment contract above applies) and the returned function
// strips them a row at a time, from the payload's cells straight into the
// caller's destination.
func (e *Engine) NumericThirdPartyIntChunk(c NumericChunk, lo, hi int, jt rng.Stream, params IntParams, mode Mode, axis Axis) (RowFunc, error) {
	if err := c.covers(lo, hi, 8); err != nil {
		return nil, err
	}
	masks, err := e.intMasks(jt, c.Rows, c.Cols, params, mode, axis)
	if err != nil {
		return nil, err
	}
	return func(r int, dst []float64) error {
		src, mask := c.row(r, 8, dst), maskRow(masks, r, c.Cols, mode, axis)
		if len(mask) == 1 {
			for n := range dst {
				dst[n] = float64(absInt64(int64(binary.LittleEndian.Uint64(src[8*n:])) - mask[0]))
			}
			return nil
		}
		for n := range dst {
			dst[n] = float64(absInt64(int64(binary.LittleEndian.Uint64(src[8*n:])) - mask[n]))
		}
		return nil
	}, nil
}

// NumericThirdPartyFloatChunk is the real-valued form of
// NumericThirdPartyIntChunk.
func (e *Engine) NumericThirdPartyFloatChunk(c NumericChunk, lo, hi int, jt rng.Stream, params FloatParams, mode Mode, axis Axis) (RowFunc, error) {
	if err := c.covers(lo, hi, 8); err != nil {
		return nil, err
	}
	masks, err := e.floatMasks(jt, c.Rows, c.Cols, params, mode, axis)
	if err != nil {
		return nil, err
	}
	return func(r int, dst []float64) error {
		src, mask := c.row(r, 8, dst), maskRow(masks, r, c.Cols, mode, axis)
		if len(mask) == 1 {
			for n := range dst {
				dst[n] = math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(src[8*n:])) - mask[0])
			}
			return nil
		}
		for n := range dst {
			dst[n] = math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(src[8*n:])) - mask[n])
		}
		return nil
	}, nil
}

// NumericThirdPartyModPChunk is the Z_p form of NumericThirdPartyIntChunk.
func (e *Engine) NumericThirdPartyModPChunk(c NumericChunk, lo, hi int, jt rng.Stream, mode Mode, axis Axis) (RowFunc, error) {
	if err := c.covers(lo, hi, 32); err != nil {
		return nil, err
	}
	masks := e.modpMasks(jt, c.Rows, c.Cols, mode, axis)
	return func(r int, dst []float64) error {
		src, mask := c.row(r, 32, dst), maskRow(masks, r, c.Cols, mode, axis)
		for n := range dst {
			abs, err := unmaskModP([32]byte(src[32*n:]), mask[min(n, len(mask)-1)], r, n)
			if err != nil {
				return err
			}
			dst[n] = float64(abs)
		}
		return nil
	}, nil
}

// AdvanceThirdPartyInt positions jt for a third party that evaluates only
// rows [rows, ·) of one pair block with cols columns: it draws and discards
// what the first `rows` rows take of the stream — rows·cols masks in
// PerPair mode, one per row in Batch mode with the initiator on the row
// axis (via the same FillInt64n the evaluation uses, so rejection-sampled
// word consumption is identical) — leaving jt at the exact keystream
// position the monolithic pass would have reached. Batch evaluation with
// the initiator on the columns, and alphanumeric evaluation, rewind jt per
// chunk and need no positioning: the call is a no-op, as it is at row 0.
// This is the entry point for TP shards whose row range starts mid-block,
// and for the share of a block that starts at its split row.
func (e *Engine) AdvanceThirdPartyInt(jt rng.Stream, rows, cols int, params IntParams, mode Mode, axis Axis) {
	if n := advanceDraws(rows, cols, mode, axis); n > 0 {
		rng.FillInt64n(jt, e.i64buf(n), params.MaskRange)
	}
}

// AdvanceThirdPartyFloat is the real-valued form of AdvanceThirdPartyInt.
func (e *Engine) AdvanceThirdPartyFloat(jt rng.Stream, rows, cols int, params FloatParams, mode Mode, axis Axis) {
	if n := advanceDraws(rows, cols, mode, axis); n > 0 {
		rng.FillFloat64(jt, e.f64buf(n))
	}
}

// AdvanceThirdPartyModP is the Z_p form of AdvanceThirdPartyInt.
func (e *Engine) AdvanceThirdPartyModP(jt rng.Stream, rows, cols int, mode Mode, axis Axis) {
	for i := advanceDraws(rows, cols, mode, axis); i > 0; i-- {
		modp.Random(jt)
	}
}

// advanceDraws is how many masks the first rows rows of a block take from
// a stream the evaluation reads on from one chunk to the next: none when it
// rewinds per chunk.
func advanceDraws(rows, cols int, mode Mode, axis Axis) int {
	if rows <= 0 || (mode == Batch && axis == InitiatorCols) {
		return 0
	}
	if axis == InitiatorRows {
		return rows * RowWidth(cols, mode)
	}
	return rows * cols
}

// AlphaThirdPartyRows is AlphaThirdPartyChunk in per-pair form: chunk must
// hold exactly rows [lo, hi) of the responder's intermediary-matrix block
// (one row of per-initiator matrices per responder string).
func (e *Engine) AlphaThirdPartyRows(chunk [][]*SymbolMatrix, lo, hi int, a *alphabet.Alphabet, jt rng.Stream) (*Int64Matrix, error) {
	if err := chunkShape(len(chunk), lo, hi); err != nil {
		return nil, err
	}
	return e.AlphaThirdParty(chunk, a, jt)
}
