package protocol

import (
	"fmt"

	"ppclust/internal/alphabet"
	"ppclust/internal/rng"
)

// Row-range third-party evaluation — the engine side of the chunked
// pairwise wire path. A responder streams its masked S/M matrix to the
// third party as contiguous row-range chunks (dissim.RectChunksRange schedule),
// and the third party evaluates each chunk the moment it arrives instead
// of waiting for the whole payload. Numeric.Strip (session.go) and
// AlphaThirdPartyChunk (alpha.go) are the row-exact forms of Figures 6 and
// 10, and the methods below their per-pair containers: each takes one
// chunk (rows [lo, hi) of the full matrix) and returns that range's
// decoded distance block.
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
// Numeric.Strip, which the session runs.
func (e *Engine) NumericThirdPartyFloatRows(chunk *Float64Matrix, lo, hi int, jt rng.Stream, params FloatParams, mode Mode) (*Float64Matrix, error) {
	if err := chunkShape(chunk.Rows, lo, hi); err != nil {
		return nil, err
	}
	return e.NumericThirdPartyFloat(chunk, jt, params, mode)
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
