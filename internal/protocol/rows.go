package protocol

import (
	"fmt"

	"ppclust/internal/alphabet"
	"ppclust/internal/rng"
)

// Row-range third-party evaluation. A responder streams its masked S or M
// matrix to the third party as contiguous row-range chunks (the
// dissim.RectChunksRange schedule), and the third party evaluates each
// chunk the moment it arrives: Numeric.Strip (session.go) and
// AlphaThirdPartyChunk (alpha.go) are Figures 6 and 10 over the rows
// [lo, hi) of one chunk. The two methods below are the same over a chunk
// held as a per-pair matrix; the benchmark's replay of a session
// (benchmark/replay.go) is their only production caller, and they go with
// it (ROADMAP.md, item 0(b)).
//
// Per-chunk mask alignment keeps the keystreams bit-identical to one pass
// over the whole block:
//
//   - Batch mode re-initializes the shared generator at every row boundary
//     (the paper's per-row Reseed discipline), so every row of every chunk
//     consumes the same stream prefix. Each chunk call draws that prefix
//     and leaves jt rewound; chunks may in principle be evaluated in any
//     order.
//   - PerPair mode consumes one fresh mask per matrix cell, row-major,
//     with no re-initialization. A chunk call advances jt by exactly its
//     own rows·cols draws, so evaluating the chunks of one pair in
//     ascending row order on one shared jt stream consumes the keystream
//     positions one pass over the block would. Callers MUST therefore
//     feed chunks in schedule order — the order the wire delivers them in.
//   - The alphanumeric protocol re-initializes per CCM row; a chunk call
//     draws the chunk's longest mask prefix (a prefix of the block's
//     longest, so the shared values are identical) and leaves jt rewound.

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
// responder's S matrix held as a float64 matrix. Its only production
// caller is benchmark/replay.go; it goes with the replay (ROADMAP.md, item
// 0(b)). Sessions run Numeric.Strip.
func (e *Engine) NumericThirdPartyFloatRows(chunk *Float64Matrix, lo, hi int, jt rng.Stream, params FloatParams, mode Mode) (*Float64Matrix, error) {
	if err := chunkShape(chunk.Rows, lo, hi); err != nil {
		return nil, err
	}
	return e.NumericThirdPartyFloat(chunk, jt, params, mode)
}

// AlphaThirdPartyRows is AlphaThirdPartyChunk in per-pair form: chunk must
// hold exactly rows [lo, hi) of the responder's intermediary-matrix block
// (one row of per-initiator matrices per responder string). Its only
// production caller is benchmark/replay.go; it goes with the replay
// (ROADMAP.md, item 0(b)).
func (e *Engine) AlphaThirdPartyRows(chunk [][]*SymbolMatrix, lo, hi int, a *alphabet.Alphabet, jt rng.Stream) (*Int64Matrix, error) {
	if err := chunkShape(len(chunk), lo, hi); err != nil {
		return nil, err
	}
	return e.AlphaThirdParty(chunk, a, jt)
}
