// Package protocol implements the İnan et al. privacy-preserving comparison
// protocols — the paper's primary contribution.
//
// Three protocols are provided, one per attribute type, each decomposed into
// one pure function per participating site so that every pseudocode figure
// of the paper corresponds to exactly one Go function:
//
//   - numeric (Section 4.1): NumericInitiator* (Figure 4, site DHJ),
//     NumericResponder* (Figure 5, site DHK), NumericThirdParty* (Figure 6,
//     site TP); in int64, float64 and mod-p arithmetic, each in batch or
//     per-pair masking mode. Those per-pair forms are the reference for
//     the session's forms, which run a row range at a time on the cells
//     the frames carry through one Numeric value — Disguise, Combine,
//     Strip and Advance (see session.go);
//   - alphanumeric (Section 4.2): AlphaInitiator (Figure 8),
//     AlphaResponder (Figure 9), AlphaThirdParty (Figure 10). Those
//     per-pair forms, over one SymbolMatrix per string pair, are
//     containers over the two kernels the session runs chunk by chunk on
//     an AlphaChunk's cell slab — AlphaResponderChunk and
//     AlphaThirdPartyChunk (see alpha.go);
//   - categorical (Section 4.3): CategoricalEncryptColumn and
//     CategoricalDistances.
//
// The functions communicate only through their returned values, which the
// orchestration layer (internal/party) moves between sites over
// internal/wire channels. Keeping the steps pure makes each site's
// computation independently testable against the plaintext reference.
package protocol

import "fmt"

// Int64Matrix is a dense row-major matrix of int64, the shape exchanged by
// the integer numeric protocol's per-pair forms.
type Int64Matrix struct {
	Rows, Cols int
	Cell       []int64
}

// NewInt64Matrix allocates a zeroed rows×cols matrix.
func NewInt64Matrix(rows, cols int) *Int64Matrix {
	checkDims(rows, cols)
	return &Int64Matrix{Rows: rows, Cols: cols, Cell: make([]int64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Int64Matrix) At(i, j int) int64 { return m.Cell[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Int64Matrix) Set(i, j int, v int64) { m.Cell[i*m.Cols+j] = v }

// Validate checks storage consistency, for matrices received off the wire.
func (m *Int64Matrix) Validate() error {
	if m.Rows < 0 || m.Cols < 0 || len(m.Cell) != m.Rows*m.Cols {
		return fmt.Errorf("protocol: inconsistent Int64Matrix %dx%d with %d cells", m.Rows, m.Cols, len(m.Cell))
	}
	return nil
}

// Float64Matrix is a dense row-major matrix of float64, exchanged by the
// real-valued numeric protocol.
type Float64Matrix struct {
	Rows, Cols int
	Cell       []float64
}

// NewFloat64Matrix allocates a zeroed rows×cols matrix.
func NewFloat64Matrix(rows, cols int) *Float64Matrix {
	checkDims(rows, cols)
	return &Float64Matrix{Rows: rows, Cols: cols, Cell: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Float64Matrix) At(i, j int) float64 { return m.Cell[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Float64Matrix) Set(i, j int, v float64) { m.Cell[i*m.Cols+j] = v }

// Validate checks storage consistency.
func (m *Float64Matrix) Validate() error {
	if m.Rows < 0 || m.Cols < 0 || len(m.Cell) != m.Rows*m.Cols {
		return fmt.Errorf("protocol: inconsistent Float64Matrix %dx%d with %d cells", m.Rows, m.Cols, len(m.Cell))
	}
	return nil
}

func checkDims(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("protocol: negative matrix dimensions %dx%d", rows, cols))
	}
}
