// Package protocol implements the İnan et al. privacy-preserving comparison
// protocols — the paper's primary contribution — one protocol per
// attribute type, each step a function of the site that runs it:
//
//   - numeric (Section 4.1): Numeric, over int64, float64 or Z_p cells in
//     batch or per-pair masking mode — Disguise (Figure 4, site DHJ),
//     Combine (Figure 5, site DHK), Strip (Figure 6, site TP) and Advance,
//     each over a row range of the cells a frame carries (see session.go);
//   - alphanumeric (Section 4.2): the Engine's AlphaInitiator (Figure 8),
//     AlphaResponderChunk (Figure 9) and AlphaThirdPartyChunk (Figure 10),
//     the last two over an AlphaChunk's cell slab (see alpha.go);
//   - categorical (Section 4.3): CategoricalEncryptColumn and
//     CategoricalDistances.
//
// The functions communicate only through their returned values, which the
// orchestration layer (internal/party) moves between sites over
// internal/wire channels. Keeping the steps pure makes each site's
// computation independently testable against the plaintext reference and
// the paper's per-cell formula. The per-pair whole-matrix forms left —
// float64 Figures 4–6, AlphaResponder and AlphaThirdParty, and their row
// forms in rows.go — serve the benchmark's replay of a session, and the
// alphanumeric two the paper experiments that print one pair's matrix.
package protocol

import "fmt"

// Int64Matrix is a dense row-major matrix of int64: a block of alphanumeric
// or categorical distances.
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
// float64 whole-matrix forms of Figures 4–6.
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
