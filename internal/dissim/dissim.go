// Package dissim implements the dissimilarity matrix — the object-by-object
// structure at the heart of the İnan et al. protocol — together with the
// paper's local construction (Figure 12), global assembly (Figure 11),
// max-normalization and weighted multi-attribute merging.
//
// A dissimilarity matrix is symmetric with a zero diagonal, so only the
// entries below the diagonal are stored (paper Figure 2): d[i][j] with
// i > j lives at packed index i(i−1)/2 + j.
package dissim

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"ppclust/internal/parallel"
)

// Matrix is a symmetric object-by-object dissimilarity matrix with zero
// diagonal, stored as a packed lower triangle.
//
// The matrix carries a maximum-entry cache so that Normalize — the final
// step of the paper's Figure 11 — needs no separate Max pass when the
// matrix came out of one of the package's builders (FromLocal,
// FromPacked, WeightedMerge, the assemblers): those fuse max tracking into
// the construction pass they already make. Set keeps the cache alive on
// the grow-from-zero write patterns the builders use and invalidates it
// otherwise.
type Matrix struct {
	n    int
	cell []float64

	maxOK    bool
	maxCache float64
}

// New allocates an n×n zero matrix.
func New(n int) *Matrix {
	if n < 0 {
		panic(fmt.Sprintf("dissim: negative size %d", n))
	}
	return &Matrix{n: n, cell: make([]float64, n*(n-1)/2), maxOK: true}
}

// N returns the number of objects.
func (m *Matrix) N() int { return m.n }

func (m *Matrix) index(i, j int) int {
	if i < 0 || j < 0 || i >= m.n || j >= m.n {
		panic(fmt.Sprintf("dissim: index (%d,%d) out of range for n=%d", i, j, m.n))
	}
	if j > i {
		i, j = j, i
	}
	return i*(i-1)/2 + j
}

// At returns d[i][j]. The diagonal is always 0.
func (m *Matrix) At(i, j int) float64 {
	if i == j {
		m.index(i, j) // bounds check
		return 0
	}
	return m.cell[m.index(i, j)]
}

// Row gathers row i — d[i][j] for every j, the diagonal's 0 included —
// into dst, grown to N when it is shorter, and returns it. By symmetry it
// is column i too: one pass reads what N calls to At(j, i) would, the
// cells below the diagonal as one contiguous run.
func (m *Matrix) Row(dst []float64, i int) []float64 {
	m.index(i, i) // bounds check
	dst = slices.Grow(dst[:0], m.n)[:m.n]
	copy(dst, m.cell[i*(i-1)/2:i*(i+1)/2])
	dst[i] = 0
	at := i*(i+1)/2 + i // index(i+1, i)
	for j := i + 1; j < m.n; j++ {
		dst[j] = m.cell[at]
		at += j
	}
	return dst
}

// Set assigns d[i][j] = d[j][i] = v. Diagonal entries may only be set to 0;
// negative or non-finite dissimilarities are rejected by panic, as they
// indicate a protocol-layer bug rather than a recoverable condition.
func (m *Matrix) Set(i, j int, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		panic(fmt.Sprintf("dissim: invalid dissimilarity %v at (%d,%d)", v, i, j))
	}
	if i == j {
		m.index(i, j)
		if v != 0 {
			panic(fmt.Sprintf("dissim: nonzero diagonal %v at %d", v, i))
		}
		return
	}
	idx := m.index(i, j)
	old := m.cell[idx]
	m.cell[idx] = v
	if m.maxOK {
		if v >= m.maxCache {
			m.maxCache = v
		} else if old == m.maxCache {
			// The overwritten entry may have been the unique maximum.
			m.maxOK = false
		}
	}
}

// Max returns the largest entry (0 for matrices with fewer than 2
// objects). Builders prime a cache during their construction pass, so
// the usual construct-then-Normalize sequence needs no extra scan. When
// the cache was invalidated by Set, Max rescans WITHOUT storing — the
// method stays a pure read, safe for concurrent callers on a quiescent
// matrix, exactly as before the cache existed.
func (m *Matrix) Max() float64 {
	if m.maxOK {
		return m.maxCache
	}
	max := 0.0
	for _, v := range m.cell {
		if v > max {
			max = v
		}
	}
	return max
}

// setMax primes the cache from a builder that tracked the maximum during
// its construction pass.
func (m *Matrix) setMax(max float64) {
	m.maxCache, m.maxOK = max, true
}

// FoldMax raises the maximum cache to v: how a builder that wrote cells in
// place — through PackedRowsView, which bypasses the cache — and
// tracked their maximum itself hands that maximum over, once no write is
// running. Without it Max and Normalize would trust a cache that never saw
// those cells.
func (m *Matrix) FoldMax(v float64) {
	if m.maxOK && v > m.maxCache {
		m.maxCache = v
	}
}

// Normalize scales all entries into [0, 1] by dividing by the maximum
// entry, the final step of the paper's Figure 11 ("d[m][n] = d[m][n] /
// maximum value in d"). A zero matrix is left unchanged. It returns the
// maximum that was used, so callers can report the scale.
func (m *Matrix) Normalize() float64 {
	return m.NormalizePar(1)
}

// NormalizePar is Normalize over the given worker count (<= 0 = all
// cores). Scaling is element-wise, so the result is bit-identical at any
// worker count.
func (m *Matrix) NormalizePar(workers int) float64 {
	max := m.Max()
	if max == 0 {
		return 0
	}
	parallel.Range(parallel.Workers(workers), len(m.cell), func(_, lo, hi int) {
		cells := m.cell[lo:hi]
		for i := range cells {
			cells[i] /= max
		}
	})
	m.setMax(1)
	return max
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.n)
	copy(c.cell, m.cell)
	c.maxOK, c.maxCache = m.maxOK, m.maxCache
	return c
}

// EqualWithin reports whether the two matrices have the same size and all
// entries within tol of each other.
func (m *Matrix) EqualWithin(o *Matrix, tol float64) bool {
	if m.n != o.n {
		return false
	}
	for i := range m.cell {
		if math.Abs(m.cell[i]-o.cell[i]) > tol {
			return false
		}
	}
	return true
}

// MaxDifference returns the largest absolute entry-wise difference between
// two same-sized matrices, for accuracy reporting.
func (m *Matrix) MaxDifference(o *Matrix) (float64, error) {
	if m.n != o.n {
		return 0, fmt.Errorf("dissim: size mismatch %d vs %d", m.n, o.n)
	}
	max := 0.0
	for i := range m.cell {
		if d := math.Abs(m.cell[i] - o.cell[i]); d > max {
			max = d
		}
	}
	return max, nil
}

// String renders the lower triangle, for small matrices in examples and
// debugging output.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.n; i++ {
		for j := 0; j <= i; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%6.3f", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Packed returns a copy of the packed lower triangle, the wire form in
// which data holders send local matrices to the third party.
func (m *Matrix) Packed() []float64 {
	return append([]float64(nil), m.cell...)
}

// PackedView returns the packed lower triangle without copying. The slice
// aliases the matrix storage: callers must treat it as read-only and must
// not retain it past the matrix's next mutation. It exists for the wire
// path, where a holder serializes a local matrix it is about to discard.
func (m *Matrix) PackedView() []float64 {
	return m.cell
}

// PackedRowsView returns the packed cells of rows [lo, hi) without copying —
// the row-range form of PackedView that the chunked local-matrix wire path
// serializes one bounded frame at a time. Row i's cells occupy packed
// indices [i(i−1)/2, i(i−1)/2+i), so a row range is one contiguous run.
// The same aliasing rules as PackedView apply, with one exception: a shard
// of the third party assembles its rows of the matrix in place through
// this view (NewSliceAssemblerInto), and then hands their maximum over
// with FoldMax.
func (m *Matrix) PackedRowsView(lo, hi int) []float64 {
	if lo < 0 || hi < lo || hi > m.n {
		panic(fmt.Sprintf("dissim: row range [%d,%d) out of range for n=%d", lo, hi, m.n))
	}
	return m.cell[lo*(lo-1)/2 : hi*(hi-1)/2]
}

// RowChunksRange splits the triangle rows [lo, hi) of a packed matrix into
// contiguous sub-ranges of at most maxCells packed cells each (minimum one
// row per chunk, so a single row larger than maxCells still travels whole —
// rows are the installation granularity). It is the shared chunk schedule
// of the streaming wire path: sender and receiver derive the identical
// partition from (lo, hi, maxCells) alone, so the receiver knows every
// chunk's row range and count up front. A whole triangle is the range
// [0, n); a shard's share of one is the holder-local intersection with the
// shard's rows. An empty range yields one empty chunk — callers that want
// zero frames for an empty range skip it before scheduling.
func RowChunksRange(lo, hi, maxCells int) [][2]int {
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	if maxCells < 1 {
		maxCells = 1
	}
	var chunks [][2]int
	clo, cells := lo, 0
	for i := lo; i < hi; i++ {
		if i > clo && cells+i > maxCells {
			chunks = append(chunks, [2]int{clo, i})
			clo, cells = i, 0
		}
		cells += i // row i holds i packed cells
	}
	return append(chunks, [2]int{clo, hi})
}

// RectChunksRange splits rows [lo, hi) of a dense ·×cols matrix — the
// shape of the pairwise protocol's S/M payloads — into contiguous row
// ranges of at most maxCells cells each (minimum one row per chunk, so a
// single row wider than maxCells still travels whole: rows are the
// evaluation and installation granularity). Like RowChunksRange it is a
// shared schedule: sender and receiver derive the identical partition from
// (lo, hi, cols, maxCells) alone. An empty range yields one empty chunk;
// cols <= 0 puts every row in a single chunk, since rows carry no cells.
func RectChunksRange(lo, hi, cols, maxCells int) [][2]int {
	if lo < 0 {
		lo = 0
	}
	if hi < lo {
		hi = lo
	}
	per := rectRowsPerChunk(hi-lo, cols, maxCells)
	chunks := make([][2]int, 0, (hi-lo+per-1)/per)
	for c := lo; c < hi; c += per {
		h := c + per
		if h > hi {
			h = hi
		}
		chunks = append(chunks, [2]int{c, h})
	}
	if len(chunks) == 0 {
		chunks = [][2]int{{lo, lo}}
	}
	return chunks
}

// RectChunkCountRange returns len(RectChunksRange(lo, hi, cols, maxCells))
// without materializing the schedule. The lane frame counts need only the
// frame count per pair, and computing it arithmetically keeps counting
// allocation-free even at one-row chunk schedules.
func RectChunkCountRange(lo, hi, cols, maxCells int) int {
	if lo < 0 {
		lo = 0
	}
	if hi <= lo {
		return 1
	}
	per := rectRowsPerChunk(hi-lo, cols, maxCells)
	return (hi - lo + per - 1) / per
}

// rectRowsPerChunk is the rows-per-chunk derivation RectChunksRange and
// RectChunkCountRange must share: the frame count a relay computes from the
// count and the schedule a sender walks diverging would stall the session,
// so there is exactly one copy of the arithmetic. Always at least 1.
func rectRowsPerChunk(rows, cols, maxCells int) int {
	if maxCells < 1 {
		maxCells = 1
	}
	per := rows
	if cols > 0 {
		per = maxCells / cols
	}
	if per < 1 {
		per = 1
	}
	return per
}

// FromPacked reconstructs an n-object matrix from its packed lower
// triangle, validating length and entry ranges. The validation pass
// doubles as the max pass, so a later Normalize scans nothing.
func FromPacked(n int, cells []float64) (*Matrix, error) {
	if n < 0 {
		return nil, fmt.Errorf("dissim: negative size %d", n)
	}
	if len(cells) != n*(n-1)/2 {
		return nil, fmt.Errorf("dissim: %d cells for n=%d, want %d", len(cells), n, n*(n-1)/2)
	}
	max := 0.0
	for i, v := range cells {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("dissim: invalid packed entry %v at %d", v, i)
		}
		if v > max {
			max = v
		}
	}
	m := New(n)
	copy(m.cell, cells)
	m.setMax(max)
	return m, nil
}

// FromLocal is the paper's Figure 12: build a local dissimilarity matrix
// for n objects from a pairwise distance function. The distance function is
// consulted only for i > j.
func FromLocal(n int, dist func(i, j int) float64) *Matrix {
	return FromLocalPar(n, 1, func(int) func(i, j int) float64 { return dist })
}

// FromLocalPar is Figure 12 over the parallel engine: the packed cell
// range is split into contiguous chunks, one per worker, and newDist is
// invoked once per worker so distance functions can carry private scratch
// (the alphanumeric edit distance's match table). Every cell's value depends
// only on its own (i, j), so output is bit-identical at any worker count.
// The construction pass tracks the maximum entry, fusing the Max scan
// Normalize would otherwise need.
func FromLocalPar(n, workers int, newDist func(worker int) func(i, j int) float64) *Matrix {
	m := New(n)
	m.setMax(fillLocalRows(m.cell, 0, workers, newDist))
	return m
}

// AppendLocalRowsLE is FromLocalPar for triangle rows [lo, hi) alone,
// appended to dst as a frame carries them: their packed cells, in the
// order PackedRowsView(lo, hi) of the whole matrix would show them, each
// 8 little-endian bytes of float64 bits. A holder streaming its triangle
// a chunk at a time computes each chunk straight into its frame and holds
// no cells of its own. The cells are split across workers as FromLocalPar
// splits them, and each worker stages a bounded run of cells on its stack
// before it encodes them.
func AppendLocalRowsLE(dst []byte, lo, hi, workers int, newDist func(worker int) func(i, j int) float64) []byte {
	if lo < 0 || hi < lo {
		panic(fmt.Sprintf("dissim: invalid row range [%d,%d)", lo, hi))
	}
	base := lo * (lo - 1) / 2
	n := hi*(hi-1)/2 - base
	out := slices.Grow(dst, 8*n)[:len(dst)+8*n]
	tail := out[len(dst):]
	parallel.Range(workers, n, func(w, clo, chi int) {
		dist := newDist(w)
		var stage [512]float64
		for k := clo; k < chi; k += len(stage) {
			cells := stage[:min(len(stage), chi-k)]
			fillLocalCells(cells, base+k, dist)
			for c, v := range cells {
				binary.LittleEndian.PutUint64(tail[8*(k+c):], math.Float64bits(v))
			}
		}
	})
	return out
}

// fillLocalRows computes the packed cells [base, base+len(cells)) of a
// local triangle into cells and returns their maximum.
func fillLocalRows(cells []float64, base, workers int, newDist func(worker int) func(i, j int) float64) float64 {
	return parallel.MaxRange(workers, len(cells), func(w, lo, hi int) float64 {
		return fillLocalCells(cells[lo:hi], base+lo, newDist(w))
	})
}

// fillLocalCells is one worker's share: the cells from packed index k on.
func fillLocalCells(cells []float64, k int, dist func(i, j int) float64) float64 {
	i, j := parallel.PairOf(k)
	max := 0.0
	for k := range cells {
		v := dist(i, j)
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			panic(fmt.Sprintf("dissim: invalid dissimilarity %v at (%d,%d)", v, i, j))
		}
		cells[k] = v
		if v > max {
			max = v
		}
		j++
		if j == i {
			i++
			j = 0
		}
	}
	return max
}

// NormalizeWeights validates a weight vector for a merge of `matrices`
// attribute matrices — one finite non-negative weight each, positive sum —
// and returns wᵢ / Σ wᵢ, the coefficients WeightedMerge applies. Two
// vectors with the same normalised bits merge to the same matrix.
func NormalizeWeights(weights []float64, matrices int) ([]float64, error) {
	if len(weights) != matrices {
		return nil, fmt.Errorf("dissim: %d weights for %d matrices", len(weights), matrices)
	}
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("dissim: invalid weight %v at %d", w, i)
		}
		sum += w
	}
	if sum == 0 {
		return nil, fmt.Errorf("dissim: weights sum to zero")
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / sum
	}
	return norm, nil
}

// WeightedMerge combines per-attribute dissimilarity matrices into the
// final matrix using the data holders' weight vector (paper Section 5):
// result = Σ wᵢ·dᵢ / Σ wᵢ. Weights must be non-negative with a positive
// sum; matrices must agree in size.
func WeightedMerge(ms []*Matrix, weights []float64) (*Matrix, error) {
	return WeightedMergePar(ms, weights, 1)
}

// WeightedMergePar is WeightedMerge over the parallel engine (<= 0 = all
// cores). Each output cell is the same left-to-right weighted sum the
// serial form computes, evaluated independently per cell, so results are
// bit-identical at any worker count. The merge pass tracks the maximum,
// fusing the scan a following Normalize would make.
func WeightedMergePar(ms []*Matrix, weights []float64, workers int) (*Matrix, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("dissim: no matrices to merge")
	}
	norm, err := NormalizeWeights(weights, len(ms))
	if err != nil {
		return nil, err
	}
	n := ms[0].n
	for i, mi := range ms {
		if mi.n != n {
			return nil, fmt.Errorf("dissim: matrix %d has %d objects, want %d", i, mi.n, n)
		}
	}
	out := New(n)
	max := parallel.MaxRange(workers, len(out.cell), func(_, lo, hi int) float64 {
		chunkMax := 0.0
		for c := lo; c < hi; c++ {
			v := 0.0
			for i := range ms {
				v += norm[i] * ms[i].cell[c]
			}
			out.cell[c] = v
			if v > chunkMax {
				chunkMax = v
			}
		}
		return chunkMax
	})
	out.setMax(max)
	return out, nil
}
