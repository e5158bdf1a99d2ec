package dissim

import (
	"encoding/binary"
	"fmt"
	"math"

	"ppclust/internal/parallel"
)

// SliceAssembler realizes the third party's side of the paper's Figure 11
// for the global rows [lo, hi) of the condensed matrix: it collects each
// data holder's local dissimilarity rows and, for every holder pair (J, K)
// with K > J, the rows of the cross-party block produced by the comparison
// protocol, over the concatenated object ordering (party 0's objects first,
// then party 1's, …). Because row i of the packed lower triangle occupies
// the contiguous run [i(i−1)/2, i(i−1)/2+i), a row range is one contiguous
// slice of the condensed matrix: a TP shard assembles its own slice, and
// the whole matrix is the range [0, total) (Assembler).
//
// Cross blocks arrive with the later party's objects as rows and the
// earlier party's as columns — exactly the J_K orientation the protocol's
// third-party step outputs — so every block lands below the diagonal and
// row m of a block is one contiguous run of cells, placed whole and split
// across workers for the O(n²) cross blocks. Placement tracks the running
// maximum, so the Normalize that follows needs no Max pass of its own.
//
// The expected sources are exactly those whose data intersects the range:
// party p's local triangle contributes its rows [lo, hi) ∩ [off_p,
// off_p+n_p), and pair (j, k), j < k, contributes the responder rows
// [lo, hi) ∩ [off_k, off_k+n_k) — as one source, or, once SplitCross has
// cut the block at a responder row, as two: the rows below the cut and the
// rows from it on. A source with no rows in range installs nothing. Chunks
// must arrive in ascending row order per source (the order every chunk
// schedule emits and a lane reader preserves), each row exactly
// once; overlaps, gaps, re-installs and out-of-range rows are rejected.
//
// Installs into distinct sources may run concurrently — their rows are
// disjoint, and each source keeps its own cursor and running maximum,
// folded together by Done — while the sources themselves, splits included,
// are fixed before the first install.
type SliceAssembler struct {
	sizes   []int
	offsets []int
	lo, hi  int
	base    int // packed index of row lo: lo(lo-1)/2
	cells   []float64
	workers int

	local []*cursor                // by party; nil without rows in range
	cross map[[2]int]*crossSources // by (k, j)

	done bool
}

// cursor is one source's install state: the next expected holder-local
// row, the end of its span, and the largest entry it has installed.
type cursor struct {
	next, want int
	max        float64
}

// crossSources are the sources of one cross block: the responder rows
// below split and those from split on (split is the block's row count
// until SplitCross moves it).
type crossSources struct {
	split  int
	shares [2]cursor
}

// NewSliceAssembler prepares assembly of global rows [lo, hi) for parties
// with the given object counts, running block installs over workers
// (<= 0 = all cores).
func NewSliceAssembler(counts []int, lo, hi, workers int) (*SliceAssembler, error) {
	return NewSliceAssemblerInto(nil, counts, lo, hi, workers)
}

// NewSliceAssemblerInto is NewSliceAssembler assembling into dst, the
// packed cells of rows [lo, hi) — typically the PackedRowsView of the
// matrix the slice belongs to, so the slice is built where it lies and
// Done hands back dst itself. Every cell of dst is written before Done
// succeeds. A nil dst allocates the slice.
func NewSliceAssemblerInto(dst []float64, counts []int, lo, hi, workers int) (*SliceAssembler, error) {
	total := 0
	offsets := make([]int, len(counts))
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("dissim: negative count %d for party %d", c, i)
		}
		offsets[i] = total
		total += c
	}
	if lo < 0 || hi < lo || hi > total {
		return nil, fmt.Errorf("dissim: shard range [%d,%d) out of range for %d objects", lo, hi, total)
	}
	cells := hi*(hi-1)/2 - lo*(lo-1)/2
	if dst == nil {
		dst = make([]float64, cells)
	} else if len(dst) != cells {
		return nil, fmt.Errorf("dissim: %d cells to assemble rows [%d,%d) into, want %d", len(dst), lo, hi, cells)
	}
	a := &SliceAssembler{
		sizes:   append([]int(nil), counts...),
		offsets: offsets,
		lo:      lo,
		hi:      hi,
		base:    lo * (lo - 1) / 2,
		cells:   dst,
		workers: parallel.Workers(workers),
		local:   make([]*cursor, len(counts)),
		cross:   make(map[[2]int]*crossSources),
	}
	for p := range counts {
		plo, phi := a.PartyRows(p)
		if plo >= phi {
			continue
		}
		a.local[p] = &cursor{next: plo, want: phi}
		for j := 0; j < p; j++ {
			a.cross[[2]int{p, j}] = &crossSources{split: counts[p], shares: [2]cursor{{next: plo, want: phi}, {next: phi, want: phi}}}
		}
	}
	return a, nil
}

// SplitCross cuts the block of pair (j, k), k > j, at responder row at:
// from then on its rows below at and its rows from at on are two sources,
// each with its own ascending cursor, which may install concurrently. It
// must come before the block's first install; a block without rows in the
// range has nothing to cut.
func (a *SliceAssembler) SplitCross(j, k, at int) error {
	if j < 0 || k >= len(a.sizes) || k <= j {
		return fmt.Errorf("dissim: invalid pair (%d,%d)", j, k)
	}
	if at < 0 || at > a.sizes[k] {
		return fmt.Errorf("dissim: split row %d outside the %d rows of pair (%d,%d)", at, a.sizes[k], j, k)
	}
	src := a.cross[[2]int{k, j}]
	if src == nil {
		return nil
	}
	plo, phi := a.PartyRows(k)
	if src.shares[0].next != plo || src.shares[1].next != phi {
		return fmt.Errorf("dissim: pair (%d,%d) split after its first install", j, k)
	}
	cut := min(max(at, plo), phi)
	src.split = at
	src.shares = [2]cursor{{next: plo, want: cut}, {next: cut, want: phi}}
	return nil
}

// PartyRows returns party p's holder-local row range that falls inside
// the assembler's global row range (empty when the party's rows fall
// outside it): the span p's local triangle covers with SetLocalRows and,
// as a responder, each of its pair blocks covers with SetCrossRows.
func (a *SliceAssembler) PartyRows(p int) (lo, hi int) {
	if p < 0 || p >= len(a.sizes) {
		return 0, 0
	}
	off, n := a.offsets[p], a.sizes[p]
	lo, hi = a.lo-off, a.hi-off
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// SetLocalRows installs rows [lo, hi) of party p's local triangle from
// their packed cells (holder-local indices; see Matrix.PackedRowsView) —
// called once per arriving chunk, so assembly of a triangle starts with its
// first rows rather than after the last. Entries are validated like
// FromPacked since they come straight off the wire. The range must continue
// the party's ascending install cursor and stay within its span.
func (a *SliceAssembler) SetLocalRows(p, lo, hi int, cells []float64) error {
	return a.setLocalRows(p, lo, hi, len(cells), func(dst []float64, at int) { copy(dst, cells[at:]) })
}

// SetLocalRowsLE is SetLocalRows over the cells as a frame carries them —
// 8 little-endian bytes of float64 bits each — decoded straight into the
// assembled rows, with no []float64 of the chunk in between. cells is only
// read.
func (a *SliceAssembler) SetLocalRowsLE(p, lo, hi int, cells []byte) error {
	if len(cells)%8 != 0 {
		return fmt.Errorf("dissim: %d trailing bytes after the last cell of party %d rows [%d,%d)", len(cells)%8, p, lo, hi)
	}
	return a.setLocalRows(p, lo, hi, len(cells)/8, func(dst []float64, at int) {
		for c := range dst {
			dst[c] = math.Float64frombits(binary.LittleEndian.Uint64(cells[8*(at+c):]))
		}
	})
}

// setLocalRows checks the chunk against the party's cursor and has fill
// write each row — the chunk's cells from index at on — into place, where
// it is validated.
func (a *SliceAssembler) setLocalRows(p, lo, hi, n int, fill func(dst []float64, at int)) error {
	if a.done {
		return fmt.Errorf("dissim: assembler already completed")
	}
	if p < 0 || p >= len(a.sizes) {
		return fmt.Errorf("dissim: party %d out of range", p)
	}
	cur := a.local[p]
	if cur == nil {
		return fmt.Errorf("dissim: party %d has no local rows in [%d,%d)", p, a.lo, a.hi)
	}
	if lo != cur.next || hi < lo || hi > cur.want {
		return fmt.Errorf("dissim: local rows [%d,%d) for party %d: want next range starting at %d within [%d,%d)", lo, hi, p, cur.next, cur.next, cur.want)
	}
	srcBase := lo * (lo - 1) / 2
	if wantCells := hi*(hi-1)/2 - srcBase; n != wantCells {
		return fmt.Errorf("dissim: %d cells for local rows [%d,%d) of party %d, want %d", n, lo, hi, p, wantCells)
	}
	off := a.offsets[p]
	chunkMax := 0.0
	for i := lo; i < hi; i++ {
		gi, at := off+i, i*(i-1)/2-srcBase
		dst := a.cells[gi*(gi-1)/2+off-a.base:][:i]
		fill(dst, at)
		bad, rowMax := scanRow(dst)
		if bad >= 0 {
			return fmt.Errorf("dissim: invalid dissimilarity %v in party %d rows [%d,%d) at cell %d", dst[bad], p, lo, hi, at+bad)
		}
		chunkMax = max(chunkMax, rowMax)
	}
	cur.max = max(cur.max, chunkMax)
	cur.next = hi
	return nil
}

// scanRow returns the index of the first entry of an installed row that is
// not a dissimilarity — negative or non-finite — or −1, and the row's
// maximum.
func scanRow(row []float64) (bad int, rowMax float64) {
	for c, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return c, rowMax
		}
		if v > rowMax {
			rowMax = v
		}
	}
	return -1, rowMax
}

// SetCrossRows installs the decoded block of pair (j, k), k > j, covering
// responder k's holder-local rows [lo, hi), from a cell lookup: at is
// chunk-relative, at(r, c) being the distance between party k's object
// lo+r and party j's object c, matching the J_K matrix of Figures 6 and
// 10. See SetCrossRowsInto, whose contract it shares.
func (a *SliceAssembler) SetCrossRows(j, k, lo, hi int, at func(r, c int) float64) error {
	return a.SetCrossRowsInto(j, k, lo, hi, func(r int, dst []float64) error {
		for c := range dst {
			dst[c] = at(r, c)
		}
		return nil
	})
}

// SetCrossRowsInto installs rows [lo, hi) of the block of pair (j, k),
// k > j — called once per protocol chunk — by having row write each one
// where it belongs: row(r, dst) fills dst, one cell per object of party j,
// with the distances of party k's object lo+r, so an evaluation that can
// write its result anywhere writes it once. Rows are placed in parallel,
// so row must be safe for concurrent calls on distinct rows. Invalid
// entries — negative or non-finite, indicating a protocol-layer bug or a
// peer's bad cells — are reported as errors, and a refused chunk leaves
// its rows zero. The range must continue the pair's ascending install
// cursor.
func (a *SliceAssembler) SetCrossRowsInto(j, k, lo, hi int, row func(r int, dst []float64) error) error {
	if a.done {
		return fmt.Errorf("dissim: assembler already completed")
	}
	if j < 0 || k >= len(a.sizes) || k <= j {
		return fmt.Errorf("dissim: invalid pair (%d,%d)", j, k)
	}
	src := a.cross[[2]int{k, j}]
	if src == nil {
		return fmt.Errorf("dissim: pair (%d,%d) has no rows in [%d,%d)", j, k, a.lo, a.hi)
	}
	cur := &src.shares[0]
	if lo >= src.split {
		cur = &src.shares[1]
	}
	if lo != cur.next || hi < lo || hi > cur.want {
		return fmt.Errorf("dissim: cross rows [%d,%d) for pair (%d,%d): want next range starting at %d within [%d,%d)", lo, hi, j, k, cur.next, cur.next, cur.want)
	}
	offK, offJ, cols := a.offsets[k], a.offsets[j], a.sizes[j]
	blockMax, err := parallel.MaxRangeErr(a.workers, hi-lo, func(_, blo, bhi int) (float64, error) {
		chunkMax := 0.0
		for r := blo; r < bhi; r++ {
			gi := offK + lo + r
			dst := a.cells[gi*(gi-1)/2+offJ-a.base:][:cols]
			if err := row(r, dst); err != nil {
				return chunkMax, err
			}
			bad, rowMax := scanRow(dst)
			if bad >= 0 {
				return chunkMax, fmt.Errorf("dissim: invalid dissimilarity %v in cross block (%d,%d) at (%d,%d)", dst[bad], j, k, lo+r, bad)
			}
			chunkMax = max(chunkMax, rowMax)
		}
		return chunkMax, nil
	})
	if err != nil {
		for r := lo; r < hi; r++ {
			gi := offK + r
			clear(a.cells[gi*(gi-1)/2+offJ-a.base:][:cols])
		}
		return err
	}
	cur.max = max(cur.max, blockMax)
	cur.next = hi
	return nil
}

// Done verifies every expected source covered its span and returns the
// assembled packed slice of rows [lo, hi) together with its maximum
// entry. The slice aliases the assembler's storage.
func (a *SliceAssembler) Done() ([]float64, float64, error) {
	top := 0.0
	for p, cur := range a.local {
		if cur == nil {
			continue
		}
		if cur.next != cur.want {
			return nil, 0, fmt.Errorf("dissim: local rows of party %d incomplete: next %d, want %d", p, cur.next, cur.want)
		}
		top = max(top, cur.max)
	}
	for key, src := range a.cross {
		for _, cur := range src.shares {
			if cur.next != cur.want {
				return nil, 0, fmt.Errorf("dissim: cross rows of pair (%d,%d) incomplete: next %d, want %d", key[1], key[0], cur.next, cur.want)
			}
			top = max(top, cur.max)
		}
	}
	a.done = true
	return a.cells, top, nil
}

// Assembler is the full-range SliceAssembler: rows [0, total), whose
// finished slice is the whole condensed matrix. It installs through the
// same row-exact SetLocalRows/SetCrossRows.
type Assembler struct {
	*SliceAssembler
	global *Matrix
}

// NewAssembler prepares assembly for the given per-party object counts,
// in global party order, placing blocks serially.
func NewAssembler(sizes []int) (*Assembler, error) {
	return NewAssemblerPar(sizes, 1)
}

// NewAssemblerPar is NewAssembler with a worker count for block placement
// (<= 0 = all cores).
func NewAssemblerPar(sizes []int, workers int) (*Assembler, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("dissim: no parties")
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	sa, err := NewSliceAssembler(sizes, 0, total, workers)
	if err != nil {
		return nil, err
	}
	return &Assembler{SliceAssembler: sa}, nil
}

// SetLocal installs party p's whole local dissimilarity matrix in one
// call — the monolithic form of SetLocalRows. An empty party has nothing
// to install.
func (a *Assembler) SetLocal(p int, local *Matrix) error {
	if p < 0 || p >= len(a.sizes) {
		return fmt.Errorf("dissim: party %d out of range", p)
	}
	if local.N() != a.sizes[p] {
		return fmt.Errorf("dissim: party %d local matrix has %d objects, want %d", p, local.N(), a.sizes[p])
	}
	if local.N() == 0 {
		return nil
	}
	return a.SetLocalRows(p, 0, local.N(), local.cell)
}

// SetCross installs the whole protocol output block for the pair (j, k),
// k > j, in one call — the monolithic form of SetCrossRows. A pair whose
// responder k is empty has nothing to install.
func (a *Assembler) SetCross(j, k int, at func(m, n int) float64) error {
	if j < 0 || k >= len(a.sizes) || k <= j {
		return fmt.Errorf("dissim: invalid pair (%d,%d)", j, k)
	}
	if a.sizes[k] == 0 {
		return nil
	}
	return a.SetCrossRows(j, k, 0, a.sizes[k], at)
}

// Done verifies that every local matrix and every cross block has been
// installed and returns the assembled global matrix with its maximum
// already known. The matrix adopts the assembler's storage — no second
// triangle is allocated; repeated calls return the same matrix.
func (a *Assembler) Done() (*Matrix, error) {
	if a.global == nil {
		cells, max, err := a.SliceAssembler.Done()
		if err != nil {
			return nil, err
		}
		a.global = &Matrix{n: a.hi, cell: cells}
		a.global.setMax(max)
	}
	return a.global, nil
}
