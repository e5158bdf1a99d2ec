package dissim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestRowChunksInvariants: every schedule covers [0, n) contiguously with
// non-empty chunks (except the single degenerate chunk of n <= 1), each
// chunk stays within maxCells unless a single row alone exceeds it, and
// sender and receiver derive the identical schedule from (n, maxCells).
func TestRowChunksInvariants(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 64, 100, 257} {
		for _, maxCells := range []int{1, 7, 64, 511, 4096, 1 << 30} {
			chunks := RowChunksRange(0, n, maxCells)
			if len(chunks) == 0 {
				t.Fatalf("n=%d maxCells=%d: empty schedule", n, maxCells)
			}
			next := 0
			for ci, ch := range chunks {
				lo, hi := ch[0], ch[1]
				if lo != next {
					t.Fatalf("n=%d maxCells=%d: chunk %d starts at %d, want %d", n, maxCells, ci, lo, next)
				}
				if hi < lo || hi > n {
					t.Fatalf("n=%d maxCells=%d: chunk %d = [%d,%d) out of range", n, maxCells, ci, lo, hi)
				}
				if hi == lo && n > 0 {
					t.Fatalf("n=%d maxCells=%d: chunk %d empty", n, maxCells, ci)
				}
				cells := hi*(hi-1)/2 - lo*(lo-1)/2
				if cells > maxCells && hi-lo > 1 {
					t.Fatalf("n=%d maxCells=%d: chunk %d holds %d cells over %d rows", n, maxCells, ci, cells, hi-lo)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d maxCells=%d: schedule ends at %d", n, maxCells, next)
			}
		}
	}
	// Degenerate arguments normalize rather than panic.
	if got := RowChunksRange(-3, -5, 0); len(got) != 1 || got[0] != [2]int{0, 0} {
		t.Fatalf("RowChunksRange(-3, -5, 0) = %v", got)
	}
}

// chunkedInstall streams party p's local matrix into the assembler under
// the given schedule via SetLocalRows, using the same packed row views the
// wire path serializes. An empty party installs nothing, as on the wire.
func chunkedInstall(t *testing.T, a *Assembler, p int, local *Matrix, chunks [][2]int) {
	t.Helper()
	if local.N() == 0 {
		return
	}
	for _, ch := range chunks {
		if err := a.SetLocalRows(p, ch[0], ch[1], local.PackedRowsView(ch[0], ch[1])); err != nil {
			t.Fatalf("SetLocalRows(%d, %d, %d): %v", p, ch[0], ch[1], err)
		}
	}
}

// TestSetLocalRowsMatchesSetLocal is the property test of the streaming
// install: for every matrix size and every chunking — one row per chunk,
// a 4 KiB-of-cells bound, and the whole matrix in one chunk — the
// assembled cells and the Done-primed max are bit-identical to the
// monolithic SetLocal path.
func TestSetLocalRowsMatchesSetLocal(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 64} {
		sizes := []int{n, 5}
		locals := []*Matrix{
			FromLocal(n, func(i, j int) float64 { return synthDist(i, j) }),
			FromLocal(5, func(i, j int) float64 { return synthDist(i+2, j) + 0.5 }),
		}
		build := func(install func(a *Assembler, p int, local *Matrix)) *Matrix {
			a, err := NewAssembler(sizes)
			if err != nil {
				t.Fatal(err)
			}
			for p, local := range locals {
				install(a, p, local)
			}
			if err := a.SetCross(0, 1, func(m, nn int) float64 { return synthDist(m+7, nn) }); err != nil {
				t.Fatal(err)
			}
			g, err := a.Done()
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		want := build(func(a *Assembler, p int, local *Matrix) {
			if err := a.SetLocal(p, local); err != nil {
				t.Fatal(err)
			}
		})
		for _, maxCells := range []int{1, 4096 / 8, 1 << 30} {
			for _, le := range []bool{false, true} {
				got := build(func(a *Assembler, p int, local *Matrix) {
					chunks := RowChunksRange(0, local.N(), maxCells)
					if !le || local.N() == 0 {
						chunkedInstall(t, a, p, local, chunks)
						return
					}
					// The same chunks as their frames carry them.
					for _, ch := range chunks {
						var cells []byte
						for _, v := range local.PackedRowsView(ch[0], ch[1]) {
							cells = binary.LittleEndian.AppendUint64(cells, math.Float64bits(v))
						}
						received := bytes.Clone(cells)
						if err := a.SetLocalRowsLE(p, ch[0], ch[1], cells); err != nil {
							t.Fatalf("SetLocalRowsLE(%d, %d, %d): %v", p, ch[0], ch[1], err)
						}
						if !bytes.Equal(cells, received) {
							t.Fatal("SetLocalRowsLE wrote the cells it was given")
						}
					}
				})
				if !got.EqualWithin(want, 0) {
					t.Fatalf("n=%d maxCells=%d le=%v: cells differ from SetLocal", n, maxCells, le)
				}
				if got.Max() != want.Max() {
					t.Fatalf("n=%d maxCells=%d le=%v: max %v vs SetLocal %v", n, maxCells, le, got.Max(), want.Max())
				}
			}
		}
	}
}

// TestSetLocalRowsReinstallMarksMaxStale pins what replaced the old
// max-stale bookkeeping: a row can be installed exactly once, so the
// running maximum can never go stale. Every re-install shape — chunk over
// chunk, chunk over monolith, monolith over chunks, a duplicated chunk
// mid-stream — is rejected, and the rejected install leaves cells and
// maximum untouched.
func TestSetLocalRowsReinstallMarksMaxStale(t *testing.T) {
	big := FromLocal(4, func(i, j int) float64 { return 10 })
	small := FromLocal(4, func(i, j int) float64 { return 4 })
	chunks := RowChunksRange(0, 4, 1)
	monolith := func(m *Matrix) func(a *Assembler) error {
		return func(a *Assembler) error { return a.SetLocal(0, m) }
	}
	rows := func(m *Matrix) func(a *Assembler) error {
		return func(a *Assembler) error {
			for _, ch := range chunks {
				if err := a.SetLocalRows(0, ch[0], ch[1], m.PackedRowsView(ch[0], ch[1])); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, tc := range []struct {
		label         string
		first, second func(a *Assembler) error
	}{
		{"rows over rows", rows(big), rows(small)},
		{"rows over monolith", monolith(big), rows(small)},
		{"monolith over rows", rows(big), monolith(small)},
		{"duplicate chunk", rows(big), func(a *Assembler) error {
			return a.SetLocalRows(0, 1, 2, big.PackedRowsView(1, 2))
		}},
	} {
		a, err := NewAssembler([]int{4, 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.first(a); err != nil {
			t.Fatalf("%s: first install: %v", tc.label, err)
		}
		if err := tc.second(a); err == nil {
			t.Fatalf("%s: re-install accepted", tc.label)
		}
		if err := a.SetLocal(1, small); err != nil {
			t.Fatal(err)
		}
		if err := a.SetCross(0, 1, func(m, n int) float64 { return 3 }); err != nil {
			t.Fatal(err)
		}
		g, err := a.Done()
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Max(); got != 10 || g.At(1, 0) != 10 {
			t.Fatalf("%s: rejected re-install changed the matrix: max %v, cell %v", tc.label, got, g.At(1, 0))
		}
	}
}

// TestSetLocalRowsValidation covers the error surface: bad party, bad
// ranges, wrong cell counts, non-finite and negative entries off the wire,
// and Done's row-exact incompleteness report.
func TestSetLocalRowsValidation(t *testing.T) {
	a, err := NewAssembler([]int{4, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetLocalRows(-1, 0, 0, nil); err == nil {
		t.Fatal("negative party accepted")
	}
	if err := a.SetLocalRows(2, 0, 0, nil); err == nil {
		t.Fatal("party out of range accepted")
	}
	if err := a.SetLocalRows(0, 2, 1, nil); err == nil {
		t.Fatal("inverted range accepted")
	}
	if err := a.SetLocalRows(0, 0, 5, make([]float64, 10)); err == nil {
		t.Fatal("range past n accepted")
	}
	if err := a.SetLocalRows(0, 0, 3, []float64{1}); err == nil {
		t.Fatal("short cell run accepted")
	}
	if err := a.SetLocalRows(0, 0, 2, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
	if err := a.SetLocalRows(0, 0, 2, []float64{-1}); err == nil {
		t.Fatal("negative dissimilarity accepted")
	}
	if err := a.SetLocalRows(0, 1, 3, []float64{1, 2, 3}); err == nil {
		t.Fatal("range skipping the install cursor accepted")
	}
	le := func(vs ...float64) (cells []byte) {
		for _, v := range vs {
			cells = binary.LittleEndian.AppendUint64(cells, math.Float64bits(v))
		}
		return cells
	}
	if err := a.SetLocalRowsLE(0, 0, 3, le(1, 2, 3)[:23]); err == nil {
		t.Fatal("torn cell accepted")
	}
	if err := a.SetLocalRowsLE(0, 0, 3, le(1, 2)); err == nil {
		t.Fatal("short little-endian cell run accepted")
	}
	if err := a.SetLocalRowsLE(0, 0, 3, le(1, 2, math.Inf(1))); err == nil || !strings.Contains(err.Error(), "at cell 2") {
		t.Fatalf("non-finite little-endian cell: %v", err)
	}
	if err := a.SetLocalRowsLE(0, 0, 3, le(1, -2, 3)); err == nil || !strings.Contains(err.Error(), "at cell 1") {
		t.Fatalf("negative little-endian cell: %v", err)
	}
	if err := a.SetLocalRows(0, 0, 3, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Done(); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("partial rows not reported by Done: %v", err)
	}
	// A party with no rows installs nothing: even an empty chunk is refused.
	e, err := NewAssembler([]int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetLocalRows(0, 0, 0, nil); err == nil {
		t.Fatal("empty party's chunk accepted")
	}
}

// TestRectChunksInvariants: every pairwise schedule covers [0, rows)
// contiguously with non-empty chunks (except the single degenerate chunk
// of an empty responder), each chunk stays within maxCells unless a single
// row alone exceeds it, and both sides derive the identical schedule from
// (rows, cols, maxCells).
func TestRectChunksInvariants(t *testing.T) {
	for _, rows := range []int{0, 1, 2, 3, 17, 64, 257} {
		for _, cols := range []int{0, 1, 5, 64, 300} {
			for _, maxCells := range []int{1, 7, 64, 4096, 1 << 30} {
				chunks := RectChunksRange(0, rows, cols, maxCells)
				if len(chunks) == 0 {
					t.Fatalf("rows=%d cols=%d maxCells=%d: empty schedule", rows, cols, maxCells)
				}
				next := 0
				for ci, ch := range chunks {
					lo, hi := ch[0], ch[1]
					if lo != next {
						t.Fatalf("rows=%d cols=%d maxCells=%d: chunk %d starts at %d, want %d", rows, cols, maxCells, ci, lo, next)
					}
					if hi < lo || hi > rows {
						t.Fatalf("rows=%d cols=%d maxCells=%d: chunk %d = [%d,%d) out of range", rows, cols, maxCells, ci, lo, hi)
					}
					if hi == lo && rows > 0 {
						t.Fatalf("rows=%d cols=%d maxCells=%d: chunk %d empty", rows, cols, maxCells, ci)
					}
					if cells := (hi - lo) * cols; cells > maxCells && hi-lo > 1 {
						t.Fatalf("rows=%d cols=%d maxCells=%d: chunk %d holds %d cells over %d rows", rows, cols, maxCells, ci, cells, hi-lo)
					}
					next = hi
				}
				if next != rows {
					t.Fatalf("rows=%d cols=%d maxCells=%d: schedule ends at %d", rows, cols, maxCells, next)
				}
				if got := RectChunkCountRange(0, rows, cols, maxCells); got != len(chunks) {
					t.Fatalf("rows=%d cols=%d maxCells=%d: RectChunkCountRange=%d, schedule has %d chunks", rows, cols, maxCells, got, len(chunks))
				}
			}
		}
	}
	// Degenerate arguments normalize rather than panic.
	if got := RectChunksRange(-3, -5, -1, 0); len(got) != 1 || got[0] != [2]int{0, 0} {
		t.Fatalf("RectChunksRange(-3, -5, -1, 0) = %v", got)
	}
	if got := RectChunkCountRange(-3, -5, -1, 0); got != 1 {
		t.Fatalf("RectChunkCountRange(-3, -5, -1, 0) = %d", got)
	}
}

// TestSetCrossRowsMatchesSetCross is the property test of the chunked
// cross-block install: for every block shape and chunking — one row per
// chunk, a mid-size bound, the whole block at once — the assembled cells
// and the Done-primed max are bit-identical to the monolithic SetCross
// path.
func TestSetCrossRowsMatchesSetCross(t *testing.T) {
	for _, shape := range [][2]int{{0, 3}, {3, 0}, {1, 1}, {4, 7}, {17, 5}, {33, 33}} {
		nJ, nK := shape[0], shape[1]
		sizes := []int{nJ, nK}
		cross := func(m, n int) float64 { return synthDist(m+3, n) }
		build := func(install func(a *Assembler)) *Matrix {
			a, err := NewAssembler(sizes)
			if err != nil {
				t.Fatal(err)
			}
			for p, n := range sizes {
				if err := a.SetLocal(p, FromLocal(n, synthDist)); err != nil {
					t.Fatal(err)
				}
			}
			install(a)
			g, err := a.Done()
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		want := build(func(a *Assembler) {
			if err := a.SetCross(0, 1, cross); err != nil {
				t.Fatal(err)
			}
		})
		for _, maxCells := range []int{1, 64, 1 << 30} {
			got := build(func(a *Assembler) {
				if nK == 0 {
					return // an empty responder installs nothing, as on the wire
				}
				for _, ch := range RectChunksRange(0, nK, nJ, maxCells) {
					lo := ch[0]
					at := func(m, n int) float64 { return cross(lo+m, n) }
					if err := a.SetCrossRows(0, 1, ch[0], ch[1], at); err != nil {
						t.Fatalf("SetCrossRows([%d,%d)): %v", ch[0], ch[1], err)
					}
				}
			})
			if !got.EqualWithin(want, 0) {
				t.Fatalf("shape=%v maxCells=%d: cells differ from SetCross", shape, maxCells)
			}
			if got.Max() != want.Max() {
				t.Fatalf("shape=%v maxCells=%d: max %v vs SetCross %v", shape, maxCells, got.Max(), want.Max())
			}
			// The same chunks written a destination row at a time.
			into := build(func(a *Assembler) {
				if nK == 0 {
					return
				}
				for _, ch := range RectChunksRange(0, nK, nJ, maxCells) {
					lo := ch[0]
					row := func(r int, dst []float64) error {
						if len(dst) != nJ {
							t.Errorf("destination row of %d cells, want %d", len(dst), nJ)
						}
						for c := range dst {
							dst[c] = cross(lo+r, c)
						}
						return nil
					}
					if err := a.SetCrossRowsInto(0, 1, ch[0], ch[1], row); err != nil {
						t.Fatalf("SetCrossRowsInto([%d,%d)): %v", ch[0], ch[1], err)
					}
				}
			})
			if !into.EqualWithin(want, 0) || into.Max() != want.Max() {
				t.Fatalf("shape=%v maxCells=%d: rows written in place differ from SetCross", shape, maxCells)
			}
		}
	}
}

// TestSetCrossRowsReinstallMarksMaxStale is the cross-block twin of
// TestSetLocalRowsReinstallMarksMaxStale: every re-install shape is
// rejected — so the maximum cannot go stale — and leaves the block
// untouched. An out-of-order chunk is the same violation.
func TestSetCrossRowsReinstallMarksMaxStale(t *testing.T) {
	big := func(m, n int) float64 { return 10 }
	small := func(m, n int) float64 { return 3 }
	chunks := RectChunksRange(0, 4, 4, 4) // one row per chunk
	monolith := func(at func(m, n int) float64) func(a *Assembler) error {
		return func(a *Assembler) error { return a.SetCross(0, 1, at) }
	}
	rows := func(at func(m, n int) float64) func(a *Assembler) error {
		return func(a *Assembler) error {
			for _, ch := range chunks {
				lo := ch[0]
				if err := a.SetCrossRows(0, 1, ch[0], ch[1], func(m, n int) float64 { return at(lo+m, n) }); err != nil {
					return err
				}
			}
			return nil
		}
	}
	for _, tc := range []struct {
		label         string
		first, second func(a *Assembler) error
	}{
		{"rows over rows", rows(big), rows(small)},
		{"rows over monolith", monolith(big), rows(small)},
		{"monolith over rows", rows(big), monolith(small)},
		{"duplicate chunk", rows(big), func(a *Assembler) error { return a.SetCrossRows(0, 1, 1, 2, small) }},
		{"out of order", func(a *Assembler) error { return a.SetCrossRows(0, 1, 0, 1, big) },
			func(a *Assembler) error { return a.SetCrossRows(0, 1, 2, 3, small) }},
	} {
		a, err := NewAssembler([]int{4, 4})
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < 2; p++ {
			if err := a.SetLocal(p, FromLocal(4, func(i, j int) float64 { return 4 })); err != nil {
				t.Fatal(err)
			}
		}
		if err := tc.first(a); err != nil {
			t.Fatalf("%s: first install: %v", tc.label, err)
		}
		if err := tc.second(a); err == nil {
			t.Fatalf("%s: re-install accepted", tc.label)
		}
		if tc.label == "out of order" {
			continue // the block is legitimately incomplete
		}
		g, err := a.Done()
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Max(); got != 10 || g.At(4, 0) != 10 {
			t.Fatalf("%s: rejected re-install changed the matrix: max %v, cell %v", tc.label, got, g.At(4, 0))
		}
	}
}

// TestSetCrossRowsValidation covers the error surface: bad pairs, bad
// ranges, invalid entries off the protocol layer, and Done's row-exact
// incompleteness report for a half-streamed cross block.
func TestSetCrossRowsValidation(t *testing.T) {
	a, err := NewAssembler([]int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	zero := func(m, n int) float64 { return 0 }
	if err := a.SetCrossRows(1, 0, 0, 1, zero); err == nil {
		t.Fatal("inverted pair accepted")
	}
	if err := a.SetCrossRows(-1, 1, 0, 1, zero); err == nil {
		t.Fatal("negative party accepted")
	}
	if err := a.SetCrossRows(0, 2, 0, 1, zero); err == nil {
		t.Fatal("party out of range accepted")
	}
	if err := a.SetCrossRows(0, 1, 2, 1, zero); err == nil {
		t.Fatal("inverted range accepted")
	}
	if err := a.SetCrossRows(0, 1, 0, 5, zero); err == nil {
		t.Fatal("range past the responder count accepted")
	}
	if err := a.SetCrossRows(0, 1, 0, 1, func(m, n int) float64 { return math.Inf(1) }); err == nil {
		t.Fatal("non-finite dissimilarity accepted")
	}
	if err := a.SetCrossRows(0, 1, 0, 1, func(m, n int) float64 { return -1 }); err == nil {
		t.Fatal("negative dissimilarity accepted")
	}
	boom := errors.New("boom")
	if err := a.SetCrossRowsInto(0, 1, 0, 2, func(r int, dst []float64) error {
		if r == 1 {
			return boom
		}
		clear(dst)
		return nil
	}); err != boom {
		t.Fatalf("a row's error came back as %v", err)
	}
	for p, n := range []int{3, 4} {
		if err := a.SetLocal(p, FromLocal(n, synthDist)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.SetCrossRows(0, 1, 0, 2, zero); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Done(); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Fatalf("partial cross rows not reported by Done: %v", err)
	}
}

// TestSplitCrossSharesInstallConcurrently: with every cross block cut at a
// responder row, each party's local rows and each share of each block are
// installed by their own goroutine, in chunks, racing one another — over
// the whole triangle and over a slice whose first row is past a cut. The
// cells and the maximum Done folds are those of the monolithic installs,
// and a share takes only its own rows.
func TestSplitCrossSharesInstallConcurrently(t *testing.T) {
	sizes := []int{7, 11, 5}
	total := 23
	cross := func(j, k int) func(m, n int) float64 {
		return func(m, n int) float64 { return synthDist(m+10*k, n+3*j) }
	}
	splits := map[[2]int]int{{0, 1}: 4, {0, 2}: 0, {1, 2}: 5}
	want, err := NewAssembler(sizes)
	if err != nil {
		t.Fatal(err)
	}
	for p, n := range sizes {
		if err := want.SetLocal(p, FromLocal(n, synthDist)); err != nil {
			t.Fatal(err)
		}
	}
	for pair := range splits {
		if err := want.SetCross(pair[0], pair[1], cross(pair[0], pair[1])); err != nil {
			t.Fatal(err)
		}
	}
	whole, err := want.Done()
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][2]int{{0, total}, {7 + 6, total}} {
		a, err := NewSliceAssembler(sizes, rows[0], rows[1], 2)
		if err != nil {
			t.Fatal(err)
		}
		for pair, at := range splits {
			if err := a.SplitCross(pair[0], pair[1], at); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 16)
		install := func(fn func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := fn(); err != nil {
					errs <- err
				}
			}()
		}
		for p := range sizes {
			install(func() error {
				lo, hi := a.PartyRows(p)
				for r := lo; r < hi; r++ {
					if err := a.SetLocalRows(p, r, r+1, FromLocal(sizes[p], synthDist).PackedRowsView(r, r+1)); err != nil {
						return err
					}
				}
				return nil
			})
		}
		for pair, at := range splits {
			j, k := pair[0], pair[1]
			lo, hi := a.PartyRows(k)
			for _, share := range [][2]int{{lo, min(hi, at)}, {max(lo, at), hi}} {
				install(func() error {
					for r := share[0]; r < share[1]; r++ {
						f := cross(j, k)
						if err := a.SetCrossRows(j, k, r, r+1, func(m, n int) float64 { return f(r+m, n) }); err != nil {
							return err
						}
					}
					return nil
				})
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("rows %v: %v", rows, err)
		}
		cells, top, err := a.Done()
		if err != nil {
			t.Fatalf("rows %v: %v", rows, err)
		}
		wantCells := whole.PackedRowsView(rows[0], rows[1])
		if !slices.Equal(cells, wantCells) || top != slices.Max(append([]float64{0}, wantCells...)) {
			t.Fatalf("rows %v: concurrent share installs differ from the monolithic ones", rows)
		}
	}
}

// TestSplitCrossValidation: a cut outside the block or after its first
// install is refused, and once cut, each share accepts only its own rows.
func TestSplitCrossValidation(t *testing.T) {
	zero := func(m, n int) float64 { return 0 }
	a, err := NewAssembler([]int{3, 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SplitCross(0, 1, 7); err == nil {
		t.Fatal("cut past the block accepted")
	}
	if err := a.SplitCross(1, 0, 2); err == nil {
		t.Fatal("inverted pair accepted")
	}
	if err := a.SplitCross(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := a.SetCrossRows(0, 1, 0, 3, zero); err == nil {
		t.Fatal("rows across the cut accepted")
	}
	if err := a.SetCrossRows(0, 1, 3, 4, zero); err == nil {
		t.Fatal("the second share installed out of order")
	}
	if err := a.SetCrossRows(0, 1, 2, 4, zero); err != nil {
		t.Fatal(err)
	}
	if err := a.SplitCross(0, 1, 3); err == nil {
		t.Fatal("cut after an install accepted")
	}
	if err := a.SetCrossRows(0, 1, 0, 2, zero); err != nil {
		t.Fatal(err)
	}
	if err := a.SetCrossRows(0, 1, 4, 6, zero); err != nil {
		t.Fatal(err)
	}
	for p, n := range []int{3, 6} {
		if err := a.SetLocal(p, FromLocal(n, synthDist)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Done(); err != nil {
		t.Fatal(err)
	}
}
