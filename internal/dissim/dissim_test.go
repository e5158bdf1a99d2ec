package dissim

import (
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ppclust/internal/rng"
)

func TestPackedIndexingSymmetry(t *testing.T) {
	m := New(5)
	v := 0.5
	for i := 1; i < 5; i++ {
		for j := 0; j < i; j++ {
			m.Set(i, j, v)
			if m.At(i, j) != v || m.At(j, i) != v {
				t.Fatalf("symmetry broken at (%d,%d)", i, j)
			}
			v += 0.25
		}
	}
	for i := 0; i < 5; i++ {
		if m.At(i, i) != 0 {
			t.Fatalf("diagonal (%d,%d) != 0", i, i)
		}
	}
}

// TestRowMatchesAt: a gathered row is At's row, cell for cell, at every
// size from empty up, into a buffer too short, exact or too long.
func TestRowMatchesAt(t *testing.T) {
	for n := 1; n <= 9; n++ {
		m := New(n)
		for i := 1; i < n; i++ {
			for j := 0; j < i; j++ {
				m.Set(i, j, float64(100*i+j))
			}
		}
		for _, buf := range [][]float64{nil, make([]float64, n), make([]float64, n+3)} {
			for i := 0; i < n; i++ {
				row := m.Row(buf, i)
				if len(row) != n {
					t.Fatalf("n=%d row %d: %d cells", n, i, len(row))
				}
				for j, v := range row {
					if v != m.At(i, j) {
						t.Fatalf("n=%d row %d cell %d: %v, At says %v", n, i, j, v, m.At(i, j))
					}
				}
			}
		}
	}
}

func TestSetViaUpperTriangleAliases(t *testing.T) {
	m := New(3)
	m.Set(0, 2, 7) // j > i: must alias (2,0)
	if m.At(2, 0) != 7 {
		t.Fatal("upper-triangle Set did not alias lower triangle")
	}
}

func TestDiagonalAndValidation(t *testing.T) {
	m := New(3)
	m.Set(1, 1, 0) // allowed no-op
	for _, fn := range []func(){
		func() { m.Set(1, 1, 2) },
		func() { m.Set(0, 1, -1) },
		func() { m.Set(0, 1, math.NaN()) },
		func() { m.Set(0, 1, math.Inf(1)) },
		func() { m.At(3, 0) },
		func() { m.Set(-1, 0, 1) },
		func() { New(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMaxAndNormalize(t *testing.T) {
	m := New(3)
	m.Set(1, 0, 2)
	m.Set(2, 0, 8)
	m.Set(2, 1, 4)
	if m.Max() != 8 {
		t.Fatalf("Max = %v", m.Max())
	}
	scale := m.Normalize()
	if scale != 8 {
		t.Fatalf("Normalize returned %v", scale)
	}
	if m.At(2, 0) != 1 || m.At(1, 0) != 0.25 || m.At(2, 1) != 0.5 {
		t.Fatalf("normalized entries wrong: %v", m)
	}
	// Idempotent-ish: renormalizing a normalized matrix divides by 1.
	if s := m.Normalize(); s != 1 {
		t.Fatalf("second Normalize = %v", s)
	}
}

func TestNormalizeZeroMatrix(t *testing.T) {
	m := New(4)
	if s := m.Normalize(); s != 0 {
		t.Fatalf("zero matrix Normalize = %v", s)
	}
	one := New(1)
	if s := one.Normalize(); s != 0 {
		t.Fatalf("singleton Normalize = %v", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(3)
	m.Set(1, 0, 3)
	c := m.Clone()
	c.Set(1, 0, 9)
	if m.At(1, 0) != 3 {
		t.Fatal("Clone aliases the original")
	}
	if !m.EqualWithin(m.Clone(), 0) {
		t.Fatal("Clone not equal to original")
	}
}

func TestEqualWithinAndMaxDifference(t *testing.T) {
	a, b := New(3), New(3)
	a.Set(2, 1, 1.0)
	b.Set(2, 1, 1.0000001)
	if !a.EqualWithin(b, 1e-6) {
		t.Fatal("EqualWithin too strict")
	}
	if a.EqualWithin(b, 1e-9) {
		t.Fatal("EqualWithin too lax")
	}
	if a.EqualWithin(New(4), 1) {
		t.Fatal("size mismatch not detected")
	}
	d, err := a.MaxDifference(b)
	if err != nil || math.Abs(d-1e-7) > 1e-12 {
		t.Fatalf("MaxDifference = %v, %v", d, err)
	}
	if _, err := a.MaxDifference(New(4)); err == nil {
		t.Fatal("MaxDifference accepted size mismatch")
	}
}

func TestFromLocalFigure12(t *testing.T) {
	vals := []float64{1, 4, 6}
	m := FromLocal(3, func(i, j int) float64 { return math.Abs(vals[i] - vals[j]) })
	if m.At(1, 0) != 3 || m.At(2, 0) != 5 || m.At(2, 1) != 2 {
		t.Fatalf("FromLocal entries: %v", m)
	}
}

func TestWeightedMerge(t *testing.T) {
	a, b := New(3), New(3)
	a.Set(1, 0, 1)
	b.Set(1, 0, 0.5)
	b.Set(2, 0, 1)
	out, err := WeightedMerge([]*Matrix{a, b}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	// (3·1 + 1·0.5)/4 = 0.875 ; (3·0 + 1·1)/4 = 0.25
	if math.Abs(out.At(1, 0)-0.875) > 1e-15 || math.Abs(out.At(2, 0)-0.25) > 1e-15 {
		t.Fatalf("merge entries: %v %v", out.At(1, 0), out.At(2, 0))
	}
}

func TestWeightedMergeValidation(t *testing.T) {
	a := New(2)
	cases := []struct {
		ms []*Matrix
		ws []float64
	}{
		{nil, nil},
		{[]*Matrix{a}, []float64{1, 2}},
		{[]*Matrix{a}, []float64{-1}},
		{[]*Matrix{a}, []float64{0}},
		{[]*Matrix{a}, []float64{math.NaN()}},
		{[]*Matrix{a, New(3)}, []float64{1, 1}},
	}
	for i, c := range cases {
		if _, err := WeightedMerge(c.ms, c.ws); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestWeightedMergeStaysNormalized(t *testing.T) {
	// Property: merging matrices with entries in [0,1] under any
	// non-negative weights keeps entries in [0,1].
	gen := rng.NewXoshiro(rng.SeedFromUint64(3))
	f := func(w1, w2 uint8) bool {
		if w1 == 0 && w2 == 0 {
			return true
		}
		a, b := New(4), New(4)
		for i := 1; i < 4; i++ {
			for j := 0; j < i; j++ {
				a.Set(i, j, rng.Float64(gen))
				b.Set(i, j, rng.Float64(gen))
			}
		}
		out, err := WeightedMerge([]*Matrix{a, b}, []float64{float64(w1), float64(w2)})
		if err != nil {
			return false
		}
		for i := 1; i < 4; i++ {
			for j := 0; j < i; j++ {
				if out.At(i, j) < 0 || out.At(i, j) > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringRendering(t *testing.T) {
	m := New(2)
	m.Set(1, 0, 0.5)
	s := m.String()
	if !strings.Contains(s, "0.500") || !strings.Contains(s, "0.000") {
		t.Fatalf("render: %q", s)
	}
}

func TestAssemblerFullFlow(t *testing.T) {
	// Three parties with 2, 1, 3 objects. Distance between global objects
	// g and h is defined as |val[g]−val[h]| for a known value vector, so
	// the assembled matrix must equal the centralized FromLocal result.
	vals := []float64{10, 20, 5, 1, 2, 3} // party A: 10,20; B: 5; C: 1,2,3
	sizes := []int{2, 1, 3}
	asm, err := NewAssembler(sizes)
	if err != nil {
		t.Fatal(err)
	}
	offs := []int{0, 2, 3}
	for p, sz := range sizes {
		local := FromLocal(sz, func(i, j int) float64 {
			return math.Abs(vals[offs[p]+i] - vals[offs[p]+j])
		})
		if err := asm.SetLocal(p, local); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 3; j++ {
		for k := j + 1; k < 3; k++ {
			j, k := j, k
			err := asm.SetCross(j, k, func(m, n int) float64 {
				return math.Abs(vals[offs[k]+m] - vals[offs[j]+n])
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := asm.Done()
	if err != nil {
		t.Fatal(err)
	}
	want := FromLocal(6, func(i, j int) float64 { return math.Abs(vals[i] - vals[j]) })
	if !got.EqualWithin(want, 0) {
		t.Fatalf("assembled:\n%v\nwant:\n%v", got, want)
	}
}

func TestAssemblerMissingPieces(t *testing.T) {
	asm, _ := NewAssembler([]int{1, 1})
	if _, err := asm.Done(); err == nil {
		t.Fatal("Done succeeded with nothing installed")
	}
	if err := asm.SetLocal(0, New(1)); err != nil {
		t.Fatal(err)
	}
	if err := asm.SetLocal(1, New(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := asm.Done(); err == nil {
		t.Fatal("Done succeeded without cross block")
	}
	if err := asm.SetCross(0, 1, func(m, n int) float64 { return 1 }); err != nil {
		t.Fatal(err)
	}
	if _, err := asm.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestAssemblerValidation(t *testing.T) {
	if _, err := NewAssembler(nil); err == nil {
		t.Fatal("empty party list accepted")
	}
	if _, err := NewAssembler([]int{-1}); err == nil {
		t.Fatal("negative size accepted")
	}
	asm, _ := NewAssembler([]int{2, 2})
	if err := asm.SetLocal(5, New(2)); err == nil {
		t.Fatal("out-of-range party accepted")
	}
	if err := asm.SetLocal(0, New(3)); err == nil {
		t.Fatal("wrong-size local accepted")
	}
	if err := asm.SetCross(1, 0, nil); err == nil {
		t.Fatal("inverted pair accepted")
	}
	if err := asm.SetCross(0, 5, nil); err == nil {
		t.Fatal("out-of-range pair accepted")
	}
}

func BenchmarkNormalize1000(b *testing.B) {
	gen := rng.NewXoshiro(rng.SeedFromUint64(4))
	m := New(1000)
	for i := 1; i < 1000; i++ {
		for j := 0; j < i; j++ {
			m.Set(i, j, rng.Float64(gen)+0.001)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Normalize()
	}
}

// synthDist is a deterministic pure pairwise distance for builder tests.
func synthDist(i, j int) float64 {
	return float64((i*2654435761 + j*40503) % 1000)
}

// TestFromLocalParBitIdentical checks the parallel builder against the
// serial Figure 12 construction for several worker counts.
func TestFromLocalParBitIdentical(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 64, 150} {
		want := FromLocal(n, synthDist)
		for _, workers := range []int{1, 2, 3, 8} {
			got := FromLocalPar(n, workers, func(int) func(i, j int) float64 { return synthDist })
			if !got.EqualWithin(want, 0) {
				t.Fatalf("n=%d workers=%d: parallel build differs", n, workers)
			}
			if got.Max() != want.Max() {
				t.Fatalf("n=%d workers=%d: max %v vs %v", n, workers, got.Max(), want.Max())
			}
		}
	}
}

// TestAppendLocalRowsLEMatchesWholeTriangle: every row range of every
// schedule, appended into one reused frame at several worker counts,
// carries the cells the whole-triangle build shows for those rows, bit
// for bit, behind the bytes already in the frame.
func TestAppendLocalRowsLEMatchesWholeTriangle(t *testing.T) {
	newDist := func(int) func(i, j int) float64 { return synthDist }
	header := []byte{0xB1, 7}
	for _, n := range []int{0, 1, 2, 17, 64, 150, 400} {
		whole := FromLocalPar(n, 1, newDist)
		for _, maxCells := range []int{1, 100, 1 << 30} {
			for _, workers := range []int{1, 3} {
				var frame []byte
				for _, ch := range RowChunksRange(0, n, maxCells) {
					frame = AppendLocalRowsLE(append(frame[:0], header...), ch[0], ch[1], workers, newDist)
					want := whole.PackedRowsView(ch[0], ch[1])
					if len(frame) != len(header)+8*len(want) || !slices.Equal(frame[:len(header)], header) {
						t.Fatalf("n=%d maxCells=%d workers=%d: rows [%d,%d) appended %d bytes behind the header, want %d",
							n, maxCells, workers, ch[0], ch[1], len(frame)-len(header), 8*len(want))
					}
					for c, v := range want {
						if bits := binary.LittleEndian.Uint64(frame[len(header)+8*c:]); bits != math.Float64bits(v) {
							t.Fatalf("n=%d maxCells=%d workers=%d: rows [%d,%d) cell %d differs from the whole triangle's", n, maxCells, workers, ch[0], ch[1], c)
						}
					}
				}
			}
		}
	}
}

// TestWeightedMergeParBitIdentical checks the parallel merge against the
// serial one, including the fused max.
func TestWeightedMergeParBitIdentical(t *testing.T) {
	s := rng.NewXoshiro(rng.SeedFromUint64(41))
	n := 80
	ms := make([]*Matrix, 3)
	for a := range ms {
		ms[a] = FromLocal(n, func(i, j int) float64 { return rng.Float64(s) })
	}
	weights := []float64{0.2, 1.7, 3.0}
	want, err := WeightedMerge(ms, weights)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 16} {
		got, err := WeightedMergePar(ms, weights, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !got.EqualWithin(want, 0) {
			t.Fatalf("workers=%d: parallel merge differs", workers)
		}
		if got.Max() != want.Max() {
			t.Fatalf("workers=%d: max differs", workers)
		}
	}
}

// TestMaxCache exercises the fused max bookkeeping: builder-primed
// caches, Set updates that grow or invalidate, and Normalize reuse.
func TestMaxCache(t *testing.T) {
	m := New(4)
	if m.Max() != 0 {
		t.Fatal("zero matrix max")
	}
	m.Set(1, 0, 5)
	m.Set(2, 1, 9)
	if m.Max() != 9 {
		t.Fatalf("max = %v, want 9", m.Max())
	}
	m.Set(2, 1, 1) // overwrite the maximum: cache must invalidate
	if m.Max() != 5 {
		t.Fatalf("max after overwrite = %v, want 5", m.Max())
	}
	m.Set(3, 0, 20)
	if m.Max() != 20 {
		t.Fatalf("max after growth = %v, want 20", m.Max())
	}
	if got := m.NormalizePar(3); got != 20 {
		t.Fatalf("normalize scale = %v, want 20", got)
	}
	if m.Max() != 1 {
		t.Fatalf("max after normalize = %v, want 1", m.Max())
	}
}

// TestPackedViewAliases checks the no-copy wire accessor matches Packed.
func TestPackedViewAliases(t *testing.T) {
	m := FromLocal(10, synthDist)
	view, copied := m.PackedView(), m.Packed()
	if len(view) != len(copied) {
		t.Fatalf("length mismatch %d vs %d", len(view), len(copied))
	}
	for i := range view {
		if view[i] != copied[i] {
			t.Fatalf("cell %d differs", i)
		}
	}
	if &view[0] == &copied[0] {
		t.Fatal("Packed must copy")
	}
	if &view[0] != &m.cell[0] {
		t.Fatal("PackedView must alias")
	}
}

// TestAssemblerParMatchesSerial assembles a 3-party global matrix with 1
// and many workers and requires bit-identical output.
func TestAssemblerParMatchesSerial(t *testing.T) {
	sizes := []int{7, 11, 5}
	build := func(workers int) *Matrix {
		a, err := NewAssemblerPar(sizes, workers)
		if err != nil {
			t.Fatal(err)
		}
		for p, sz := range sizes {
			local := FromLocal(sz, func(i, j int) float64 { return synthDist(i+p, j) })
			if err := a.SetLocal(p, local); err != nil {
				t.Fatal(err)
			}
		}
		for k := 1; k < len(sizes); k++ {
			for j := 0; j < k; j++ {
				j, k := j, k
				if err := a.SetCross(j, k, func(m, n int) float64 { return synthDist(m+10*k, n+j) }); err != nil {
					t.Fatal(err)
				}
			}
		}
		g, err := a.Done()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	want := build(1)
	for _, workers := range []int{2, 4} {
		got := build(workers)
		if !got.EqualWithin(want, 0) {
			t.Fatalf("workers=%d: assembly differs", workers)
		}
		if got.Max() != want.Max() {
			t.Fatalf("workers=%d: max differs", workers)
		}
	}
	// Invalid cross entries surface as errors, not panics.
	a, _ := NewAssembler([]int{2, 2})
	if err := a.SetCross(0, 1, func(m, n int) float64 { return -1 }); err == nil {
		t.Fatal("negative cross entry accepted")
	}
}

// TestAssemblerReinstallInvalidatesMax: a block can be installed exactly
// once, so the fused max can never be invalidated by an overwrite — the
// re-install is rejected and the matrix keeps the first install's cells
// and maximum.
func TestAssemblerReinstallInvalidatesMax(t *testing.T) {
	a, err := NewAssembler([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	big := FromLocal(2, func(i, j int) float64 { return 10 })
	small := FromLocal(2, func(i, j int) float64 { return 4 })
	if err := a.SetLocal(0, big); err != nil {
		t.Fatal(err)
	}
	if err := a.SetLocal(1, small); err != nil {
		t.Fatal(err)
	}
	if err := a.SetCross(0, 1, func(m, n int) float64 { return 3 }); err != nil {
		t.Fatal(err)
	}
	if err := a.SetLocal(0, small); err == nil {
		t.Fatal("local re-install accepted")
	}
	if err := a.SetCross(0, 1, func(m, n int) float64 { return 1 }); err == nil {
		t.Fatal("cross re-install accepted")
	}
	g, err := a.Done()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Max(); got != 10 {
		t.Fatalf("max after rejected overwrite = %v, want 10", got)
	}
	if scale := g.Normalize(); scale != 10 {
		t.Fatalf("normalize scale = %v, want 10", scale)
	}
	if g.Max() != 1 {
		t.Fatalf("max after normalize = %v, want 1", g.Max())
	}
}

// TestAssemblerDoneIdempotent: a second Done after the caller normalized
// the returned matrix must not re-prime the stale pre-normalization max.
func TestAssemblerDoneIdempotent(t *testing.T) {
	a, err := NewAssembler([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	m := FromLocal(2, func(i, j int) float64 { return 40 })
	if err := a.SetLocal(0, m); err != nil {
		t.Fatal(err)
	}
	if err := a.SetLocal(1, m); err != nil {
		t.Fatal(err)
	}
	if err := a.SetCross(0, 1, func(int, int) float64 { return 8 }); err != nil {
		t.Fatal(err)
	}
	g, err := a.Done()
	if err != nil {
		t.Fatal(err)
	}
	if scale := g.Normalize(); scale != 40 {
		t.Fatalf("scale = %v, want 40", scale)
	}
	g2, err := a.Done()
	if err != nil {
		t.Fatal(err)
	}
	if g2.Max() != 1 {
		t.Fatalf("max after second Done = %v, want 1 (stale cache re-primed)", g2.Max())
	}
}

// TestAssemblerDoneAdoptsStorage is the no-second-triangle guard: the
// matrix a full-range assembly returns IS the assembler's storage, not a
// copy of it — the third party holds one triangle per attribute, not two.
func TestAssemblerDoneAdoptsStorage(t *testing.T) {
	a, err := NewAssembler([]int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	for p, n := range []int{3, 2} {
		if err := a.SetLocal(p, FromLocal(n, synthDist)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.SetCross(0, 1, func(m, n int) float64 { return synthDist(m+3, n) }); err != nil {
		t.Fatal(err)
	}
	storage := &a.cells[0]
	g, err := a.Done()
	if err != nil {
		t.Fatal(err)
	}
	if &g.PackedView()[0] != storage {
		t.Fatal("Done copied the assembled triangle instead of adopting it")
	}
}
