package dissim

import (
	"fmt"
	"math"
	"testing"
)

// TestShardRangesCoverage pins the partition-helper contract the sharded
// third party depends on: for every (n, k) the ranges are contiguous,
// non-empty, in order, and concatenate to exactly [0, n) — never an
// empty shard slice, never a dropped row.
func TestShardRangesCoverage(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for k := -1; k <= n+5; k++ {
			ranges := ShardRanges(n, k)
			if n <= 0 {
				if ranges != nil {
					t.Fatalf("ShardRanges(%d,%d) = %v, want nil", n, k, ranges)
				}
				continue
			}
			wantLen := k
			if wantLen < 1 {
				wantLen = 1
			}
			if wantLen > n {
				wantLen = n
			}
			if len(ranges) != wantLen {
				t.Fatalf("ShardRanges(%d,%d) has %d ranges, want %d", n, k, len(ranges), wantLen)
			}
			next := 0
			for i, r := range ranges {
				if r[0] != next {
					t.Fatalf("ShardRanges(%d,%d)[%d] starts at %d, want %d", n, k, i, r[0], next)
				}
				if r[1] <= r[0] {
					t.Fatalf("ShardRanges(%d,%d)[%d] = %v is empty", n, k, i, r)
				}
				next = r[1]
			}
			if next != n {
				t.Fatalf("ShardRanges(%d,%d) covers [0,%d), want [0,%d)", n, k, next, n)
			}
		}
	}
}

// TestShardRangesDegenerate covers the satellite cases explicitly:
// more shards than rows, single-row matrices, and k <= 0.
func TestShardRangesDegenerate(t *testing.T) {
	if got := ShardRanges(1, 4); len(got) != 1 || got[0] != [2]int{0, 1} {
		t.Fatalf("ShardRanges(1,4) = %v, want [[0,1]]", got)
	}
	if got := ShardRanges(3, 100); len(got) != 3 {
		t.Fatalf("ShardRanges(3,100) = %v, want 3 single-row ranges", got)
	}
	if got := ShardRanges(5, 0); len(got) != 1 || got[0] != [2]int{0, 5} {
		t.Fatalf("ShardRanges(5,0) = %v, want [[0,5]]", got)
	}
	if got := ShardRanges(0, 3); got != nil {
		t.Fatalf("ShardRanges(0,3) = %v, want nil", got)
	}
}

// TestShardRangesBalance checks the cell-count balancing: no shard of a
// large triangle should hold more than ~2x the ideal share.
func TestShardRangesBalance(t *testing.T) {
	for _, n := range []int{64, 257, 1000} {
		for _, k := range []int{2, 4, 8} {
			ranges := ShardRanges(n, k)
			ideal := float64(n*(n-1)/2) / float64(k)
			for i, r := range ranges {
				cells := r[1]*(r[1]-1)/2 - r[0]*(r[0]-1)/2
				if float64(cells) > 2*ideal+float64(n) {
					t.Errorf("ShardRanges(%d,%d)[%d]=%v holds %d cells, ideal %.0f", n, k, i, r, cells, ideal)
				}
			}
		}
	}
}

// refRowChunks is the whole-triangle schedule written out on its own — the
// reference the range form's [0, n) case is pinned against: greedy row
// ranges of at most maxCells packed cells, one (empty) chunk for n <= 1.
func refRowChunks(n, maxCells int) [][2]int {
	if n < 0 {
		n = 0
	}
	if maxCells < 1 {
		maxCells = 1
	}
	var chunks [][2]int
	lo, cells := 0, 0
	for i := 0; i < n; i++ {
		if i > lo && cells+i > maxCells {
			chunks = append(chunks, [2]int{lo, i})
			lo, cells = i, 0
		}
		cells += i
	}
	return append(chunks, [2]int{lo, n})
}

// refRectChunks is the whole-block counterpart of refRowChunks: floor(
// maxCells/cols) rows per chunk, at least one, one (empty) chunk for an
// empty block.
func refRectChunks(rows, cols, maxCells int) [][2]int {
	if rows <= 0 {
		return [][2]int{{0, 0}}
	}
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
	var chunks [][2]int
	for lo := 0; lo < rows; lo += per {
		hi := lo + per
		if hi > rows {
			hi = rows
		}
		chunks = append(chunks, [2]int{lo, hi})
	}
	return chunks
}

// TestRowChunksRangeMatchesRowChunks pins the whole-triangle identity
// RowChunksRange(0, n, b) == the reference schedule and checks that
// restricted schedules cover their range exactly.
func TestRowChunksRangeMatchesRowChunks(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 33} {
		for _, b := range []int{-1, 0, 1, 5, 64, 1 << 20} {
			full := refRowChunks(n, b)
			got := RowChunksRange(0, n, b)
			if fmt.Sprint(full) != fmt.Sprint(got) {
				t.Fatalf("RowChunksRange(0,%d,%d) = %v, want %v", n, b, got, full)
			}
		}
	}
	for _, r := range [][2]int{{3, 9}, {5, 5}, {0, 1}, {1, 2}} {
		chunks := RowChunksRange(r[0], r[1], 7)
		next := r[0]
		for _, ch := range chunks {
			if ch[0] != next || ch[1] < ch[0] || ch[1] > r[1] {
				t.Fatalf("RowChunksRange(%d,%d,7) = %v: bad chunk %v", r[0], r[1], chunks, ch)
			}
			next = ch[1]
		}
		if next != r[1] {
			t.Fatalf("RowChunksRange(%d,%d,7) = %v stops at %d", r[0], r[1], chunks, next)
		}
	}
}

// TestRectChunksRangeMatchesRectChunks pins RectChunksRange(0, rows, ...)
// == the reference schedule, the count identity, and empty-range handling.
func TestRectChunksRangeMatchesRectChunks(t *testing.T) {
	for _, rows := range []int{0, 1, 2, 9, 40} {
		for _, cols := range []int{0, 1, 3, 17} {
			for _, b := range []int{-1, 1, 8, 50, 1 << 16} {
				full := refRectChunks(rows, cols, b)
				got := RectChunksRange(0, rows, cols, b)
				if fmt.Sprint(full) != fmt.Sprint(got) {
					t.Fatalf("RectChunksRange(0,%d,%d,%d) = %v, want %v", rows, cols, b, got, full)
				}
				if c := RectChunkCountRange(0, rows, cols, b); c != len(got) {
					t.Fatalf("RectChunkCountRange(0,%d,%d,%d) = %d, want %d", rows, cols, b, c, len(got))
				}
			}
		}
	}
	for _, r := range [][2]int{{2, 8}, {4, 4}, {0, 3}} {
		chunks := RectChunksRange(r[0], r[1], 5, 12)
		if c := RectChunkCountRange(r[0], r[1], 5, 12); c != len(chunks) {
			t.Fatalf("RectChunkCountRange(%d,%d,5,12) = %d, want %d", r[0], r[1], c, len(chunks))
		}
		next := r[0]
		for _, ch := range chunks {
			if ch[0] != next || ch[1] < ch[0] || ch[1] > r[1] {
				t.Fatalf("RectChunksRange(%d,%d,5,12) = %v: bad chunk %v", r[0], r[1], chunks, ch)
			}
			next = ch[1]
		}
		if next != r[1] {
			t.Fatalf("RectChunksRange(%d,%d,5,12) = %v stops at %d", r[0], r[1], chunks, next)
		}
	}
}

// shardTestData builds deterministic local matrices and cross blocks for
// a set of party sizes, returning the expected full assembly.
func shardTestDistance(gi, gj int) float64 {
	return float64((gi*31+gj*7)%97) / 9.0
}

func shardTestAssemble(t *testing.T, counts []int) *Matrix {
	t.Helper()
	asm, err := NewAssembler(counts)
	if err != nil {
		t.Fatal(err)
	}
	offsets := make([]int, len(counts))
	total := 0
	for i, c := range counts {
		offsets[i] = total
		total += c
	}
	for p, n := range counts {
		local := FromLocal(n, func(i, j int) float64 {
			return shardTestDistance(offsets[p]+i, offsets[p]+j)
		})
		if err := asm.SetLocal(p, local); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k < len(counts); k++ {
		for j := 0; j < k; j++ {
			j, k := j, k
			if err := asm.SetCross(j, k, func(m, n int) float64 {
				return shardTestDistance(offsets[k]+m, offsets[j]+n)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	m, err := asm.Done()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSliceAssemblerMatchesAssembler drives K slice assemblers over the
// same chunked install streams a sharded session produces — including
// parties whose rows miss a shard entirely (empty cross-ranges) and
// single-object parties — and checks the merged matrix is bit-identical
// to the monolithic Assembler's.
func TestSliceAssemblerMatchesAssembler(t *testing.T) {
	cases := [][]int{
		{4, 3, 5},
		{1, 1, 1},    // single-row parties
		{0, 4, 2},    // empty party
		{6},          // one party: cross-free
		{2, 0, 0, 3}, // several empty parties
	}
	for _, counts := range cases {
		counts := counts
		t.Run(fmt.Sprint(counts), func(t *testing.T) {
			want := shardTestAssemble(t, counts)
			total := want.N()
			offsets := make([]int, len(counts))
			off := 0
			for i, c := range counts {
				offsets[i] = off
				off += c
			}
			for _, k := range []int{1, 2, 3, 16} {
				ranges := ShardRanges(total, k)
				got := New(total)
				for _, r := range ranges {
					sa, err := NewSliceAssemblerInto(got.PackedRowsView(r[0], r[1]), counts, r[0], r[1], 1)
					if err != nil {
						t.Fatal(err)
					}
					for p := range counts {
						llo, lhi := sa.PartyRows(p)
						if llo >= lhi {
							continue
						}
						local := FromLocal(counts[p], func(i, j int) float64 {
							return shardTestDistance(offsets[p]+i, offsets[p]+j)
						})
						for _, ch := range RowChunksRange(llo, lhi, 3) {
							if err := sa.SetLocalRows(p, ch[0], ch[1], local.PackedRowsView(ch[0], ch[1])); err != nil {
								t.Fatal(err)
							}
						}
					}
					for kk := 1; kk < len(counts); kk++ {
						rlo, rhi := sa.PartyRows(kk)
						if rlo >= rhi {
							continue
						}
						for j := 0; j < kk; j++ {
							for _, ch := range RectChunksRange(rlo, rhi, counts[j], 4) {
								ch, j, kk := ch, j, kk
								if err := sa.SetCrossRows(j, kk, ch[0], ch[1], func(m, n int) float64 {
									return shardTestDistance(offsets[kk]+ch[0]+m, offsets[j]+n)
								}); err != nil {
									t.Fatal(err)
								}
							}
						}
					}
					cells, sliceMax, err := sa.Done()
					if err != nil {
						t.Fatal(err)
					}
					for _, v := range cells {
						if v > sliceMax {
							t.Fatalf("slice max %v below cell %v", sliceMax, v)
						}
					}
					if len(cells) > 0 && &cells[0] != &got.PackedRowsView(r[0], r[1])[0] {
						t.Fatalf("slice %v was not assembled in place", r)
					}
					got.FoldMax(sliceMax)
				}
				if total > 0 && !got.EqualWithin(want, 0) {
					t.Fatalf("counts %v k=%d: merged matrix differs from monolithic assembly", counts, k)
				}
				if got.Max() != want.Max() {
					t.Fatalf("counts %v k=%d: merged max %v, want %v", counts, k, got.Max(), want.Max())
				}
			}
		})
	}
}

// TestSliceAssemblerRejects covers the validation paths: out-of-order
// installs, ranges outside the shard, sources with no rows in the shard,
// and invalid entries.
func TestSliceAssemblerRejects(t *testing.T) {
	counts := []int{3, 4}
	sa, err := NewSliceAssembler(counts, 2, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Party 0 owns global rows [0,3): rows [2,3) fall in the shard.
	if err := sa.SetLocalRows(0, 0, 1, nil); err == nil {
		t.Fatal("out-of-order local install accepted")
	}
	// Party 1 owns global rows [3,7): local rows [0,2) fall in the shard.
	if err := sa.SetLocalRows(1, 1, 2, []float64{0, 0, 0, 0}); err == nil {
		t.Fatal("gap-start local install accepted")
	}
	if err := sa.SetCrossRows(0, 1, 1, 2, func(m, n int) float64 { return 0 }); err == nil {
		t.Fatal("gap-start cross install accepted")
	}
	if err := sa.SetCrossRows(0, 1, 0, 1, func(m, n int) float64 { return math.NaN() }); err == nil {
		t.Fatal("NaN cross entry accepted")
	}
	if _, _, err := sa.Done(); err == nil {
		t.Fatal("incomplete assembly completed")
	}

	// A shard covering only party 0's rows must reject pair installs.
	sa2, err := NewSliceAssembler(counts, 0, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa2.SetCrossRows(0, 1, 0, 1, func(m, n int) float64 { return 0 }); err == nil {
		t.Fatal("cross install into shard without pair rows accepted")
	}

	// Rows [2,5) hold 9 cells: a view of another size is not theirs.
	if _, err := NewSliceAssemblerInto(make([]float64, 8), counts, 2, 5, 1); err == nil {
		t.Fatal("assembly into a view of the wrong size accepted")
	}
}

// TestSliceAssemblerSingleRowSlices drives one assembler per row — the
// K = n extreme, where the first slice ([0,1)) holds zero packed cells —
// and checks the merge is still bit-identical to the monolithic assembly.
func TestSliceAssemblerSingleRowSlices(t *testing.T) {
	counts := []int{2, 1, 3}
	want := shardTestAssemble(t, counts)
	total := want.N()
	offsets := []int{0, 2, 3}
	got := New(total)
	for _, r := range ShardRanges(total, total) {
		if r[1]-r[0] != 1 {
			t.Fatalf("ShardRanges(%d,%d) produced multi-row range %v", total, total, r)
		}
		sa, err := NewSliceAssemblerInto(got.PackedRowsView(r[0], r[1]), counts, r[0], r[1], 1)
		if err != nil {
			t.Fatal(err)
		}
		for p := range counts {
			llo, lhi := sa.PartyRows(p)
			if llo >= lhi {
				continue
			}
			local := FromLocal(counts[p], func(i, j int) float64 {
				return shardTestDistance(offsets[p]+i, offsets[p]+j)
			})
			if err := sa.SetLocalRows(p, llo, lhi, local.PackedRowsView(llo, lhi)); err != nil {
				t.Fatal(err)
			}
		}
		for kk := 1; kk < len(counts); kk++ {
			rlo, rhi := sa.PartyRows(kk)
			if rlo >= rhi {
				continue
			}
			for j := 0; j < kk; j++ {
				j, kk := j, kk
				if err := sa.SetCrossRows(j, kk, rlo, rhi, func(m, n int) float64 {
					return shardTestDistance(offsets[kk]+rlo+m, offsets[j]+n)
				}); err != nil {
					t.Fatal(err)
				}
			}
		}
		cells, sliceMax, err := sa.Done()
		if err != nil {
			t.Fatal(err)
		}
		if wantCells := r[1]*(r[1]-1)/2 - r[0]*(r[0]-1)/2; len(cells) != wantCells {
			t.Fatalf("slice %v has %d cells, want %d", r, len(cells), wantCells)
		}
		got.FoldMax(sliceMax)
	}
	if !got.EqualWithin(want, 0) || got.Max() != want.Max() {
		t.Fatal("single-row-slice merge differs from monolithic assembly")
	}
}

// TestSliceAssemblerNoDoubleInstall pins the cursor discipline a
// re-registered shard worker leans on: a span already covered cannot be
// installed again (replay after a resume recomputes into a FRESH
// assembler, never re-installs into the old one), and a completed
// assembler rejects all further installs.
func TestSliceAssemblerNoDoubleInstall(t *testing.T) {
	counts := []int{3, 2}
	sa, err := NewSliceAssembler(counts, 0, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	local0 := FromLocal(3, func(i, j int) float64 { return shardTestDistance(i, j) })
	if err := sa.SetLocalRows(0, 0, 3, local0.PackedRowsView(0, 3)); err != nil {
		t.Fatal(err)
	}
	// Replaying the identical span must be rejected, not silently merged.
	if err := sa.SetLocalRows(0, 0, 3, local0.PackedRowsView(0, 3)); err == nil {
		t.Fatal("double local install accepted")
	}
	local1 := FromLocal(2, func(i, j int) float64 { return shardTestDistance(3+i, 3+j) })
	if err := sa.SetLocalRows(1, 0, 2, local1.PackedRowsView(0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := sa.SetCrossRows(0, 1, 0, 2, func(m, n int) float64 {
		return shardTestDistance(3+m, n)
	}); err != nil {
		t.Fatal(err)
	}
	if err := sa.SetCrossRows(0, 1, 0, 2, func(m, n int) float64 { return 0 }); err == nil {
		t.Fatal("double cross install accepted")
	}
	if _, _, err := sa.Done(); err != nil {
		t.Fatal(err)
	}
	// Past Done the assembler is sealed: even a hypothetical late replay
	// frame cannot corrupt the handed-off slice.
	if err := sa.SetLocalRows(0, 3, 3, nil); err == nil {
		t.Fatal("local install after Done accepted")
	}
	if err := sa.SetCrossRows(0, 1, 2, 2, nil); err == nil {
		t.Fatal("cross install after Done accepted")
	}
}
