// Row-range sharding of the packed triangle — the dissim side of the
// K-way sharded third party. A shard owns a contiguous range of global
// rows [lo, hi), which is one contiguous slice of the condensed matrix
// (see SliceAssembler), so shards assemble disjoint slices that
// concatenate into the full triangle with no overlap and no reshuffling:
// ShardRanges computes the partition. Every slice is assembled where it
// lies in the one matrix: a shard's SliceAssembler writes through
// PackedRowsView (NewSliceAssemblerInto), whether its rows arrive from the
// holders or, evaluated, from a worker process.
package dissim

// ShardRanges partitions the rows [0, n) of an n-object packed triangle
// into at most k contiguous, non-empty row ranges, balanced by packed
// cell count (row i carries i cells). It is deterministic: every party
// derives the identical partition from (n, k) alone, exactly like the
// chunk schedules. The result has min(k, n) ranges — never an empty
// range, never a dropped row — and their concatenation is [0, n).
// n <= 0 yields nil (no rows to own).
func ShardRanges(n, k int) [][2]int {
	if n <= 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	ranges := make([][2]int, 0, k)
	lo := 0
	remCells := n * (n - 1) / 2 // cells in rows [lo, n)
	for s := 0; s < k; s++ {
		remShards := k - s
		if remShards == 1 {
			ranges = append(ranges, [2]int{lo, n})
			break
		}
		target := (remCells + remShards - 1) / remShards
		// Take rows until the shard holds ~1/remShards of the remaining
		// cells, but always at least one row, and leave at least one row
		// for every shard after this one.
		maxHi := n - (remShards - 1)
		hi, cells := lo, 0
		for hi < maxHi {
			cells += hi // row hi holds hi packed cells
			hi++
			if cells >= target {
				break
			}
		}
		ranges = append(ranges, [2]int{lo, hi})
		lo = hi
		remCells -= cells
	}
	return ranges
}
