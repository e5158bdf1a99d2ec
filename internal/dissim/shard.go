// Row-range sharding of the packed triangle — the dissim side of the
// K-way sharded third party. A shard owns a contiguous range of global
// rows [lo, hi), which is one contiguous slice of the condensed matrix
// (see SliceAssembler), so shards assemble disjoint slices that
// concatenate into the full triangle with no overlap and no reshuffling:
// ShardRanges computes the partition. Every slice is assembled where it
// lies in the one matrix: an in-process shard's SliceAssembler writes
// through PackedRowsView (NewSliceAssemblerInto), and SetRowsLE installs
// the chunks of a slice that arrived from a worker process.
package dissim

import (
	"encoding/binary"
	"fmt"
	"math"
)

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

// SetRowsLE installs the packed cells of rows [lo, hi) as a frame carries
// them — 8 little-endian bytes of float64 bits each — decoded straight into
// the matrix: the coordinator's install of one chunk of a slice that a
// worker process assembled. Each cell is validated like FromPacked, and the
// rows' maximum is returned rather than folded into the maximum cache, so
// installs into disjoint rows may run concurrently; the caller folds the
// maxima in with FoldMax once they are done. Refused cells leave the rows
// zero. cells is only read.
func (m *Matrix) SetRowsLE(lo, hi int, cells []byte) (float64, error) {
	if lo < 0 || hi < lo || hi > m.n {
		return 0, fmt.Errorf("dissim: row range [%d,%d) out of range for n=%d", lo, hi, m.n)
	}
	dst := m.cell[lo*(lo-1)/2 : hi*(hi-1)/2]
	if len(cells) != 8*len(dst) {
		return 0, fmt.Errorf("dissim: %d bytes for the %d cells of rows [%d,%d)", len(cells), len(dst), lo, hi)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(cells[8*i:]))
	}
	bad, max := scanRow(dst)
	if bad >= 0 {
		err := fmt.Errorf("dissim: invalid packed entry %v at offset %d of rows [%d,%d)", dst[bad], bad, lo, hi)
		clear(dst)
		return 0, err
	}
	return max, nil
}
