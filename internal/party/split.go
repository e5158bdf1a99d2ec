package party

// Splitting each pair block between its two holders.
//
// Figures 4–6 make the initiator J disguise and the responder K combine, so
// the holder that responds carries the whole n_k × n_j block of a pair to
// the third party on top of its own local triangle. The roles are
// interchangeable (protocol.InitiatorRows), so the session cuts each numeric
// or ordered block at a responder row h:
//
//   - rows [0, h) are produced by K exactly as in the paper: J disguises its
//     values under the (J, TP) mask stream, K combines and streams the rows;
//   - rows [h, n_k) are produced by J with the roles swapped: K disguises its
//     own values for those rows under a (K, TP) mask stream and a second
//     (J, K) parity stream, J combines them with its values and streams the
//     rows — still K's objects, so they install like any other rows.
//
// Per pair, the holder link carries J's disguise to K first and K's back
// second: J sends, K receives and then sends, J receives. Every holder walks
// the pairs in the same order, so the blocking sends never form a cycle.
//
// h is a pure function of the census and the attribute type, the same at
// every party: splitRows balances the cells each holder's links to the third
// party carry. Alphanumeric blocks are not cut (h = n_k): no deployment is
// bound by their bytes, and their M matrices are not sized by the census.

import (
	"ppclust/internal/dataset"
)

// census is the session's public shape once the counts are known, and
// everything the chunk schedules derive from it: every party computes the
// identical value, so each knows every frame's rows before the first one
// moves.
type census struct {
	counts  []int
	offsets []int // global row offset of each holder's first object
	total   int
	pairs   [][2]int // sortedPairs order
	split   []int    // numeric split row of each pair (splitRows)
}

func newCensus(counts []int) *census {
	c := &census{counts: counts, offsets: make([]int, len(counts)), pairs: sortedPairs(len(counts))}
	for i, n := range counts {
		c.offsets[i] = c.total
		c.total += n
	}
	c.split = splitRows(counts, c.pairs)
	return c
}

// splitRows plans the numeric split row of every pair, in order: each
// holder's load starts at its local triangle, and each pair's block goes
// to whichever split leaves the larger of its two holders' loads smallest
// (ties keep rows with the responder), given the loads the earlier pairs
// left. With two holders that equalises the two loads to within one row;
// with more, no holder ends up carrying more than the most loaded holder
// carried when every responder produced its whole blocks. An empty
// initiator's block has no cells to move and stays whole.
func splitRows(counts []int, pairs [][2]int) []int {
	load := make([]int, len(counts))
	for i, n := range counts {
		load[i] = n * (n - 1) / 2
	}
	split := make([]int, len(pairs))
	for p, pr := range pairs {
		j, k := pr[0], pr[1]
		nj, nk := counts[j], counts[k]
		worst := func(h int) int { return max(load[j]+(nk-h)*nj, load[k]+h*nj) }
		h := nk
		if nj > 0 {
			// The loads meet at (load_J − load_K + n_k·n_j) / (2·n_j); of the
			// rows either side, take the better.
			h = min(max((load[j]-load[k]+nk*nj)/(2*nj), 0), nk)
			if h < nk && worst(h+1) <= worst(h) {
				h++
			}
		}
		split[p] = h
		load[j] += (nk - h) * nj
		load[k] += h * nj
	}
	return split
}

// splitAt is the responder row at which pair p's block of an attribute of
// type t is cut.
func (c *census) splitAt(t dataset.AttrType, p int) int {
	if t == dataset.Alphanumeric {
		return c.counts[c.pairs[p][1]]
	}
	return c.split[p]
}

// pairShare is the part of one pair block one holder produces: responder
// rows [lo, hi) of pair p, by the responder k or — byInitiator, rows from
// the split on — the initiator j.
type pairShare struct {
	p, j, k     int
	lo, hi      int
	byInitiator bool
}

// sender is the holder that produces the share.
func (s pairShare) sender() int {
	if s.byInitiator {
		return s.j
	}
	return s.k
}

// shares lists holder hi's non-empty shares of the pair blocks of an
// attribute of type t, restricted to the responder rows rows(k) returns,
// in the order the holder sends them: pairs in sortedPairs order.
func (c *census) shares(hi int, t dataset.AttrType, rows func(k int) (int, int)) []pairShare {
	var out []pairShare
	for p, pr := range c.pairs {
		j, k := pr[0], pr[1]
		if hi != j && hi != k {
			continue
		}
		lo, up := rows(k)
		s := pairShare{p: p, j: j, k: k, lo: lo, hi: up, byInitiator: hi == j}
		if h := c.splitAt(t, p); s.byInitiator {
			s.lo = max(lo, h)
		} else {
			s.hi = min(up, h)
		}
		if s.lo < s.hi {
			out = append(out, s)
		}
	}
	return out
}
