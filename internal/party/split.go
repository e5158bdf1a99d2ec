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
// every party: costmodel.SplitRows balances the cells each holder's links to
// the third party carry, and costmodel's numeric forms count the links it
// leaves. Alphanumeric blocks are not cut (h = n_k): no deployment is
// bound by their bytes, and their M matrices are not sized by the census.

import (
	"ppclust/internal/costmodel"
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
	split   []int    // numeric split row of each pair (costmodel.SplitRows)
}

func newCensus(counts []int) *census {
	c := &census{counts: counts, offsets: make([]int, len(counts)), pairs: sortedPairs(len(counts))}
	for i, n := range counts {
		c.offsets[i] = c.total
		c.total += n
	}
	c.split = costmodel.SplitRows(counts, c.pairs)
	return c
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
