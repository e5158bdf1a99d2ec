package hcluster

import (
	"math"
	"slices"

	"ppclust/internal/dissim"
	"ppclust/internal/parallel"
)

// reducible reports whether NN-chain is exact for the linkage: the
// Lance–Williams update may never bring two clusters closer than the pair
// that just merged. Centroid and median linkage violate this (inversions),
// so they always use the generic engine.
func (l Linkage) reducible() bool {
	return l != Centroid && l != Median
}

// ClusterPar builds the dendrogram of the matrix under the given linkage
// with an explicit worker count for the per-merge row updates and the
// working-copy construction (<= 0 = all cores); results are bit-identical
// at any count. The engine follows the linkage: Prim's minimum spanning
// tree for single, the nearest-neighbor chain for the other reducible
// linkages (complete, average, weighted, Ward), where it is exact in O(n²)
// time and O(n) extra space beyond the condensed working copy, and the
// generic nearest-neighbor-cached engine for centroid and median, where
// NN-chain would not reproduce the minimum-distance merge order.
//
// Tie-breaking convention: the NN-chain engine scans for a nearest
// neighbor preferring the previous chain element on equal distance, then
// the lowest slot index; merges are ordered by non-decreasing height with
// ties kept in discovery order. The generic engine merges the globally
// closest pair, preferring the lowest (i, j). The two conventions produce
// the same tree whenever pairwise cluster distances are distinct; under
// exact ties the trees may differ in which equal-height merge happens
// first (the induced partitions at every distinct height coincide).
func ClusterPar(d *dissim.Matrix, link Linkage, workers int) (*Dendrogram, error) {
	if d.N() < 1 {
		return nil, errEmptyMatrix()
	}
	if err := link.Validate(); err != nil {
		return nil, err
	}
	switch {
	case link == Single:
		// Single linkage needs no Lance–Williams updates at all: its
		// dendrogram is the minimum spanning tree of the original matrix
		// with edges replayed in weight order, computed by Prim's
		// algorithm directly over the read-only condensed storage in
		// O(n²) time and O(n) extra space.
		return clusterMSTSingle(d, workers), nil
	case link.reducible():
		return clusterNNChain(d, link, workers), nil
	default:
		return clusterGeneric(d, link, workers), nil
	}
}

// clusterMSTSingle is the single-linkage fast path: Prim's minimum
// spanning tree over the condensed matrix (each step folds the newly
// visited object's row into the frontier distances and picks the closest
// unvisited object), then the shared sort + union-find relabeling. The
// MST edge set sorted by weight is exactly the single-linkage merge
// sequence. The frontier fold is driven through the parallel engine;
// each unvisited slot owns its dmin cell, and the subsequent arg-min
// reduction runs serially in slot order, so results are bit-identical at
// any worker count.
func clusterMSTSingle(d *dissim.Matrix, workers int) *Dendrogram {
	n := d.N()
	dg := &Dendrogram{NLeaves: n, Linkage: Single, Merges: make([]Merge, 0, n-1)}
	if n == 1 {
		return dg
	}
	w := d.PackedView()
	visited := make([]bool, n)
	dmin := make([]float64, n)
	from := make([]int, n) // frontier edge partner realizing dmin
	for i := range dmin {
		dmin[i] = math.Inf(1)
		from[i] = 0
	}
	raw := make([]rawMerge, 0, n-1)
	cur := 0
	foldWorkers := rowWorkers(workers, n)
	for len(raw) < n-1 {
		visited[cur] = true
		row := cur * (cur - 1) / 2
		parallel.Range(foldWorkers, n, func(_, lo, hi int) {
			for z := lo; z < hi; z++ {
				if visited[z] {
					continue
				}
				var v float64
				if z < cur {
					v = w[row+z]
				} else {
					v = w[z*(z-1)/2+cur]
				}
				if v < dmin[z] {
					dmin[z] = v
					from[z] = cur
				}
			}
		})
		best, bestD := -1, math.Inf(1)
		for z := 0; z < n; z++ {
			if !visited[z] && dmin[z] < bestD {
				best, bestD = z, dmin[z]
			}
		}
		a, b := from[best], best
		if a > b {
			a, b = b, a
		}
		raw = append(raw, rawMerge{a: a, b: b, h: bestD})
		cur = best
	}
	return labelMerges(dg, raw, Single, n)
}

// rowParallelGrain gates the per-merge fan-out: a Lance–Williams row
// update or MST frontier fold touches n cells of ~ns-scale work each,
// while a multi-worker fork/join costs on the order of 10µs, so each
// worker must own at least this many cells to amortize its spawn. The
// gate never affects results — every cell's value is independent of the
// worker count — it only avoids paying the spawn cost n−1 times for
// chunks too small to earn it (at n=500 the whole row runs inline; the
// fan-out engages progressively from n≈16k).
const rowParallelGrain = 8192

// grainWorkers resolves the worker count for a pass over `work` units of
// ~ns-scale cost each (condensed cells, d.At reads), capping the
// resolved core count so every worker gets at least rowParallelGrain
// units. The gate never changes computed values, only scheduling.
func grainWorkers(workers, work int) int {
	maxW := work / rowParallelGrain
	if maxW <= 1 {
		return 1
	}
	if w := parallel.Workers(workers); w < maxW {
		return w
	}
	return maxW
}

// rowWorkers is grainWorkers for one O(n) per-merge row pass.
func rowWorkers(workers, n int) int {
	return grainWorkers(workers, n)
}

// condIdx maps an unordered object pair to its packed lower-triangle
// index, the condensed layout shared with dissim.Matrix: d(i,j) with
// i > j lives at i(i−1)/2 + j.
func condIdx(i, j int) int {
	if i < j {
		i, j = j, i
	}
	return i*(i-1)/2 + j
}

// rawMerge is one NN-chain agglomeration before height sorting: a and b
// are the working slots (original leaf indices standing for their current
// clusters) merged at height h.
type rawMerge struct {
	a, b int
	h    float64
}

// clusterNNChain is the nearest-neighbor-chain engine (Benzécri / Juan;
// Müllner 2011): grow a chain of nearest neighbors until a reciprocal
// pair is found, merge it, and keep the remaining chain — reducibility
// guarantees it stays a valid nearest-neighbor chain. Every object is
// appended to the chain O(1) times amortized, each append costs one scan
// and each merge one Lance–Williams row update, O(n²) in all; both walk only
// the live slots (ascending; a merge retires the lower slot), n − m cells
// after m merges. The working copy is a condensed upper-triangular
// []float64 in dissim.Matrix's packed layout — half the memory of a dense
// matrix and cache-linear row walks.
func clusterNNChain(d *dissim.Matrix, link Linkage, workers int) *Dendrogram {
	n := d.N()
	dg := &Dendrogram{NLeaves: n, Linkage: link, Merges: make([]Merge, 0, n-1)}
	if n == 1 {
		return dg
	}

	// Condensed working copy (squared, in parallel, for the squared-form
	// linkages; else a clone, which zeroes nothing it then overwrites).
	src := d.PackedView()
	var w []float64
	if link.usesSquared() {
		w = make([]float64, len(src))
		parallel.Range(workers, len(src), func(_, lo, hi int) {
			for c := lo; c < hi; c++ {
				v := src[c]
				w[c] = v * v
			}
		})
	} else {
		w = slices.Clone(src)
	}

	live := make([]int, n) // ascending slots still standing for a cluster
	size := make([]float64, n)
	for i := range live {
		live[i] = i
		size[i] = 1
	}

	chain := make([]int, 0, n)
	raw := make([]rawMerge, 0, n-1)

	for len(raw) < n-1 {
		if len(chain) == 0 {
			chain = append(chain, live[0])
		}
		// Extend the chain until a reciprocal nearest-neighbor pair
		// appears at its end.
		var x, y int
		var dxy float64
		for {
			x = chain[len(chain)-1]
			prev := -1
			if len(chain) > 1 {
				prev = chain[len(chain)-2]
			}
			y, dxy = nearestActive(w, live, x, prev)
			if y == prev {
				break
			}
			chain = append(chain, y)
		}
		chain = chain[:len(chain)-2] // pop x and y

		// Merge x and y at height dxy; the merged cluster lives in the
		// higher slot (longer contiguous condensed row).
		lo, hi := x, y
		if lo > hi {
			lo, hi = hi, lo
		}
		raw = append(raw, rawMerge{a: lo, b: hi, h: dxy})
		lwUpdate(w, live, size, lo, hi, dxy, link, workers)
		p, _ := slices.BinarySearch(live, lo)
		live = slices.Delete(live, p, p+1)
		size[hi] += size[lo]
	}

	return labelMerges(dg, raw, link, n)
}

// nearestActive returns the live slot nearest to x (excluding x) and its
// distance. Ties prefer prev (the previous chain element, which guarantees
// termination), then the lowest slot index. The scan walks the live slots
// in ascending order — so the first strictly smaller distance wins, as in
// an all-slot scan — reading slot x's condensed row for partners below x,
// then one cell of each live row above x for its column.
func nearestActive(w []float64, live []int, x, prev int) (int, float64) {
	best, bestD := -1, math.Inf(1)
	if prev >= 0 {
		best, bestD = prev, w[condIdx(x, prev)]
	}
	p, _ := slices.BinarySearch(live, x)
	row := w[x*(x-1)/2 : x*(x+1)/2]
	for _, z := range live[:p] {
		if v := row[z]; v < bestD {
			best, bestD = z, v
		}
	}
	for _, z := range live[p+1:] {
		if v := w[z*(z-1)/2+x]; v < bestD {
			best, bestD = z, v
		}
	}
	return best, bestD
}

// lwUpdate applies the Lance–Williams recurrence for the merge of slots
// lo and hi (at squared-form distance dij) to every other live slot,
// writing the merged cluster's distances into slot hi. The per-linkage
// inner loops avoid a coefficient recomputation per partner; Ward and
// the size-weighted forms fold the partner size in exactly as lwParams
// does. The live list is split over the parallel engine: every partner
// writes only its own condensed cell, so the result is bit-identical at
// any worker count. At one row worker — every n below the row grain — the
// body runs inline: a closure handed to the engine is a heap allocation
// per merge.
func lwUpdate(w []float64, live []int, size []float64, lo, hi int, dij float64, link Linkage, workers int) {
	if rw := rowWorkers(workers, len(live)); rw > 1 {
		parallel.Range(rw, len(live), func(_, from, to int) {
			lwUpdateRange(w, live[from:to], size, lo, hi, dij, link)
		})
		return
	}
	lwUpdateRange(w, live, size, lo, hi, dij, link)
}

// lwUpdateRange is lwUpdate for the partners in part, a piece of live.
func lwUpdateRange(w []float64, part []int, size []float64, lo, hi int, dij float64, link Linkage) {
	ni, nj := size[lo], size[hi]
	rlo, rhi := lo*(lo-1)/2, hi*(hi-1)/2
	avgI, avgJ := ni/(ni+nj), nj/(ni+nj)
	for _, k := range part {
		if k == lo || k == hi {
			continue
		}
		// Resolve both condensed cells once: contiguous row walks
		// when k sits below the slot, column offsets above it.
		var iik, ijk int
		if k < lo {
			iik = rlo + k
		} else {
			iik = k*(k-1)/2 + lo
		}
		if k < hi {
			ijk = rhi + k
		} else {
			ijk = k*(k-1)/2 + hi
		}
		dik, djk := w[iik], w[ijk]
		var v float64
		switch link {
		case Single:
			if dik < djk {
				v = dik
			} else {
				v = djk
			}
		case Complete:
			if dik > djk {
				v = dik
			} else {
				v = djk
			}
		case Average:
			v = avgI*dik + avgJ*djk
		case Weighted:
			v = 0.5*dik + 0.5*djk
		case Ward:
			nk := size[k]
			s := ni + nj + nk
			v = ((ni+nk)/s)*dik + ((nj+nk)/s)*djk + (-nk/s)*dij
		default:
			// Centroid/median are routed to the generic engine
			// before this point; keep the generic recurrence for
			// completeness.
			ai, aj, beta, gamma := lwParams(link, ni, nj, size[k])
			v = ai*dik + aj*djk + beta*dij + gamma*math.Abs(dik-djk)
		}
		w[ijk] = v
	}
}

// labelMerges sorts the raw NN-chain merges by height (stable, so ties
// keep discovery order) and replays them through a union-find to assign
// dendrogram node ids in height order, exactly the numbering the generic
// engine produces for distinct heights. Reducibility guarantees that a
// cluster is always created at a height no greater than any later merge
// consuming it, so the sorted replay is well-defined.
func labelMerges(dg *Dendrogram, raw []rawMerge, link Linkage, n int) *Dendrogram {
	slices.SortStableFunc(raw, func(a, b rawMerge) int {
		switch {
		case a.h < b.h:
			return -1
		case a.h > b.h:
			return 1
		default:
			return 0
		}
	})

	parent := make([]int, n)
	node := make([]int, n)  // dendrogram node id at each union-find root
	count := make([]int, n) // leaves under each root
	for i := range parent {
		parent[i] = i
		node[i] = i
		count[i] = 1
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	next := n
	for _, m := range raw {
		ra, rb := find(m.a), find(m.b)
		a, b := node[ra], node[rb]
		if a > b {
			a, b = b, a
		}
		h := m.h
		if link.usesSquared() {
			h = math.Sqrt(math.Max(0, h))
		}
		parent[rb] = ra
		node[ra] = next
		count[ra] += count[rb]
		dg.Merges = append(dg.Merges, Merge{
			A: a, B: b, Height: h, Size: count[ra], Node: next,
		})
		next++
	}
	return dg
}
