// Package pam implements Partitioning Around Medoids (k-medoids,
// Kaufman & Rousseeuw): a partitioning clustering algorithm that — unlike
// the k-means baseline — operates directly on a dissimilarity matrix.
//
// This matters for the İnan et al. system: the paper argues that
// partitioning algorithms "can not handle string data type for which a
// 'mean' is not defined", which is true of k-means; PAM sidesteps the
// objection because medoids are data objects, not means. Offering it to the
// third party demonstrates the protocol's claimed "generality in
// applicability to different clustering methods": any algorithm consuming
// the dissimilarity matrix works, including partitioning ones.
//
// The SWAP phase uses FastPAM1-style evaluation (Schubert & Rousseeuw
// 2019): per-object nearest and second-nearest medoid distances are
// cached, so one round scores every (medoid, candidate) exchange in O(n²)
// total instead of the classic O(kn²), and the steepest-descent swap is
// applied per round. BUILD keeps the classic greedy gain selection (with
// the stream breaking exact ties, as before) but evaluates candidate
// gains through the parallel engine. All parallel stages compute fixed
// per-candidate partials reduced serially in index order, so results are
// bit-identical at any worker count.
package pam

import (
	"fmt"
	"math"
	"sort"

	"ppclust/internal/dissim"
	"ppclust/internal/parallel"
	"ppclust/internal/rng"
)

// Result is a PAM clustering outcome.
type Result struct {
	// Medoids holds the k medoid object indices, sorted.
	Medoids []int
	// Labels assigns each object to a medoid position (0..k-1).
	Labels []int
	// Cost is the sum of dissimilarities of objects to their medoids.
	Cost float64
	// SwapIterations counts completed swap rounds.
	SwapIterations int
}

// Config bounds a run; the zero value gives max(100, n) swap rounds on
// all cores.
type Config struct {
	// MaxIterations caps the number of swap rounds. One round evaluates
	// every (medoid, candidate) exchange and applies the single best
	// improvement, so a run accepts at most MaxIterations swaps; <= 0
	// selects max(100, n), enough for steepest descent to converge in
	// practice at any size (the pre-FastPAM loop could accept many swaps
	// per round, so a flat 100 would silently truncate large instances).
	MaxIterations int
	// Workers is the parallel engine's worker count for BUILD gain
	// evaluation and swap-round scoring: 0 or negative selects all
	// cores, 1 runs serially. Results are bit-identical at any setting.
	Workers int
}

// swapEpsilon is the minimum cost decrease for accepting a swap, guarding
// against float-noise livelock (same threshold the pre-FastPAM loop used).
const swapEpsilon = 1e-15

// Cluster runs PAM (BUILD + SWAP) on the matrix. The stream breaks cost
// ties during BUILD, keeping runs deterministic for a given seed.
func Cluster(d *dissim.Matrix, k int, stream rng.Stream, cfg Config) (*Result, error) {
	n := d.N()
	if k < 1 || k > n {
		return nil, fmt.Errorf("pam: k=%d with %d objects", k, n)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 100
		if n > 100 {
			cfg.MaxIterations = n
		}
	}
	workers := parallel.Workers(cfg.Workers)
	// PAM reads the matrix a row at a time (dissim.Matrix.Row): each
	// worker gathers the row of the candidate it scores into its own
	// reused buffer, and each medoid's row is kept while it is one.
	scratch := make([][]float64, min(workers, n))

	medoids, medoidRows, isMedoid := build(d, k, stream, workers, scratch)

	// Per-object caches: distance to the nearest and second-nearest
	// medoid, and the nearest medoid's position in medoids.
	nearest := make([]float64, n)
	second := make([]float64, n)
	nearestIdx := make([]int, n)
	recomputeCaches(medoidRows, nearest, second, nearestIdx, workers)

	res := &Result{}
	deltas := make([]float64, n*k)
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		res.SwapIterations = iter + 1
		swapDeltas(d, k, isMedoid, nearest, second, nearestIdx, deltas, workers, scratch)
		// Serial arg-min in fixed (candidate, medoid) order: the lowest
		// pair wins exact ties, independent of the worker count.
		bestC, bestM, bestDelta := -1, -1, 0.0
		for c := 0; c < n; c++ {
			if isMedoid[c] {
				continue
			}
			row := deltas[c*k : c*k+k]
			for m, dv := range row {
				if dv < bestDelta {
					bestC, bestM, bestDelta = c, m, dv
				}
			}
		}
		if bestC < 0 || bestDelta >= -swapEpsilon {
			break
		}
		isMedoid[medoids[bestM]] = false
		isMedoid[bestC] = true
		medoids[bestM] = bestC
		medoidRows[bestM] = d.Row(medoidRows[bestM], bestC)
		recomputeCaches(medoidRows, nearest, second, nearestIdx, workers)
	}

	// Final assignment from the caches; the cost sum runs serially in
	// object order.
	labels := make([]int, n)
	copy(labels, nearestIdx)
	cost := 0.0
	for _, v := range nearest {
		cost += v
	}

	// Canonicalize: sort medoids and remap labels accordingly.
	order := make([]int, len(medoids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return medoids[order[a]] < medoids[order[b]] })
	remap := make([]int, len(medoids))
	sortedMedoids := make([]int, len(medoids))
	for newPos, oldPos := range order {
		remap[oldPos] = newPos
		sortedMedoids[newPos] = medoids[oldPos]
	}
	for i := range labels {
		labels[i] = remap[labels[i]]
	}
	res.Medoids = sortedMedoids
	res.Labels = labels
	res.Cost = cost
	return res, nil
}

// build is the classic greedy BUILD: add the medoid with the largest cost
// reduction, k times. Candidate gains are evaluated concurrently — each
// candidate's sum runs serially in object order, exactly as the serial
// loop computed it — and the arg-max scan (including the stream's
// tie-break draws) replays serially in candidate order, so the selected
// medoids and the stream consumption are identical at any worker count.
// It returns each medoid's row beside it.
func build(d *dissim.Matrix, k int, stream rng.Stream, workers int, scratch [][]float64) (medoids []int, medoidRows [][]float64, isMedoid []bool) {
	n := d.N()
	medoids = make([]int, 0, k)
	medoidRows = make([][]float64, 0, k)
	isMedoid = make([]bool, n)
	// nearest[i] = dissimilarity of i to its closest chosen medoid.
	nearest := make([]float64, n)
	for i := range nearest {
		nearest[i] = math.Inf(1)
	}
	gains := make([]float64, n)
	for len(medoids) < k {
		parallel.Range(workers, n, func(w, lo, hi int) {
			for c := lo; c < hi; c++ {
				if isMedoid[c] {
					gains[c] = 0
					continue
				}
				scratch[w] = d.Row(scratch[w], c)
				gain := 0.0
				for i, dic := range scratch[w] {
					if isMedoid[i] || i == c {
						continue
					}
					if diff := nearest[i] - dic; diff > 0 && !math.IsInf(nearest[i], 1) {
						gain += diff
					} else if math.IsInf(nearest[i], 1) {
						gain += -dic // first medoid: minimize total distance
					}
				}
				gains[c] = gain
			}
		})
		best, bestGain := -1, math.Inf(-1)
		for c := 0; c < n; c++ {
			if isMedoid[c] {
				continue
			}
			if gains[c] > bestGain || (gains[c] == bestGain && best >= 0 && rng.Bool(stream)) {
				best, bestGain = c, gains[c]
			}
		}
		row := d.Row(nil, best)
		medoids, medoidRows = append(medoids, best), append(medoidRows, row)
		isMedoid[best] = true
		for i, v := range row {
			if v < nearest[i] {
				nearest[i] = v
			}
		}
	}
	return medoids, medoidRows, isMedoid
}

// recomputeCaches refreshes the nearest/second-nearest medoid distances
// and the nearest medoid position for every object from the medoids'
// rows, in medoid position order. Each object is computed independently
// (medoid scan in position order), so the parallel fan-out is
// bit-identical to the serial walk.
func recomputeCaches(medoidRows [][]float64, nearest, second []float64, nearestIdx []int, workers int) {
	parallel.Range(workers, len(nearest), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			d1, d2, idx := math.Inf(1), math.Inf(1), 0
			for mi, row := range medoidRows {
				v := row[i]
				if v < d1 {
					d1, d2, idx = v, d1, mi
				} else if v < d2 {
					d2 = v
				}
			}
			nearest[i], second[i], nearestIdx[i] = d1, d2, idx
		}
	})
}

// swapDeltas scores every (medoid position m, candidate c) exchange in
// one O(n) pass per candidate (FastPAM1): for each object o the cost
// change decomposes into a shared term min(d(o,c) − nearest(o), 0) that
// applies whichever medoid is removed, plus a correction for o's own
// nearest medoid, whose removal re-homes o to min(d(o,c), second(o)).
// deltas[c*k+m] receives the total cost change of swapping medoid m for
// candidate c; rows of medoid objects are zeroed. Each candidate owns its
// row and accumulates in object order, so results are bit-identical at
// any worker count. Worker w gathers each candidate's row into scratch[w].
func swapDeltas(d *dissim.Matrix, k int, isMedoid []bool, nearest, second []float64, nearestIdx []int, deltas []float64, workers int, scratch [][]float64) {
	n := d.N()
	parallel.Range(workers, n, func(w, lo, hi int) {
		for c := lo; c < hi; c++ {
			row := deltas[c*k : c*k+k]
			for m := range row {
				row[m] = 0
			}
			if isMedoid[c] {
				continue
			}
			scratch[w] = d.Row(scratch[w], c)
			shared := 0.0
			for o, doc := range scratch[w] {
				dn, ds := nearest[o], second[o]
				sh := 0.0
				if doc < dn {
					sh = doc - dn
				}
				shared += sh
				// Removing o's own medoid re-homes o to c or its second
				// choice; replace the shared term with that difference.
				own := ds - dn
				if doc < ds {
					own = doc - dn
				}
				row[nearestIdx[o]] += own - sh
			}
			for m := range row {
				row[m] += shared
			}
		}
	})
}

// Clusters converts a Result into member lists ordered by medoid.
func (r *Result) Clusters() [][]int {
	out := make([][]int, len(r.Medoids))
	for i, l := range r.Labels {
		out[l] = append(out[l], i)
	}
	return out
}
