// Package hcluster implements agglomerative hierarchical clustering over a
// dissimilarity matrix — the clustering family the İnan et al. paper targets
// ("we primarily focus on hierarchical clustering methods ... [they] can
// both discover clusters of arbitrary shapes and deal with different data
// types").
//
// The third party runs these algorithms locally on the privately assembled
// dissimilarity matrix; no protocol interaction is involved (paper Section
// 5: "There is no privacy concern after the dissimilarity matrices are
// built"). All seven classical linkages are provided through the
// Lance–Williams recurrence.
//
// Three exact engines back Cluster, selected by linkage (see
// ClusterPar): Prim's minimum-spanning-tree pass for single linkage (O(n²)
// time, O(n) extra space, no working copy), the nearest-neighbor-chain
// algorithm for the remaining reducible linkages — complete, average,
// weighted, Ward — over a condensed packed working copy (guaranteed O(n²)
// time, half the memory of a dense matrix), and the retained
// nearest-neighbor-cached generic loop (the reference implementation,
// near-O(n²) typical, O(n³) worst case) for the non-reducible centroid
// and median linkages. Per-merge Lance–Williams row updates run through
// internal/parallel; results are bit-identical at any worker count.
// The MST and NN-chain engines emit merges in non-decreasing height
// order with ties kept in discovery order (see ClusterPar for the exact
// convention); centroid and median linkage — non-reducible, served by
// the generic engine — can exhibit the classical dendrogram inversions,
// so their merge heights follow discovery order and need not be
// monotone.
package hcluster

import (
	"fmt"
	"math"

	"ppclust/internal/dissim"
	"ppclust/internal/parallel"
)

// Linkage selects the cluster-distance update rule.
type Linkage int

const (
	// Single linkage: d(A,B) = min distance between members.
	Single Linkage = iota
	// Complete linkage: d(A,B) = max distance between members.
	Complete
	// Average (UPGMA): unweighted mean pairwise distance.
	Average
	// Weighted (WPGMA): means weighted by merge history.
	Weighted
	// Centroid (UPGMC): distance between centroids (squared-distance form).
	Centroid
	// Median (WPGMC): distance between median points (squared form).
	Median
	// Ward: minimum within-cluster variance increase (squared form).
	Ward
)

// String names the linkage.
func (l Linkage) String() string {
	switch l {
	case Single:
		return "single"
	case Complete:
		return "complete"
	case Average:
		return "average"
	case Weighted:
		return "weighted"
	case Centroid:
		return "centroid"
	case Median:
		return "median"
	case Ward:
		return "ward"
	default:
		return "unknown"
	}
}

// ParseLinkage resolves a linkage by name, for CLI flags.
func ParseLinkage(name string) (Linkage, error) {
	for l := Single; l <= Ward; l++ {
		if l.String() == name {
			return l, nil
		}
	}
	return 0, fmt.Errorf("hcluster: unknown linkage %q", name)
}

// Validate rejects a value that names none of the seven linkages.
func (l Linkage) Validate() error {
	if l < Single || l > Ward {
		return fmt.Errorf("hcluster: invalid linkage %d", l)
	}
	return nil
}

// usesSquared reports whether the linkage's Lance–Williams form operates on
// squared dissimilarities (heights are square-rooted on output).
func (l Linkage) usesSquared() bool {
	return l == Centroid || l == Median || l == Ward
}

// Merge records one agglomeration step. Nodes are numbered with leaves
// 0..n−1 and internal nodes n, n+1, … in merge order; Node is the id of the
// cluster this merge creates.
type Merge struct {
	// A and B are the node ids of the merged clusters, A < B.
	A, B int
	// Height is the linkage distance at which the merge happened.
	Height float64
	// Size is the number of leaves under the new node.
	Size int
	// Node is the id assigned to the merged cluster.
	Node int
}

// Dendrogram is the full merge history of an agglomerative run.
type Dendrogram struct {
	// NLeaves is the number of clustered objects.
	NLeaves int
	// Linkage records the rule that produced the tree.
	Linkage Linkage
	// Merges holds NLeaves−1 steps in execution order.
	Merges []Merge
}

// lwParams returns the Lance–Williams coefficients for merging clusters of
// sizes ni and nj, evaluated against a cluster of size nk.
func lwParams(l Linkage, ni, nj, nk float64) (ai, aj, beta, gamma float64) {
	switch l {
	case Single:
		return 0.5, 0.5, 0, -0.5
	case Complete:
		return 0.5, 0.5, 0, 0.5
	case Average:
		return ni / (ni + nj), nj / (ni + nj), 0, 0
	case Weighted:
		return 0.5, 0.5, 0, 0
	case Centroid:
		s := ni + nj
		return ni / s, nj / s, -ni * nj / (s * s), 0
	case Median:
		return 0.5, 0.5, -0.25, 0
	case Ward:
		s := ni + nj + nk
		return (ni + nk) / s, (nj + nk) / s, -nk / s, 0
	default:
		panic("hcluster: unknown linkage")
	}
}

func errEmptyMatrix() error { return fmt.Errorf("hcluster: empty dissimilarity matrix") }

// Cluster builds the dendrogram of the matrix under the given linkage,
// serially: ClusterPar at one worker. A matrix with fewer than one object
// is rejected; a single object yields an empty merge list.
func Cluster(d *dissim.Matrix, link Linkage) (*Dendrogram, error) {
	return ClusterPar(d, link, 1)
}

// clusterGeneric is the retained reference engine: a dense working matrix
// with a nearest-neighbor cache and a global minimum scan per step
// (near-O(n²) on typical inputs, O(n³) worst case). The per-merge
// Lance–Williams row update runs through the parallel engine; every
// partner writes only its own cells, so results are bit-identical at any
// worker count.
func clusterGeneric(d *dissim.Matrix, link Linkage, workers int) *Dendrogram {
	n := d.N()
	dg := &Dendrogram{NLeaves: n, Linkage: link, Merges: make([]Merge, 0, n-1)}
	if n == 1 {
		return dg
	}

	// Working square matrix of current cluster distances.
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			v := d.At(i, j)
			if link.usesSquared() {
				v *= v
			}
			dist[i][j] = v
		}
	}

	active := make([]bool, n)
	size := make([]float64, n)
	node := make([]int, n) // dendrogram node id currently living in slot i
	for i := range active {
		active[i] = true
		size[i] = 1
		node[i] = i
	}

	// Nearest-neighbor cache: nn[i] is an active j != i minimizing
	// dist[i][j]; valid only for active i.
	nn := make([]int, n)
	recomputeNN := func(i int) {
		best, bestD := -1, math.Inf(1)
		for j := 0; j < n; j++ {
			if j == i || !active[j] {
				continue
			}
			if dist[i][j] < bestD {
				best, bestD = j, dist[i][j]
			}
		}
		nn[i] = best
	}
	for i := 0; i < n; i++ {
		recomputeNN(i)
	}

	nextNode := n
	for step := 0; step < n-1; step++ {
		// Find the globally closest active pair via the cache.
		bi, bd := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if !active[i] || nn[i] < 0 {
				continue
			}
			if dv := dist[i][nn[i]]; dv < bd {
				bi, bd = i, dv
			}
		}
		i, j := bi, nn[bi]
		if i > j {
			i, j = j, i
		}
		dij := dist[i][j]

		// Lance–Williams update of every other active cluster's distance
		// to the merged cluster, stored in slot i. Each partner k writes
		// only its own pair of cells, so the parallel fan-out is
		// bit-identical to the serial walk (and gated to rows long
		// enough to amortize the fork/join).
		ni, nj := size[i], size[j]
		parallel.Range(rowWorkers(workers, n), n, func(_, from, to int) {
			for k := from; k < to; k++ {
				if !active[k] || k == i || k == j {
					continue
				}
				ai, aj, beta, gamma := lwParams(link, ni, nj, size[k])
				upd := ai*dist[i][k] + aj*dist[j][k] + beta*dij + gamma*math.Abs(dist[i][k]-dist[j][k])
				dist[i][k] = upd
				dist[k][i] = upd
			}
		})

		height := dij
		if link.usesSquared() {
			height = math.Sqrt(math.Max(0, dij))
		}
		a, b := node[i], node[j]
		if a > b {
			a, b = b, a
		}
		dg.Merges = append(dg.Merges, Merge{
			A: a, B: b, Height: height, Size: int(ni + nj), Node: nextNode,
		})

		active[j] = false
		size[i] = ni + nj
		node[i] = nextNode
		nextNode++

		if step == n-2 {
			break
		}
		recomputeNN(i)
		for k := 0; k < n; k++ {
			if !active[k] || k == i {
				continue
			}
			if nn[k] == i || nn[k] == j {
				recomputeNN(k)
			} else if dist[k][i] < dist[k][nn[k]] {
				nn[k] = i
			}
		}
	}
	return dg
}
