package hcluster

import (
	"fmt"

	"ppclust/internal/dissim"
	"ppclust/internal/parallel"
)

// ClusterQuality is the per-cluster statistic the third party may publish
// alongside memberships (paper Section 5: "clustering quality parameters
// such as average of square distance between members") — safe to release
// because it reveals aggregates, not the dissimilarity matrix.
type ClusterQuality struct {
	// Size is the number of members.
	Size int
	// AvgSquaredDistance is the mean of d(i,j)² over member pairs; 0 for
	// singletons.
	AvgSquaredDistance float64
	// Diameter is the maximum pairwise distance within the cluster.
	Diameter float64
}

// Quality computes per-cluster statistics over the dissimilarity matrix.
func Quality(d *dissim.Matrix, clusters [][]int) ([]ClusterQuality, error) {
	return QualityPar(d, clusters, 1)
}

// QualityPar is Quality with an explicit worker count (<= 0 = all cores).
// The O(n²) pair scans are flattened into per-member row units that fan
// out over the parallel engine; each unit's partial sum accumulates in
// member order and the per-cluster reduction replays the units serially,
// so scores are bit-identical at any worker count.
func QualityPar(d *dissim.Matrix, clusters [][]int, workers int) ([]ClusterQuality, error) {
	n := d.N()
	for _, members := range clusters {
		for _, m := range members {
			if m < 0 || m >= n {
				return nil, fmt.Errorf("hcluster: member %d out of range", m)
			}
		}
	}
	// One unit per (cluster, member row): rows a >= 1 of cluster c cover
	// the pairs (members[a], members[b]) with b < a.
	type unit struct{ c, a int }
	var units []unit
	for c, members := range clusters {
		for a := 1; a < len(members); a++ {
			units = append(units, unit{c, a})
		}
	}
	rowSq := make([]float64, len(units))
	rowMax := make([]float64, len(units))
	w := d.PackedView()
	parallel.Range(workers, len(units), func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			members := clusters[units[u].c]
			a := units[u].a
			i := members[a]
			sq, max := 0.0, 0.0
			for b := 0; b < a; b++ {
				v := 0.0 // the diagonal, when a list repeats a member
				if m := members[b]; m != i {
					v = w[condIdx(i, m)]
				}
				sq += v * v
				if v > max {
					max = v
				}
			}
			rowSq[u], rowMax[u] = sq, max
		}
	})
	out := make([]ClusterQuality, len(clusters))
	for c, members := range clusters {
		out[c] = ClusterQuality{Size: len(members)}
	}
	for u, un := range units {
		q := &out[un.c]
		q.AvgSquaredDistance += rowSq[u]
		if rowMax[u] > q.Diameter {
			q.Diameter = rowMax[u]
		}
	}
	for c, members := range clusters {
		if pairs := len(members) * (len(members) - 1) / 2; pairs > 0 {
			out[c].AvgSquaredDistance /= float64(pairs)
		}
	}
	return out, nil
}

// Silhouette returns the mean silhouette coefficient of a labeling over the
// dissimilarity matrix, in [−1, 1]; larger is better. Singleton clusters
// contribute 0, matching the usual convention.
func Silhouette(d *dissim.Matrix, labels []int) (float64, error) {
	return SilhouettePar(d, labels, 1)
}

// SilhouettePar is Silhouette with an explicit worker count (<= 0 = all
// cores). Each object's coefficient is computed independently (its
// per-cluster sums accumulate in object order) and the final mean reduces
// the per-object array serially, so the score is bit-identical at any
// worker count. Cluster ids are ranked by first appearance; the
// nearest-other-cluster choice breaks exact ties toward the earliest-
// appearing cluster. Object i's scan walks the packed triangle the way
// nearestActive does: row i for j < i, then column i for j > i.
func SilhouettePar(d *dissim.Matrix, labels []int, workers int) (float64, error) {
	n := d.N()
	if len(labels) != n {
		return 0, fmt.Errorf("hcluster: %d labels for %d objects", len(labels), n)
	}
	if n == 0 {
		return 0, fmt.Errorf("hcluster: empty matrix")
	}
	// Dense cluster ids in first-appearance order.
	idx := make(map[int]int)
	dense := make([]int, n)
	for i, l := range labels {
		di, ok := idx[l]
		if !ok {
			di = len(idx)
			idx[l] = di
		}
		dense[i] = di
	}
	nc := len(idx)
	if nc < 2 {
		return 0, fmt.Errorf("hcluster: silhouette needs at least 2 clusters")
	}
	sizes := make([]int, nc)
	for _, di := range dense {
		sizes[di]++
	}
	contrib := make([]float64, n)
	w := d.PackedView()
	parallel.Range(workers, n, func(_, lo, hi int) {
		sums := make([]float64, nc)
		for i := lo; i < hi; i++ {
			own := dense[i]
			if sizes[own] == 1 {
				continue // contributes 0
			}
			for c := range sums {
				sums[c] = 0
			}
			for j, v := range w[i*(i-1)/2 : i*(i+1)/2] {
				sums[dense[j]] += v
			}
			off := i*(i+1)/2 + i // packed index of (i+1, i)
			for j := i + 1; j < n; j++ {
				sums[dense[j]] += w[off]
				off += j
			}
			a := sums[own] / float64(sizes[own]-1)
			b, first := 0.0, true
			for c := 0; c < nc; c++ {
				if c == own {
					continue
				}
				if avg := sums[c] / float64(sizes[c]); first || avg < b {
					b, first = avg, false
				}
			}
			max := a
			if b > max {
				max = b
			}
			if max > 0 {
				contrib[i] = (b - a) / max
			}
		}
	})
	total := 0.0
	for _, v := range contrib {
		total += v
	}
	return total / float64(n), nil
}
