package hcluster

import (
	"fmt"
	"slices"

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

// SilhouettePar is Silhouette scored by ScorePartition's serial sweep, which
// reads each packed cell once where a per-object fan-out reads each twice,
// half by strided column walks; workers no longer matters. Cluster ids rank
// by first appearance; exact ties for the nearest other cluster go to the
// earliest-appearing one.
func SilhouettePar(d *dissim.Matrix, labels []int, workers int) (float64, error) {
	n := d.N()
	if len(labels) != n {
		return 0, fmt.Errorf("hcluster: %d labels for %d objects", len(labels), n)
	}
	if n == 0 {
		return 0, fmt.Errorf("hcluster: empty matrix")
	}
	idx := make(map[int]int)
	var clusters [][]int
	for i, l := range labels {
		c, ok := idx[l]
		if !ok {
			c, idx[l] = len(clusters), len(clusters)
			clusters = append(clusters, nil)
		}
		clusters[c] = append(clusters[c], i)
	}
	if len(clusters) < 2 {
		return 0, fmt.Errorf("hcluster: silhouette needs at least 2 clusters")
	}
	_, s, err := ScorePartition(d, clusters)
	return s, err
}

// ScorePartition returns, from one pass over the packed triangle, the
// per-cluster quality QualityPar reports and the silhouette Silhouette
// reports (0 below two non-empty clusters) for clusters, which must cover
// [0, n) once with ascending members, as CutK and pam.Result.Clusters do;
// an empty cluster (coinciding PAM medoids) scores Size 0. Cell (i, j),
// j < i, goes into i's sum for j's cluster and j's for i's, so object i gets
// d(i, j) in ascending j as a per-object scan adds them; row i's QualityPar
// unit (its cluster-mates below it, gathered from the row) folds into its
// cluster as the row ends, in member order: both scores are the separate
// passes' to the bit. Its n sums per cluster of 2+ members stay ≤ a triangle.
func ScorePartition(d *dissim.Matrix, clusters [][]int) ([]ClusterQuality, float64, error) {
	n := d.N()
	label := slices.Repeat([]int{-1}, n)
	for c, members := range clusters {
		for a, m := range members {
			switch {
			case m < 0 || m >= n:
				return nil, 0, fmt.Errorf("hcluster: member %d out of range", m)
			case a > 0 && m <= members[a-1]:
				return nil, 0, fmt.Errorf("hcluster: cluster %d members not strictly ascending at %d", c, m)
			case label[m] >= 0:
				return nil, 0, fmt.Errorf("hcluster: object %d in two clusters", m)
			}
			label[m] = c
		}
	}
	// order ranks the non-empty clusters by first member, as SilhouettePar
	// ranks labels. sums[slot[c]·n + i] is object i's sum over cluster c; a
	// singleton {s} has no slot, its sum being the one cell d(i, s).
	var order []int
	slot, slots := slices.Repeat([]int{-1}, len(clusters)), 0
	for i, c := range label {
		if c < 0 {
			return nil, 0, fmt.Errorf("hcluster: object %d in no cluster", i)
		}
		if clusters[c][0] == i {
			order = append(order, c)
			if len(clusters[c]) > 1 {
				slot[c], slots = slots, slots+1
			}
		}
	}
	q := make([]ClusterQuality, len(clusters))
	// Nothing reaches i's sums before row i: row i's part accumulates in acc
	// and is stored whole, the column part is one contiguous add.
	sums := make([]float64, slots*n)
	acc := make([]float64, len(clusters))
	passed := make([]int, len(clusters)) // members of each cluster the sweep has passed
	w := d.PackedView()
	for i, ci := range label {
		row := w[i*(i-1)/2 : i*(i+1)/2]
		for j, v := range row {
			acc[label[j]] += v
		}
		for c, s := range acc {
			if slot[c] >= 0 {
				sums[slot[c]*n+i] = s
			}
			acc[c] = 0
		}
		if s := slot[ci]; s >= 0 {
			col := sums[s*n : s*n+len(row)]
			for j, v := range row {
				col[j] += v
			}
		}
		sq, max := 0.0, 0.0
		for _, m := range clusters[ci][:passed[ci]] {
			v := row[m]
			sq += v * v
			if v > max {
				max = v
			}
		}
		passed[ci]++
		q[ci].AvgSquaredDistance += sq
		if max > q[ci].Diameter {
			q[ci].Diameter = max
		}
	}
	for c, members := range clusters {
		q[c].Size = len(members)
		if pairs := len(members) * (len(members) - 1) / 2; pairs > 0 {
			q[c].AvgSquaredDistance /= float64(pairs)
		}
	}
	if len(order) < 2 {
		return q, 0, nil
	}
	total := 0.0
	for i, own := range label {
		if q[own].Size == 1 {
			continue // contributes 0
		}
		a := sums[slot[own]*n+i] / float64(q[own].Size-1)
		b, first := 0.0, true
		for _, c := range order {
			if c == own {
				continue
			}
			var sum float64
			if s := slot[c]; s >= 0 {
				sum = sums[s*n+i]
			} else {
				sum = w[condIdx(i, clusters[c][0])]
			}
			if avg := sum / float64(q[c].Size); first || avg < b {
				b, first = avg, false
			}
		}
		max := a
		if b > max {
			max = b
		}
		if max > 0 {
			total += (b - a) / max
		}
	}
	return q, total / float64(n), nil
}
