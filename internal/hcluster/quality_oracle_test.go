package hcluster

// The Matrix.At-based scoring scans — QualityPar's and SilhouettePar's
// bodies until ISSUE 25, now the references the packed-triangle walks are
// pinned against bit for bit. They read every cell through the bounds-
// checked, argument-swapping Matrix.At.

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ppclust/internal/alloccheck"
	"ppclust/internal/dissim"
	"ppclust/internal/pam"
	"ppclust/internal/parallel"
	"ppclust/internal/rng"
)

func qualityAt(d *dissim.Matrix, clusters [][]int, workers int) ([]ClusterQuality, error) {
	n := d.N()
	for _, members := range clusters {
		for _, m := range members {
			if m < 0 || m >= n {
				return nil, fmt.Errorf("hcluster: member %d out of range", m)
			}
		}
	}
	type unit struct{ c, a int }
	var units []unit
	for c, members := range clusters {
		for a := 1; a < len(members); a++ {
			units = append(units, unit{c, a})
		}
	}
	rowSq := make([]float64, len(units))
	rowMax := make([]float64, len(units))
	parallel.Range(workers, len(units), func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			members := clusters[units[u].c]
			a := units[u].a
			i := members[a]
			sq, max := 0.0, 0.0
			for b := 0; b < a; b++ {
				v := d.At(i, members[b])
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

func silhouetteAt(d *dissim.Matrix, labels []int, workers int) (float64, error) {
	n := d.N()
	if len(labels) != n {
		return 0, fmt.Errorf("hcluster: %d labels for %d objects", len(labels), n)
	}
	if n == 0 {
		return 0, fmt.Errorf("hcluster: empty matrix")
	}
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
	parallel.Range(workers, n, func(_, lo, hi int) {
		sums := make([]float64, nc)
		for i := lo; i < hi; i++ {
			own := dense[i]
			if sizes[own] == 1 {
				continue
			}
			for c := range sums {
				sums[c] = 0
			}
			for j := 0; j < n; j++ {
				if j != i {
					sums[dense[j]] += d.At(i, j)
				}
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

// scoringLabelings draws the labelings the packed walks are compared on:
// object i's label is a non-contiguous, unordered value (so dense ranking by
// first appearance matters), the last object — and at n ≥ 3 the first — is a
// singleton cluster, and each cluster's member list is shuffled.
func scoringLabelings(n int, seed uint64) (labels []int, clusters [][]int) {
	gen := rng.NewXoshiro(rng.SeedFromUint64(seed))
	values := []int{907, -4, 33, 12}
	labels = make([]int, n)
	for i := range labels {
		labels[i] = values[rng.Symbol(gen, len(values))]
	}
	labels[n-1] = 5000
	if n >= 3 {
		labels[0] = -5000
	}
	byLabel := map[int]int{}
	for i, l := range labels {
		c, ok := byLabel[l]
		if !ok {
			c = len(clusters)
			byLabel[l] = c
			clusters = append(clusters, nil)
		}
		clusters[c] = append(clusters[c], i)
	}
	for _, members := range clusters {
		for i := len(members) - 1; i > 0; i-- {
			j := rng.Symbol(gen, i+1)
			members[i], members[j] = members[j], members[i]
		}
	}
	return labels, clusters
}

// TestPackedScoringMatchesAtReference pins the packed-triangle walks of
// QualityPar and SilhouettePar to the Matrix.At references: the same bits
// at workers 1, 2 and all cores, on singleton clusters, non-contiguous label
// values, unsorted member lists and a member list that repeats an object.
func TestPackedScoringMatchesAtReference(t *testing.T) {
	for _, n := range []int{2, 3, 61, 500} {
		d := randomMatrix(n, uint64(n))
		labels, clusters := scoringLabelings(n, uint64(7*n))
		repeated := append([][]int{{n - 1, 0, n - 1, 0}}, clusters...)
		for _, workers := range []int{1, 2, 0} {
			for name, cs := range map[string][][]int{"shuffled": clusters, "repeated": repeated} {
				want, err := qualityAt(d, cs, 1)
				if err != nil {
					t.Fatal(err)
				}
				got, err := QualityPar(d, cs, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("n=%d workers=%d %s: %d quality rows, reference %d", n, workers, name, len(got), len(want))
				}
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("n=%d workers=%d %s cluster %d: %+v, reference %+v", n, workers, name, c, got[c], want[c])
					}
				}
			}
			want, wantErr := silhouetteAt(d, labels, 1)
			got, gotErr := SilhouettePar(d, labels, workers)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("n=%d workers=%d: error %v, reference %v", n, workers, gotErr, wantErr)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d workers=%d: silhouette %v, reference %v", n, workers, got, want)
			}
		}
		// ScorePartition over the partitions the tail hands it — CutK's and
		// PAM's, k = 1 through mostly-singleton cuts — and over the shuffled
		// labeling's clusters once sorted, on a random and a tie-heavy matrix.
		for _, d := range []*dissim.Matrix{d, tieMatrix(n, uint64(n))} {
			partitions := map[string][][]int{"labeling": sortedClusters(clusters)}
			dg, err := Cluster(d, Average)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 2, 3, 4, 7, 50} {
				if k > n {
					continue
				}
				if partitions[fmt.Sprintf("cut-%d", k)], err = dg.CutK(k); err != nil {
					t.Fatal(err)
				}
				res, err := pam.Cluster(d, k, rng.NewXoshiro(rng.SeedFromUint64(uint64(k))), pam.Config{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				partitions[fmt.Sprintf("pam-%d", k)] = res.Clusters()
			}
			for name, cs := range partitions {
				assertScoresMatchReference(t, fmt.Sprintf("n=%d %s", n, name), d, cs)
			}
		}
	}
}

// sortedClusters is clusters with each member list sorted ascending.
func sortedClusters(clusters [][]int) [][]int {
	out := make([][]int, len(clusters))
	for c, members := range clusters {
		out[c] = slices.Sorted(slices.Values(members))
	}
	return out
}

// assertScoresMatchReference demands ScorePartition's quality rows and
// silhouette be the Matrix.At references' to the bit (silhouette 0 below two
// non-empty clusters).
func assertScoresMatchReference(t *testing.T, label string, d *dissim.Matrix, cs [][]int) {
	t.Helper()
	labels := make([]int, d.N())
	nonEmpty := 0
	for c, members := range cs {
		for _, m := range members {
			labels[m] = c
		}
		if len(members) > 0 {
			nonEmpty++
		}
	}
	wantQ, err := qualityAt(d, cs, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantS := 0.0
	if nonEmpty >= 2 {
		if wantS, err = silhouetteAt(d, labels, 1); err != nil {
			t.Fatal(err)
		}
	}
	gotQ, gotS, err := ScorePartition(d, cs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !slices.Equal(gotQ, wantQ) {
		t.Fatalf("%s: quality %+v, reference %+v", label, gotQ, wantQ)
	}
	if math.Float64bits(gotS) != math.Float64bits(wantS) {
		t.Fatalf("%s: silhouette %v, reference %v", label, gotS, wantS)
	}
}

// TestScorePartitionRejectsNonPartitions: duplicate, out-of-range, unsorted
// and missing members are errors, not scores. An empty cluster — PAM's, when
// two medoids coincide — is scored as the separate passes score it.
func TestScorePartitionRejectsNonPartitions(t *testing.T) {
	d := randomMatrix(4, 1)
	for name, cs := range map[string][][]int{
		"duplicate-within": {{0, 1, 1}, {2, 3}},
		"duplicate-across": {{0, 1}, {1, 2, 3}},
		"out-of-range":     {{0, 1}, {2, 3, 4}},
		"negative":         {{-1, 0, 1}, {2, 3}},
		"unsorted":         {{1, 0}, {2, 3}},
		"missing":          {{0, 1}, {3}},
		"no-clusters":      nil,
	} {
		if _, _, err := ScorePartition(d, cs); err == nil {
			t.Errorf("%s: %v accepted", name, cs)
		}
	}
	assertScoresMatchReference(t, "empty cluster", d, [][]int{{0, 1}, {}, {2, 3}})
	assertScoresMatchReference(t, "one non-empty cluster", d, [][]int{{}, {0, 1, 2, 3}})
	if q, s, err := ScorePartition(dissim.New(0), nil); err != nil || len(q) != 0 || s != 0 {
		t.Fatalf("empty partition of nothing: %v %v %v", q, s, err)
	}
}

// TestScorePartitionAllocationPin: at session scale (n = 1200, k = 4) the
// sweep allocates its n·k sums plus O(n) — no per-row or per-object slice.
// k is the requester's choice: a singleton needs no sums, so k = n − 1
// costs O(n) and the worst case, n/2 pairs, stays within one triangle.
func TestScorePartitionAllocationPin(t *testing.T) {
	const n = 1200
	d := familyMatrix(n, 3)
	dg, err := Cluster(d, Average)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([][]int, n/2)
	for c := range pairs {
		pairs[c] = []int{2 * c, 2*c + 1}
	}
	for _, tc := range []struct {
		k     int
		cs    [][]int
		bound int
	}{
		{4, nil, n*4*8 + 4*8*n},
		{n - 1, nil, 16 * 8 * n},
		{n / 2, pairs, 8*n*(n-1)/2 + 16*8*n},
	} {
		if tc.cs == nil {
			if tc.cs, err = dg.CutK(tc.k); err != nil {
				t.Fatal(err)
			}
		}
		if bytes, _ := alloccheck.Least(3, func() {
			if _, _, err := ScorePartition(d, tc.cs); err != nil {
				t.Fatal(err)
			}
		}); bytes > uint64(tc.bound) {
			t.Errorf("%d bytes to score n=%d k=%d, want ≤ %d", bytes, n, tc.k, tc.bound)
		}
	}
}

// TestPackedScoringErrorsMatchAtReference: the walks reject exactly what the
// references reject, with the same words.
func TestPackedScoringErrorsMatchAtReference(t *testing.T) {
	d := randomMatrix(4, 1)
	for _, cs := range [][][]int{{{0, 4}}, {{-1}}, {{0, 1}, {2, 99}}} {
		_, want := qualityAt(d, cs, 1)
		_, got := QualityPar(d, cs, 2)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("clusters %v: error %v, reference %v", cs, got, want)
		}
	}
	for _, labels := range [][]int{{0, 1}, {3, 3, 3, 3}, nil} {
		_, want := silhouetteAt(d, labels, 1)
		_, got := SilhouettePar(d, labels, 2)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Fatalf("labels %v: error %v, reference %v", labels, got, want)
		}
	}
	if _, err := SilhouettePar(dissim.New(0), nil, 1); err == nil {
		t.Fatal("empty matrix accepted")
	}
}
