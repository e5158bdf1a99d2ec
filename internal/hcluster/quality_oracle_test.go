package hcluster

// The Matrix.At-based scoring scans — QualityPar's and SilhouettePar's
// bodies until ISSUE 25, now the references the packed-triangle walks are
// pinned against bit for bit. They read every cell through the bounds-
// checked, argument-swapping Matrix.At.

import (
	"fmt"
	"math"
	"testing"

	"ppclust/internal/dissim"
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

// BenchmarkSilhouette1200 is the session-scale scan (a 600+600 census, four
// clusters) on the packed walk and on the Matrix.At reference — the ≥ 2×
// this change claims for it.
func BenchmarkSilhouette1200(b *testing.B) {
	d := randomMatrix(1200, 2)
	labels := make([]int, 1200)
	for i := range labels {
		labels[i] = i % 4
	}
	for _, bench := range []struct {
		name string
		run  func(*dissim.Matrix, []int, int) (float64, error)
	}{{"packed", SilhouettePar}, {"at-reference", silhouetteAt}} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.run(d, labels, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
