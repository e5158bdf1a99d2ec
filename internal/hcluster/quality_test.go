package hcluster

import (
	"fmt"
	"math"
	"testing"

	"ppclust/internal/dissim"
)

func TestQualityKnownValues(t *testing.T) {
	// Cluster {0,1,2} with pairwise distances 1,2,3 and singleton {3}.
	d := dissim.New(4)
	d.Set(1, 0, 1)
	d.Set(2, 0, 2)
	d.Set(2, 1, 3)
	d.Set(3, 0, 10)
	d.Set(3, 1, 10)
	d.Set(3, 2, 10)
	qs, err := Quality(d, [][]int{{0, 1, 2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	// Mean of squares: (1+4+9)/3 = 14/3.
	if math.Abs(qs[0].AvgSquaredDistance-14.0/3.0) > 1e-12 {
		t.Fatalf("avg sq = %v", qs[0].AvgSquaredDistance)
	}
	if qs[0].Diameter != 3 || qs[0].Size != 3 {
		t.Fatalf("cluster 0 quality: %+v", qs[0])
	}
	if qs[1].Size != 1 || qs[1].AvgSquaredDistance != 0 || qs[1].Diameter != 0 {
		t.Fatalf("singleton quality: %+v", qs[1])
	}
}

func TestQualityOutOfRange(t *testing.T) {
	d := dissim.New(2)
	if _, err := Quality(d, [][]int{{0, 5}}); err == nil {
		t.Fatal("out-of-range member accepted")
	}
}

func TestSilhouetteSeparatedVsMixed(t *testing.T) {
	// Well-separated pair of tight clusters: silhouette near 1.
	d := dissim.FromLocal(6, func(i, j int) float64 {
		if i/3 == j/3 {
			return 0.05
		}
		return 5
	})
	s, err := Silhouette(d, []int{0, 0, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.9 {
		t.Fatalf("separated silhouette = %v, want > 0.9", s)
	}
	// Same data with a deliberately wrong labeling: much worse score.
	bad, err := Silhouette(d, []int{0, 1, 0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if bad >= s-0.5 {
		t.Fatalf("bad labeling silhouette %v not clearly below good %v", bad, s)
	}
}

func TestSilhouetteErrors(t *testing.T) {
	d := dissim.New(3)
	if _, err := Silhouette(d, []int{0, 0}); err == nil {
		t.Fatal("label length mismatch accepted")
	}
	if _, err := Silhouette(d, []int{0, 0, 0}); err == nil {
		t.Fatal("single-cluster labeling accepted")
	}
	if _, err := Silhouette(dissim.New(0), nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
}

// TestQualitySilhouetteDeterministicAcrossWorkers pins bit-identical
// quality statistics and silhouette scores at Parallelism 1, 2 and all
// cores (the satellite determinism guarantee for the published metrics).
func TestQualitySilhouetteDeterministicAcrossWorkers(t *testing.T) {
	d := randomMatrix(60, 33)
	dg, err := Cluster(d, Average)
	if err != nil {
		t.Fatal(err)
	}
	clusters, err := dg.CutK(4)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := dg.Labels(4)
	if err != nil {
		t.Fatal(err)
	}
	qRef, err := QualityPar(d, clusters, 1)
	if err != nil {
		t.Fatal(err)
	}
	sRef, err := SilhouettePar(d, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 0} {
		q, err := QualityPar(d, clusters, workers)
		if err != nil {
			t.Fatal(err)
		}
		for c := range qRef {
			if q[c] != qRef[c] {
				t.Fatalf("workers=%d cluster %d: %+v vs serial %+v", workers, c, q[c], qRef[c])
			}
		}
		s, err := SilhouettePar(d, labels, workers)
		if err != nil {
			t.Fatal(err)
		}
		if s != sRef {
			t.Fatalf("workers=%d: silhouette %v vs serial %v", workers, s, sRef)
		}
	}
}

// BenchmarkScorePartition times the one-sweep quality + silhouette scoring
// of a four-cluster partition at the perf-regression scale (n = 500) and at
// session scale (n = 1200, a 600 + 600 pair-cpu census).
func BenchmarkScorePartition(b *testing.B) {
	for _, n := range []int{500, 1200} {
		d := randomMatrix(n, 2)
		clusters := make([][]int, 4)
		for i := 0; i < n; i++ {
			clusters[i%4] = append(clusters[i%4], i)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := ScorePartition(d, clusters); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestSilhouetteSingletonConvention(t *testing.T) {
	d := dissim.New(3)
	d.Set(1, 0, 0.1)
	d.Set(2, 0, 5)
	d.Set(2, 1, 5)
	// Cluster {0,1} and singleton {2}: the singleton contributes 0.
	s, err := Silhouette(d, []int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 || s > 1 {
		t.Fatalf("silhouette with singleton = %v", s)
	}
}
