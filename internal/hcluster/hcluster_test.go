package hcluster

import (
	"math"
	"testing"

	"ppclust/internal/dissim"
	"ppclust/internal/rng"
)

// naiveCluster is an independent O(n³) reference: full minimum scan every
// step, map-based bookkeeping. Used to validate the cached implementation.
func naiveCluster(d *dissim.Matrix, link Linkage) *Dendrogram {
	n := d.N()
	type cl struct {
		node int
		size float64
	}
	dist := make(map[[2]int]float64)
	clusters := map[int]*cl{}
	for i := 0; i < n; i++ {
		clusters[i] = &cl{node: i, size: 1}
		for j := 0; j < i; j++ {
			v := d.At(i, j)
			if link.usesSquared() {
				v *= v
			}
			dist[[2]int{j, i}] = v
		}
	}
	key := func(a, b int) [2]int {
		if a > b {
			a, b = b, a
		}
		return [2]int{a, b}
	}
	dg := &Dendrogram{NLeaves: n, Linkage: link}
	next := n
	for len(clusters) > 1 {
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := range clusters {
			for j := range clusters {
				if i >= j {
					continue
				}
				if v := dist[key(i, j)]; v < bd || (v == bd && (i < bi || (i == bi && j < bj))) {
					bi, bj, bd = i, j, v
				}
			}
		}
		ci, cj := clusters[bi], clusters[bj]
		for k := range clusters {
			if k == bi || k == bj {
				continue
			}
			ai, aj, beta, gamma := lwParams(link, ci.size, cj.size, clusters[k].size)
			dik, djk := dist[key(bi, k)], dist[key(bj, k)]
			dist[key(bi, k)] = ai*dik + aj*djk + beta*bd + gamma*math.Abs(dik-djk)
		}
		h := bd
		if link.usesSquared() {
			h = math.Sqrt(math.Max(0, bd))
		}
		a, b := ci.node, cj.node
		if a > b {
			a, b = b, a
		}
		dg.Merges = append(dg.Merges, Merge{A: a, B: b, Height: h, Size: int(ci.size + cj.size), Node: next})
		ci.size += cj.size
		ci.node = next
		next++
		delete(clusters, bj)
	}
	return dg
}

func randomMatrix(n int, seed uint64) *dissim.Matrix {
	gen := rng.NewXoshiro(rng.SeedFromUint64(seed))
	m := dissim.New(n)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			m.Set(i, j, rng.Float64(gen)+0.01)
		}
	}
	return m
}

var allLinkages = []Linkage{Single, Complete, Average, Weighted, Centroid, Median, Ward}

// partitionsEqual compares two dendrograms by the partitions they induce at
// every cut level (merge order between ties may differ legitimately).
func partitionsEqual(t *testing.T, a, b *Dendrogram) bool {
	t.Helper()
	for k := 1; k <= a.NLeaves; k++ {
		la, err := a.Labels(k)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := b.Labels(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range la {
			for j := range la {
				if (la[i] == la[j]) != (lb[i] == lb[j]) {
					return false
				}
			}
		}
	}
	return true
}

func TestMatchesNaiveReference(t *testing.T) {
	for _, link := range allLinkages {
		t.Run(link.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				d := randomMatrix(24, seed)
				got, err := Cluster(d, link)
				if err != nil {
					t.Fatal(err)
				}
				want := naiveCluster(d, link)
				if !partitionsEqual(t, got, want) {
					t.Fatalf("seed %d: cached and naive dendrograms disagree", seed)
				}
				for s := range got.Merges {
					if math.Abs(got.Merges[s].Height-want.Merges[s].Height) > 1e-9 {
						t.Fatalf("seed %d merge %d: height %v vs %v", seed, s,
							got.Merges[s].Height, want.Merges[s].Height)
					}
				}
			}
		})
	}
}

func TestKnownSingleLinkage(t *testing.T) {
	// Points on a line at 0, 1, 3, 7: single linkage merges (0,1) at 1,
	// then {0,1}+{3} at 2, then +{7} at 4.
	pts := []float64{0, 1, 3, 7}
	d := dissim.FromLocal(4, func(i, j int) float64 { return math.Abs(pts[i] - pts[j]) })
	dg, err := Cluster(d, Single)
	if err != nil {
		t.Fatal(err)
	}
	heights := []float64{1, 2, 4}
	for i, h := range heights {
		if math.Abs(dg.Merges[i].Height-h) > 1e-12 {
			t.Fatalf("merge %d height = %v, want %v", i, dg.Merges[i].Height, h)
		}
	}
}

func TestKnownCompleteLinkage(t *testing.T) {
	pts := []float64{0, 1, 3, 7}
	d := dissim.FromLocal(4, func(i, j int) float64 { return math.Abs(pts[i] - pts[j]) })
	dg, err := Cluster(d, Complete)
	if err != nil {
		t.Fatal(err)
	}
	// (0,1) at 1; {3} joins at max(3,2)=3; {7} joins at max(7,6,4)=7.
	heights := []float64{1, 3, 7}
	for i, h := range heights {
		if math.Abs(dg.Merges[i].Height-h) > 1e-12 {
			t.Fatalf("merge %d height = %v, want %v", i, dg.Merges[i].Height, h)
		}
	}
}

func TestMonotonicHeights(t *testing.T) {
	// Single, complete, average, weighted and Ward are reducible: merge
	// heights must be non-decreasing.
	for _, link := range []Linkage{Single, Complete, Average, Weighted, Ward} {
		d := randomMatrix(40, 9)
		dg, err := Cluster(d, link)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(dg.Merges); i++ {
			if dg.Merges[i].Height < dg.Merges[i-1].Height-1e-12 {
				t.Fatalf("%v: height inversion at merge %d (%v < %v)",
					link, i, dg.Merges[i].Height, dg.Merges[i-1].Height)
			}
		}
	}
}

func TestTwoWellSeparatedClusters(t *testing.T) {
	// Objects 0-4 mutually close (≤0.2), 5-9 mutually close, inter-group
	// distance ≥ 10. Every linkage must find the planted 2-partition.
	d := dissim.FromLocal(10, func(i, j int) float64 {
		gi, gj := i/5, j/5
		if gi == gj {
			return 0.1 + 0.01*float64(i+j)
		}
		return 10 + 0.01*float64(i+j)
	})
	for _, link := range allLinkages {
		dg, err := Cluster(d, link)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := dg.CutK(2)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs) != 2 || len(cs[0]) != 5 || len(cs[1]) != 5 {
			t.Fatalf("%v: clusters %v", link, cs)
		}
		for _, m := range cs[0] {
			if m >= 5 {
				t.Fatalf("%v: object %d in wrong cluster", link, m)
			}
		}
	}
}

func TestSingletonAndPairInputs(t *testing.T) {
	dg, err := Cluster(dissim.New(1), Average)
	if err != nil {
		t.Fatal(err)
	}
	if len(dg.Merges) != 0 {
		t.Fatal("singleton produced merges")
	}
	cs, err := dg.CutK(1)
	if err != nil || len(cs) != 1 || len(cs[0]) != 1 {
		t.Fatalf("singleton cut: %v %v", cs, err)
	}

	d2 := dissim.New(2)
	d2.Set(1, 0, 3)
	dg2, err := Cluster(d2, Ward)
	if err != nil {
		t.Fatal(err)
	}
	if len(dg2.Merges) != 1 || math.Abs(dg2.Merges[0].Height-3) > 1e-12 {
		t.Fatalf("pair merges: %+v", dg2.Merges)
	}
}

func TestClusterErrors(t *testing.T) {
	if _, err := Cluster(dissim.New(0), Single); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := Cluster(dissim.New(3), Linkage(42)); err == nil {
		t.Fatal("bad linkage accepted")
	}
	if _, err := ParseLinkage("nope"); err == nil {
		t.Fatal("bad linkage name accepted")
	}
	l, err := ParseLinkage("ward")
	if err != nil || l != Ward {
		t.Fatalf("ParseLinkage(ward) = %v, %v", l, err)
	}
}

func TestCutKAndLabels(t *testing.T) {
	d := randomMatrix(12, 5)
	dg, err := Cluster(d, Average)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 12; k++ {
		cs, err := dg.CutK(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs) != k {
			t.Fatalf("CutK(%d) gave %d clusters", k, len(cs))
		}
		seen := make([]bool, 12)
		for _, members := range cs {
			for _, m := range members {
				if seen[m] {
					t.Fatalf("leaf %d in two clusters", m)
				}
				seen[m] = true
			}
		}
		for leaf, ok := range seen {
			if !ok {
				t.Fatalf("leaf %d missing at k=%d", leaf, k)
			}
		}
		labels, err := dg.Labels(k)
		if err != nil {
			t.Fatal(err)
		}
		for c, members := range cs {
			for _, m := range members {
				if labels[m] != c {
					t.Fatalf("label mismatch for leaf %d", m)
				}
			}
		}
	}
	if _, err := dg.CutK(0); err == nil {
		t.Fatal("CutK(0) accepted")
	}
	if _, err := dg.CutK(13); err == nil {
		t.Fatal("CutK(n+1) accepted")
	}
}

func TestCutKNestedRefinement(t *testing.T) {
	// Hierarchical property: the k+1 partition refines the k partition.
	d := randomMatrix(20, 6)
	dg, _ := Cluster(d, Complete)
	for k := 1; k < 20; k++ {
		coarse, _ := dg.Labels(k)
		fine, _ := dg.Labels(k + 1)
		for i := 0; i < 20; i++ {
			for j := 0; j < 20; j++ {
				if fine[i] == fine[j] && coarse[i] != coarse[j] {
					t.Fatalf("k=%d: refinement violated for %d,%d", k, i, j)
				}
			}
		}
	}
}

func TestCutHeight(t *testing.T) {
	pts := []float64{0, 1, 3, 7}
	d := dissim.FromLocal(4, func(i, j int) float64 { return math.Abs(pts[i] - pts[j]) })
	dg, _ := Cluster(d, Single)
	cs := dg.CutHeight(0.5)
	if len(cs) != 4 {
		t.Fatalf("cut below all merges: %v", cs)
	}
	cs = dg.CutHeight(1.5) // only (0,1) merged
	if len(cs) != 3 || len(cs[0]) != 2 {
		t.Fatalf("cut at 1.5: %v", cs)
	}
	cs = dg.CutHeight(100)
	if len(cs) != 1 || len(cs[0]) != 4 {
		t.Fatalf("cut above all merges: %v", cs)
	}
}

func TestCopheneticSingleLinkage(t *testing.T) {
	pts := []float64{0, 1, 3, 7}
	d := dissim.FromLocal(4, func(i, j int) float64 { return math.Abs(pts[i] - pts[j]) })
	dg, _ := Cluster(d, Single)
	coph := dg.Cophenetic()
	// Cophenetic(0,1)=1; (0,2)=(1,2)=2; everything with 3 = 4.
	want := [][]float64{{0, 1, 2, 4}, {1, 0, 2, 4}, {2, 2, 0, 4}, {4, 4, 4, 0}}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(coph.At(i, j)-want[i][j]) > 1e-12 {
				t.Fatalf("cophenetic(%d,%d) = %v, want %v", i, j, coph.At(i, j), want[i][j])
			}
		}
	}
}

func TestCopheneticUltrametricProperty(t *testing.T) {
	// For monotonic linkages the cophenetic matrix is an ultrametric:
	// coph(i,j) ≤ max(coph(i,k), coph(k,j)) for all triples.
	d := randomMatrix(15, 8)
	for _, link := range []Linkage{Single, Complete, Average} {
		dg, _ := Cluster(d, link)
		coph := dg.Cophenetic()
		for i := 0; i < 15; i++ {
			for j := 0; j < 15; j++ {
				for k := 0; k < 15; k++ {
					m := math.Max(coph.At(i, k), coph.At(k, j))
					if coph.At(i, j) > m+1e-9 {
						t.Fatalf("%v: ultrametric violated at (%d,%d,%d)", link, i, j, k)
					}
				}
			}
		}
	}
}

func TestLinkageStringRoundTrip(t *testing.T) {
	for _, l := range allLinkages {
		got, err := ParseLinkage(l.String())
		if err != nil || got != l {
			t.Fatalf("round trip %v: %v %v", l, got, err)
		}
	}
	if Linkage(99).String() != "unknown" {
		t.Fatal("unknown linkage name")
	}
}

// BenchmarkClusterAverage times the average-linkage NN-chain engine on a
// random matrix (n = 200) and on a pair-cpu-shaped one (n = 1200: four
// families, |x − y|, max-normalised).
func BenchmarkClusterAverage(b *testing.B) {
	for _, bench := range []struct {
		name string
		d    *dissim.Matrix
	}{{"n=200", randomMatrix(200, 1)}, {"n=1200", familyMatrix(1200, 1)}} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Cluster(bench.d, Average); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkClusterSingle500(b *testing.B) {
	d := randomMatrix(500, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Cluster(d, Single); err != nil {
			b.Fatal(err)
		}
	}
}
