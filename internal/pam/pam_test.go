package pam

import (
	"math"
	"testing"

	"ppclust/internal/dissim"
	"ppclust/internal/editdist"
	"ppclust/internal/eval"
	"ppclust/internal/gen"
	"ppclust/internal/rng"
)

func stream(seed uint64) rng.Stream { return rng.NewXoshiro(rng.SeedFromUint64(seed)) }

func TestPAMSeparatedClusters(t *testing.T) {
	// Two tight groups on a line.
	pos := []float64{0, 1, 2, 100, 101, 102}
	d := dissim.FromLocal(len(pos), func(i, j int) float64 { return math.Abs(pos[i] - pos[j]) })
	res, err := Cluster(d, 2, stream(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Medoids) != 2 {
		t.Fatalf("medoids: %v", res.Medoids)
	}
	// Optimal medoids are the group centers 1 and 101 (indices 1, 4).
	if res.Medoids[0] != 1 || res.Medoids[1] != 4 {
		t.Fatalf("medoids = %v, want [1 4]", res.Medoids)
	}
	if res.Cost != 4 {
		t.Fatalf("cost = %v, want 4", res.Cost)
	}
	for i := 0; i < 3; i++ {
		if res.Labels[i] != 0 || res.Labels[i+3] != 1 {
			t.Fatalf("labels = %v", res.Labels)
		}
	}
	cs := res.Clusters()
	if len(cs[0]) != 3 || len(cs[1]) != 3 {
		t.Fatalf("clusters: %v", cs)
	}
}

func TestPAMHandlesStrings(t *testing.T) {
	// The point of PAM here: a partitioning method over edit distances —
	// something k-means cannot do. Families of DNA sequences must separate.
	l, err := gen.DNAFamilies(gen.DNASpec{Families: 3, PerFamily: 6, Length: 40, SubRate: 0.05}, stream(2))
	if err != nil {
		t.Fatal(err)
	}
	col, err := l.Table.SymbolCol(0)
	if err != nil {
		t.Fatal(err)
	}
	d := dissim.FromLocal(len(col), func(i, j int) float64 {
		return float64(editdist.Distance(col[i], col[j]))
	})
	res, err := Cluster(d, 3, stream(3), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ari, err := eval.AdjustedRandIndex(l.Truth, res.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.95 {
		t.Fatalf("PAM on edit distances ARI = %v, want ≥ 0.95", ari)
	}
}

func TestPAMValidation(t *testing.T) {
	d := dissim.New(3)
	if _, err := Cluster(d, 0, stream(1), Config{}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Cluster(d, 4, stream(1), Config{}); err == nil {
		t.Fatal("k>n accepted")
	}
}

func TestPAMKEqualsN(t *testing.T) {
	d := dissim.New(3)
	d.Set(1, 0, 1)
	d.Set(2, 0, 2)
	d.Set(2, 1, 3)
	res, err := Cluster(d, 3, stream(4), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Fatalf("k=n cost = %v", res.Cost)
	}
	for i, l := range res.Labels {
		if res.Medoids[l] != i {
			t.Fatalf("object %d not its own medoid: %v %v", i, res.Medoids, res.Labels)
		}
	}
}

func TestPAMDeterministicGivenSeed(t *testing.T) {
	gen := rng.NewXoshiro(rng.SeedFromUint64(5))
	d := dissim.New(20)
	for i := 1; i < 20; i++ {
		for j := 0; j < i; j++ {
			d.Set(i, j, rng.Float64(gen)+0.01)
		}
	}
	a, err := Cluster(d, 4, stream(6), Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(d, 4, stream(6), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labelings")
		}
	}
}

func randomPAMMatrix(n int, seed uint64) *dissim.Matrix {
	gen := rng.NewXoshiro(rng.SeedFromUint64(seed))
	d := dissim.New(n)
	for i := 1; i < n; i++ {
		for j := 0; j < i; j++ {
			d.Set(i, j, rng.Float64(gen)+0.01)
		}
	}
	return d
}

// TestSwapDeltasMatchBruteForce pins the FastPAM1 decomposition against a
// direct recomputation: for every (medoid, candidate) pair the cached
// delta must equal the difference between the post-swap and pre-swap
// assignment costs.
func TestSwapDeltasMatchBruteForce(t *testing.T) {
	for _, n := range []int{5, 12, 30} {
		for _, k := range []int{1, 2, 4} {
			if k >= n {
				continue
			}
			d := randomPAMMatrix(n, uint64(n*10+k))
			scratch := make([][]float64, 1)
			medoids, medoidRows, isMedoid := build(d, k, stream(uint64(k)), 1, scratch)
			nearest := make([]float64, n)
			second := make([]float64, n)
			nearestIdx := make([]int, n)
			recomputeCaches(medoidRows, nearest, second, nearestIdx, 1)
			deltas := make([]float64, n*k)
			swapDeltas(d, k, isMedoid, nearest, second, nearestIdx, deltas, 1, scratch)

			assignCost := func(meds []int) float64 {
				cost := 0.0
				for i := 0; i < n; i++ {
					best := math.Inf(1)
					for _, m := range meds {
						if v := d.At(i, m); v < best {
							best = v
						}
					}
					cost += best
				}
				return cost
			}
			base := assignCost(medoids)
			trial := make([]int, k)
			for c := 0; c < n; c++ {
				if isMedoid[c] {
					continue
				}
				for m := 0; m < k; m++ {
					copy(trial, medoids)
					trial[m] = c
					want := assignCost(trial) - base
					if math.Abs(deltas[c*k+m]-want) > 1e-9 {
						t.Fatalf("n=%d k=%d swap(m=%d, c=%d): delta %v, brute force %v",
							n, k, m, c, deltas[c*k+m], want)
					}
				}
			}
		}
	}
}

// TestPAMDeterministicAcrossWorkers pins bit-identical output at
// Parallelism 1, 2 and all cores.
func TestPAMDeterministicAcrossWorkers(t *testing.T) {
	d := randomPAMMatrix(60, 17)
	ref, err := Cluster(d, 5, stream(9), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 0} {
		got, err := Cluster(d, 5, stream(9), Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cost != ref.Cost || got.SwapIterations != ref.SwapIterations {
			t.Fatalf("workers=%d: cost %v/%d vs serial %v/%d",
				workers, got.Cost, got.SwapIterations, ref.Cost, ref.SwapIterations)
		}
		for i := range ref.Labels {
			if got.Labels[i] != ref.Labels[i] {
				t.Fatalf("workers=%d: label[%d] differs", workers, i)
			}
		}
		for i := range ref.Medoids {
			if got.Medoids[i] != ref.Medoids[i] {
				t.Fatalf("workers=%d: medoids %v vs %v", workers, got.Medoids, ref.Medoids)
			}
		}
	}
}

// TestPAMSwapImprovesCost checks that the swap phase never worsens the
// BUILD cost and that every accepted round strictly improved it.
func TestPAMSwapImprovesCost(t *testing.T) {
	d := randomPAMMatrix(50, 23)
	res, err := Cluster(d, 6, stream(11), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// BUILD-only cost: k medoids chosen greedily, no swaps.
	medoids, _, _ := build(d, 6, stream(11), 1, make([][]float64, 1))
	buildCost := 0.0
	for i := 0; i < d.N(); i++ {
		best := math.Inf(1)
		for _, m := range medoids {
			if v := d.At(i, m); v < best {
				best = v
			}
		}
		buildCost += best
	}
	if res.Cost > buildCost+1e-12 {
		t.Fatalf("swap made cost worse: %v > %v", res.Cost, buildCost)
	}
}

func BenchmarkPAMSwap(b *testing.B) {
	// The tentpole's swap-round target: k=8, n=512. BUILD dominates once
	// the swap rounds collapse to O(n²); the family tracks the full run.
	d := randomPAMMatrix(512, 42)
	for _, bench := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run("n=512/k=8/"+bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Cluster(d, 8, stream(7), Config{Workers: bench.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestPAMCostConsistency(t *testing.T) {
	// Reported cost equals the recomputed assignment cost.
	gen := rng.NewXoshiro(rng.SeedFromUint64(7))
	d := dissim.New(15)
	for i := 1; i < 15; i++ {
		for j := 0; j < i; j++ {
			d.Set(i, j, rng.Float64(gen))
		}
	}
	res, err := Cluster(d, 3, stream(8), Config{})
	if err != nil {
		t.Fatal(err)
	}
	cost := 0.0
	for i, l := range res.Labels {
		cost += d.At(i, res.Medoids[l])
	}
	if math.Abs(cost-res.Cost) > 1e-12 {
		t.Fatalf("cost %v vs recomputed %v", res.Cost, cost)
	}
}
