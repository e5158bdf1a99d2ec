package hcluster

import (
	"math"
	"testing"
)

// TestNNChainMatchesReference is the backend equivalence property test:
// across all linkages and a spread of sizes, the automatic engine
// (MST for single, NN-chain for the other reducible linkages, generic
// for centroid/median) must produce the same CutK partitions at every k
// and the same cophenetic matrix as the retained reference engine.
func TestNNChainMatchesReference(t *testing.T) {
	for _, link := range allLinkages {
		t.Run(link.String(), func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 17, 64} {
				for seed := uint64(1); seed <= 3; seed++ {
					d := randomMatrix(n, seed*100+uint64(n))
					fast, err := ClusterOpt(d, link, ClusterOptions{Algorithm: AlgoAuto, Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					ref, err := ClusterOpt(d, link, ClusterOptions{Algorithm: AlgoGeneric, Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					if !partitionsEqual(t, fast, ref) {
						t.Fatalf("n=%d seed=%d: engines induce different partitions", n, seed)
					}
					fc, rc := fast.Cophenetic(), ref.Cophenetic()
					for i := 0; i < n; i++ {
						for j := 0; j < i; j++ {
							if math.Abs(fc.At(i, j)-rc.At(i, j)) > 1e-9 {
								t.Fatalf("n=%d seed=%d: cophenetic(%d,%d) = %v vs %v",
									n, seed, i, j, fc.At(i, j), rc.At(i, j))
							}
						}
					}
				}
			}
		})
	}
}

// TestNNChainExplicitAlgorithm pins AlgoNNChain to the chain engine for
// every reducible linkage (single included — the MST fast path is an
// AlgoAuto routing decision, the chain must stay correct on its own) and
// verifies the documented centroid/median fallback to the generic engine.
func TestNNChainExplicitAlgorithm(t *testing.T) {
	for _, link := range allLinkages {
		d := randomMatrix(33, 7)
		chain, err := ClusterOpt(d, link, ClusterOptions{Algorithm: AlgoNNChain, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := ClusterOpt(d, link, ClusterOptions{Algorithm: AlgoGeneric, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !partitionsEqual(t, chain, ref) {
			t.Fatalf("%v: AlgoNNChain disagrees with reference", link)
		}
	}
	if _, err := ClusterOpt(randomMatrix(4, 1), Single, ClusterOptions{Algorithm: Algorithm(9)}); err == nil {
		t.Fatal("invalid algorithm accepted")
	}
}

// TestNNChainSingleUsesChainDirectly exercises clusterNNChain on single
// linkage (bypassing the MST routing) against the MST path.
func TestNNChainSingleUsesChainDirectly(t *testing.T) {
	d := randomMatrix(40, 19)
	chain := clusterNNChain(d, Single, 1)
	mst := clusterMSTSingle(d, 1)
	if !partitionsEqual(t, chain, mst) {
		t.Fatal("NN-chain and MST single-linkage engines disagree")
	}
	for s := range chain.Merges {
		if math.Abs(chain.Merges[s].Height-mst.Merges[s].Height) > 1e-12 {
			t.Fatalf("merge %d: height %v vs %v", s, chain.Merges[s].Height, mst.Merges[s].Height)
		}
	}
}

// TestClusterDeterministicAcrossWorkers pins bit-identical dendrograms
// (merge pairs, node ids and exact heights) at Parallelism 1, 2 and all
// cores for every linkage and engine.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	for _, algo := range []Algorithm{AlgoAuto, AlgoGeneric} {
		for _, link := range allLinkages {
			d := randomMatrix(48, 21)
			ref, err := ClusterOpt(d, link, ClusterOptions{Algorithm: algo, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 0} {
				got, err := ClusterOpt(d, link, ClusterOptions{Algorithm: algo, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				for s := range ref.Merges {
					a, b := ref.Merges[s], got.Merges[s]
					if a != b {
						t.Fatalf("algo=%d %v workers=%d: merge %d %+v vs serial %+v",
							algo, link, workers, s, b, a)
					}
				}
			}
		}
	}
}

// TestNNChainAllocationPin: below the row grain the Lance–Williams update
// runs inline, so a tree costs a fixed handful of allocations — the working
// copy, the chain state, the dendrogram — not a closure per merge (the
// parent made 316 here).
func TestNNChainAllocationPin(t *testing.T) {
	d := randomMatrix(300, 7)
	for _, link := range []Linkage{Complete, Average, Weighted, Ward} {
		for _, workers := range []int{1, 2} {
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := ClusterOpt(d, link, ClusterOptions{Algorithm: AlgoNNChain, Workers: workers}); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 40 {
				t.Errorf("%v, workers %d: %v allocations for a 300-leaf tree", link, workers, allocs)
			}
		}
	}
}

// TestDianaDeterministicAcrossWorkers pins identical divisive trees at
// Parallelism 1, 2 and all cores.
func TestDianaDeterministicAcrossWorkers(t *testing.T) {
	d := randomMatrix(40, 29)
	ref, err := DianaPar(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 0} {
		got, err := DianaPar(d, workers)
		if err != nil {
			t.Fatal(err)
		}
		for s := range ref.Merges {
			if ref.Merges[s] != got.Merges[s] {
				t.Fatalf("workers=%d: merge %d %+v vs serial %+v",
					workers, s, got.Merges[s], ref.Merges[s])
			}
		}
	}
}

// TestMSTSingleMonotone checks the MST path alone: emitted heights are
// non-decreasing and children precede parents.
func TestMSTSingleMonotone(t *testing.T) {
	dg := clusterMSTSingle(randomMatrix(64, 31), 1)
	for i, m := range dg.Merges {
		if i > 0 && m.Height < dg.Merges[i-1].Height {
			t.Fatalf("height inversion at merge %d", i)
		}
		if m.A >= m.Node || m.B >= m.Node {
			t.Fatalf("merge %d references node %d/%d >= its own id %d", i, m.A, m.B, m.Node)
		}
	}
}

func TestCondIdxRoundTrip(t *testing.T) {
	// The condensed layout must agree with dissim.Matrix's packed storage.
	d := randomMatrix(9, 3)
	packed := d.PackedView()
	for i := 0; i < 9; i++ {
		for j := 0; j < 9; j++ {
			if i == j {
				continue
			}
			if packed[condIdx(i, j)] != d.At(i, j) {
				t.Fatalf("condIdx(%d,%d) mismatch", i, j)
			}
		}
	}
}

// BenchmarkClusterSingle500Reference pairs with BenchmarkClusterSingle500
// (the automatic engine) for a quick in-package before/after; the full
// linkage × worker-count family at this scale is BenchmarkClusterBackend
// in the root bench_test.go.
func BenchmarkClusterSingle500Reference(b *testing.B) {
	d := randomMatrix(500, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ClusterOpt(d, Single, ClusterOptions{Algorithm: AlgoGeneric, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
