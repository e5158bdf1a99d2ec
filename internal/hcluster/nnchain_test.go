package hcluster

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ppclust/internal/alloccheck"
	"ppclust/internal/dissim"
	"ppclust/internal/parallel"
	"ppclust/internal/rng"
)

// nnChainParent is the NN-chain engine as it stood before the live-slot
// list: every chain scan and every Lance–Williams update walks all n slots
// and tests an active flag. It is the exact oracle the engine is pinned to
// — same merges, same node ids, same height bits.
func nnChainParent(d *dissim.Matrix, link Linkage, workers int) *Dendrogram {
	n := d.N()
	dg := &Dendrogram{NLeaves: n, Linkage: link, Merges: make([]Merge, 0, n-1)}
	if n == 1 {
		return dg
	}

	// Condensed working copy (squared, in parallel, for the squared-form
	// linkages; else a clone, which zeroes nothing it then overwrites).
	src := d.PackedView()
	var w []float64
	if link.usesSquared() {
		w = make([]float64, len(src))
		parallel.Range(workers, len(src), func(_, lo, hi int) {
			for c := lo; c < hi; c++ {
				v := src[c]
				w[c] = v * v
			}
		})
	} else {
		w = slices.Clone(src)
	}

	active := make([]bool, n)
	size := make([]float64, n)
	for i := range active {
		active[i] = true
		size[i] = 1
	}

	chain := make([]int, 0, n)
	raw := make([]rawMerge, 0, n-1)
	start := 0 // lowest slot that may still be active

	for len(raw) < n-1 {
		if len(chain) == 0 {
			for !active[start] {
				start++
			}
			chain = append(chain, start)
		}
		// Extend the chain until a reciprocal nearest-neighbor pair
		// appears at its end.
		var x, y int
		var dxy float64
		for {
			x = chain[len(chain)-1]
			prev := -1
			if len(chain) > 1 {
				prev = chain[len(chain)-2]
			}
			y, dxy = nearestActiveParent(w, active, n, x, prev)
			if y == prev {
				break
			}
			chain = append(chain, y)
		}
		chain = chain[:len(chain)-2] // pop x and y

		// Merge x and y at height dxy; the merged cluster lives in the
		// higher slot (longer contiguous condensed row).
		lo, hi := x, y
		if lo > hi {
			lo, hi = hi, lo
		}
		raw = append(raw, rawMerge{a: lo, b: hi, h: dxy})
		lwUpdateParent(w, active, size, n, lo, hi, dxy, link, workers)
		active[lo] = false
		size[hi] += size[lo]
	}

	return labelMerges(dg, raw, link, n)
}

// nearestActiveParent returns the active slot nearest to x (excluding x) and
// its distance. Ties prefer prev (the previous chain element, which
// guarantees termination), then the lowest slot index. The scan walks
// slot x's condensed row contiguously for partners below x, then its
// column above with an incrementally maintained offset (the stride from
// row z to z+1 is z, so no multiply per step).
func nearestActiveParent(w []float64, active []bool, n, x, prev int) (int, float64) {
	best, bestD := -1, math.Inf(1)
	if prev >= 0 {
		best, bestD = prev, w[condIdx(x, prev)]
	}
	row := x * (x - 1) / 2
	for z := 0; z < x; z++ {
		if active[z] {
			if v := w[row+z]; v < bestD {
				best, bestD = z, v
			}
		}
	}
	off := x*(x+1)/2 + x // condensed index of (x+1, x)
	for z := x + 1; z < n; z++ {
		if active[z] {
			if v := w[off]; v < bestD {
				best, bestD = z, v
			}
		}
		off += z
	}
	return best, bestD
}

// lwUpdateParent applies the Lance–Williams recurrence for the merge of slots
// lo and hi (at squared-form distance dij) to every other active slot,
// writing the merged cluster's distances into slot hi.
func lwUpdateParent(w []float64, active []bool, size []float64, n, lo, hi int, dij float64, link Linkage, workers int) {
	if rw := rowWorkers(workers, n); rw > 1 {
		parallel.Range(rw, n, func(_, from, to int) {
			lwUpdateRangeParent(w, active, size, from, to, lo, hi, dij, link)
		})
		return
	}
	lwUpdateRangeParent(w, active, size, 0, n, lo, hi, dij, link)
}

// lwUpdateRangeParent is lwUpdateParent for the partners k in [from, to).
func lwUpdateRangeParent(w []float64, active []bool, size []float64, from, to, lo, hi int, dij float64, link Linkage) {
	ni, nj := size[lo], size[hi]
	rlo, rhi := lo*(lo-1)/2, hi*(hi-1)/2
	avgI, avgJ := ni/(ni+nj), nj/(ni+nj)
	for k := from; k < to; k++ {
		if !active[k] || k == lo || k == hi {
			continue
		}
		// Resolve both condensed cells once: contiguous row walks
		// when k sits below the slot, column offsets above it.
		var iik, ijk int
		if k < lo {
			iik = rlo + k
		} else {
			iik = k*(k-1)/2 + lo
		}
		if k < hi {
			ijk = rhi + k
		} else {
			ijk = k*(k-1)/2 + hi
		}
		dik, djk := w[iik], w[ijk]
		var v float64
		switch link {
		case Single:
			if dik < djk {
				v = dik
			} else {
				v = djk
			}
		case Complete:
			if dik > djk {
				v = dik
			} else {
				v = djk
			}
		case Average:
			v = avgI*dik + avgJ*djk
		case Weighted:
			v = 0.5*dik + 0.5*djk
		case Ward:
			nk := size[k]
			s := ni + nj + nk
			v = ((ni+nk)/s)*dik + ((nj+nk)/s)*djk + (-nk/s)*dij
		default:
			ai, aj, beta, gamma := lwParams(link, ni, nj, size[k])
			v = ai*dik + aj*djk + beta*dij + gamma*math.Abs(dik-djk)
		}
		w[ijk] = v
	}
}

// tieMatrix is an integer-valued matrix over a handful of values: most
// cells, and most Lance–Williams updates, tie exactly.
func tieMatrix(n int, seed uint64) *dissim.Matrix {
	gen := rng.NewXoshiro(rng.SeedFromUint64(seed))
	return dissim.FromLocal(n, func(i, j int) float64 { return float64(1 + rng.Symbol(gen, 8)) })
}

// familyMatrix is a pair-cpu-shaped matrix: one numeric attribute drawn
// from four well-separated families, |x − y|, normalised by the maximum.
func familyMatrix(n int, seed uint64) *dissim.Matrix {
	gen := rng.NewXoshiro(rng.SeedFromUint64(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.Symbol(gen, 4))*10 + rng.Float64(gen)
	}
	d := dissim.FromLocal(n, func(i, j int) float64 { return math.Abs(x[i] - x[j]) })
	d.Normalize()
	return d
}

// TestNNChainMergesMatchParent pins the live-slot engine to the parent's
// all-slot engine exactly: every merge's pair, node id and height bits, for
// every reducible linkage at workers 1, 2 and all cores, on random,
// tie-heavy and pair-cpu-shaped matrices.
func TestNNChainMergesMatchParent(t *testing.T) {
	inputs := []struct {
		name string
		d    *dissim.Matrix
	}{
		{"random-2", randomMatrix(2, 1)},
		{"random-97", randomMatrix(97, 5)},
		{"random-300", randomMatrix(300, 9)},
		{"ties-3", tieMatrix(3, 2)},
		{"ties-150", tieMatrix(150, 4)},
		{"ties-400", tieMatrix(400, 6)},
		{"family-1200", familyMatrix(1200, 11)},
	}
	for _, in := range inputs {
		for _, link := range []Linkage{Single, Complete, Average, Weighted, Ward} {
			want := nnChainParent(in.d, link, 1)
			for _, workers := range []int{1, 2, 0} {
				t.Run(fmt.Sprintf("%s/%v/workers=%d", in.name, link, workers), func(t *testing.T) {
					got := clusterNNChain(in.d, link, workers)
					if len(got.Merges) != len(want.Merges) {
						t.Fatalf("%d merges, parent %d", len(got.Merges), len(want.Merges))
					}
					for s, m := range want.Merges {
						g := got.Merges[s]
						if g.A != m.A || g.B != m.B || g.Node != m.Node || g.Size != m.Size ||
							math.Float64bits(g.Height) != math.Float64bits(m.Height) {
							t.Fatalf("merge %d: %+v, parent %+v", s, g, m)
						}
					}
				})
			}
		}
	}
}

// TestNNChainMatchesReference is the backend equivalence property test:
// across all linkages and a spread of sizes, ClusterPar's engine (MST for
// single, NN-chain for the other reducible linkages, generic for
// centroid/median) must produce the same CutK partitions at every k and
// the same cophenetic matrix as the retained reference engine.
func TestNNChainMatchesReference(t *testing.T) {
	for _, link := range allLinkages {
		t.Run(link.String(), func(t *testing.T) {
			for _, n := range []int{1, 2, 3, 17, 64} {
				for seed := uint64(1); seed <= 3; seed++ {
					d := randomMatrix(n, seed*100+uint64(n))
					fast, err := ClusterPar(d, link, 1)
					if err != nil {
						t.Fatal(err)
					}
					ref := clusterGeneric(d, link, 1)
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
// cores for every linkage and engine: ClusterPar's routing and the generic
// reference engine.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	engines := []struct {
		name string
		run  func(d *dissim.Matrix, link Linkage, workers int) *Dendrogram
	}{
		{"routed", func(d *dissim.Matrix, link Linkage, workers int) *Dendrogram {
			dg, err := ClusterPar(d, link, workers)
			if err != nil {
				t.Fatal(err)
			}
			return dg
		}},
		{"generic", clusterGeneric},
	}
	for _, eng := range engines {
		for _, link := range allLinkages {
			d := randomMatrix(48, 21)
			ref := eng.run(d, link, 1)
			for _, workers := range []int{2, 0} {
				got := eng.run(d, link, workers)
				for s := range ref.Merges {
					a, b := ref.Merges[s], got.Merges[s]
					if a != b {
						t.Fatalf("%s %v workers=%d: merge %d %+v vs serial %+v",
							eng.name, link, workers, s, b, a)
					}
				}
			}
		}
	}
}

// TestNNChainAllocationPin: below the row grain the Lance–Williams update
// runs inline, so a tree costs a fixed handful of allocations — the working
// copy, the chain state, the dendrogram — not a closure per merge (an
// earlier engine made 316 here). In bytes that is one working triangle plus
// a few n-length slices: a second triangle, or any slice allocated per
// merge, is at least another triangle's worth and fails it.
func TestNNChainAllocationPin(t *testing.T) {
	const n = 300
	d := randomMatrix(n, 7)
	bound := uint64(8*n*(n-1)/2 + 24*8*n)
	for _, link := range []Linkage{Complete, Average, Weighted, Ward} {
		for _, workers := range []int{1, 2} {
			run := func() { clusterNNChain(d, link, workers) }
			if allocs := testing.AllocsPerRun(3, run); allocs > 40 {
				t.Errorf("%v, workers %d: %v allocations for a 300-leaf tree", link, workers, allocs)
			}
			if bytes, _ := alloccheck.Least(3, run); bytes > bound {
				t.Errorf("%v, workers %d: %d bytes for a 300-leaf tree, want ≤ %d", link, workers, bytes, bound)
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

// BenchmarkClusterSingle500Reference times the retained generic reference
// engine on single linkage, the baseline the MST path's ≥5× criterion is
// measured against; it pairs with BenchmarkClusterSingle500 (the routed
// engine) for a quick in-package before/after. The session's own shape is
// timed by the hcluster.cluster_ms row of the repo benchmark (benchmark/).
func BenchmarkClusterSingle500Reference(b *testing.B) {
	d := randomMatrix(500, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		clusterGeneric(d, Single, 1)
	}
}
