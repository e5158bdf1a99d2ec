package main

import (
	"fmt"
	"io"
	"strings"
	"time"

	"ppclust"
	"ppclust/internal/dissim"
	"ppclust/internal/eval"
	"ppclust/internal/hcluster"
	"ppclust/internal/kmeans"
	"ppclust/internal/party"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
)

// runAccuracy verifies the "no loss of accuracy" claim end to end for every
// protocol variant.
func runAccuracy(w io.Writer) error {
	schema := ppclust.Schema{Attrs: []ppclust.Attribute{
		{Name: "age", Type: ppclust.Numeric},
		{Name: "diag", Type: ppclust.Categorical},
		{Name: "dna", Type: ppclust.Alphanumeric, Alphabet: ppclust.DNA},
	}}
	a := ppclust.MustNewTable(schema)
	a.MustAppendRow(20.0, "flu", "ACACAC")
	a.MustAppendRow(71.0, "cold", "GTGTGT")
	a.MustAppendRow(24.0, "flu", "ACACCA")
	b := ppclust.MustNewTable(schema)
	b.MustAppendRow(25.0, "flu", "ACAC")
	b.MustAppendRow(69.0, "cold", "GTGTT")
	c := ppclust.MustNewTable(schema)
	c.MustAppendRow(23.0, "flu", "ACACA")
	c.MustAppendRow(74.0, "cold", "GTGTG")
	parts := []ppclust.Partition{{Site: "A", Table: a}, {Site: "B", Table: b}, {Site: "C", Table: c}}

	base, err := ppclust.CentralizedBaseline(schema, parts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "3 holders, mixed schema; per-attribute max |private - centralized| entry:")
	fmt.Fprintf(w, "%10s %14s %14s %14s\n", "variant", "numeric", "categorical", "alphanumeric")
	var broken []error
	for _, v := range []struct {
		name  string
		opt   ppclust.NumericVariant
		bound float64 // 0: exact
	}{
		{"float64", ppclust.Float64Arithmetic, 1e-9},
		{"int64", ppclust.Int64Arithmetic, 0},
		{"modp", ppclust.ModPArithmetic, 0},
	} {
		ms, _, err := ppclust.BuildDissimilarity(schema, parts, ppclust.Options{Variant: v.opt, Random: detRandom})
		if err != nil {
			return err
		}
		devs := make([]float64, len(ms))
		for i := range ms {
			devs[i], err = ms[i].MaxDifference(base[i])
			if err != nil {
				return err
			}
			if devs[i] > v.bound {
				broken = append(broken, fmt.Errorf("%s, %s: deviation %g, bound %g", v.name, schema.Attrs[i].Name, devs[i], v.bound))
			}
		}
		fmt.Fprintf(w, "%10s %14.3g %14.3g %14.3g\n", v.name, devs[0], devs[1], devs[2])
	}
	fmt.Fprintln(w, "\nthe paper's \"there is no loss of accuracy\" claim, versus sanitization methods")
	return verdict(w, "SHAPE: zero loss for exact variants; ≤1e-9 float rounding for float64", broken...)
}

// runShapes is the hierarchical-vs-k-means comparison motivating the
// paper's choice of clustering family.
func runShapes(w io.Writer) error {
	fmt.Fprintln(w, "(a) non-spherical clusters: two concentric rings, 150 points")
	rings, err := ppclust.GenRings(50, 100, 1, 5, 0.05, 42)
	if err != nil {
		return err
	}
	xs, _ := rings.Table.NumericCol(0)
	ys, _ := rings.Table.NumericCol(1)
	n := rings.Table.Len()
	m := dissim.FromLocal(n, func(i, j int) float64 {
		dx, dy := xs[i]-xs[j], ys[i]-ys[j]
		return dx*dx + dy*dy
	})

	fmt.Fprintf(w, "%22s %8s\n", "method", "ARI")
	var broken []error
	for _, link := range []hcluster.Linkage{hcluster.Single, hcluster.Complete, hcluster.Average} {
		dg, err := hcluster.Cluster(m, link)
		if err != nil {
			return err
		}
		labels, err := dg.Labels(2)
		if err != nil {
			return err
		}
		ari, err := eval.AdjustedRandIndex(rings.Truth, labels)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%22s %8.3f\n", "hierarchical/"+link.String(), ari)
		if link == hcluster.Single && ari < 0.999 {
			broken = append(broken, fmt.Errorf("single linkage: ARI %.3f, want at least 0.999", ari))
		}
	}
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{xs[i], ys[i]}
	}
	km, err := kmeans.KMeans(points, 2, rng.NewXoshiro(rng.SeedFromUint64(7)), kmeans.Config{})
	if err != nil {
		return err
	}
	ariKM, err := eval.AdjustedRandIndex(rings.Truth, km.Labels)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%22s %8.3f\n", "k-means (baseline)", ariKM)
	if ariKM > 0.3 {
		broken = append(broken, fmt.Errorf("k-means: ARI %.3f, want at most 0.3", ariKM))
	}
	fmt.Fprintln(w, "(paper: partitioning methods \"tend to result in spherical clusters\")")
	if err := verdict(w, "SHAPE: single-linkage recovers the rings exactly; k-means cannot", broken...); err != nil {
		return err
	}

	fmt.Fprintln(w, "\n(b) string data: 4 DNA families x 10 strains")
	dna, err := ppclust.GenDNAFamilies(ppclust.DNASpec{Families: 4, PerFamily: 10, Length: 50, SubRate: 0.05, IndelRate: 0.02}, 43)
	if err != nil {
		return err
	}
	parts, truth, err := ppclust.SplitRoundRobin(dna, 2)
	if err != nil {
		return err
	}
	out, err := ppclust.Cluster(dna.Table.Schema(), parts,
		map[string]ppclust.ClusterRequest{"A": {Linkage: ppclust.Average, K: 4}},
		ppclust.Options{Random: detRandom})
	if err != nil {
		return err
	}
	labels, err := ppclust.ResultLabels(out.Results["A"], out.Report.ObjectIDs)
	if err != nil {
		return err
	}
	ari, err := eval.AdjustedRandIndex(truth, labels)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "hierarchical over private edit-distance matrix: ARI = %.3f\n", ari)
	fmt.Fprintln(w, "k-means: not applicable — no mean is defined for strings (type-level fact;")
	fmt.Fprintln(w, "the kmeans package accepts only numeric vectors, as the paper argues)")
	var errDNA error
	if ari < 0.999 {
		errDNA = fmt.Errorf("DNA families: ARI %.3f, want at least 0.999", ari)
	}
	return verdict(w, "SHAPE: the private edit-distance matrix recovers the DNA families exactly", errDNA)
}

// runScaleK measures session traffic and wall time against the number of
// data holders at a fixed size per holder: the comparison protocol runs
// once per holder pair, C(k,2) times.
func runScaleK(w io.Writer) error {
	const perHolder = 24
	fmt.Fprintf(w, "one numeric attribute, %d objects per holder, k holders\n\n", perHolder)
	fmt.Fprintf(w, "%4s %8s %14s %14s %12s\n", "k", "pairs", "total bytes", "cross-holder", "wall time")
	var cross, pairs []float64
	for _, k := range []int{2, 3, 4, 5, 6} {
		counts := make([]int, k)
		for i := range counts {
			counts[i] = perHolder
		}
		parts, err := numericParts(counts, uint64(k))
		if err != nil {
			return err
		}
		start := time.Now()
		t, err := runSession(parts, protocol.Batch)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		total, holders := 0.0, 0.0
		for name, b := range t {
			total += b
			if !strings.Contains(name, party.TPName) {
				holders += b
			}
		}
		cross, pairs = append(cross, holders), append(pairs, float64(k*(k-1)/2))
		fmt.Fprintf(w, "%4d %8d %14.0f %14.0f %12s\n", k, k*(k-1)/2, total, holders, elapsed.Round(time.Millisecond))
	}
	_, dev, err := fitWithin("cross-holder bytes", cross, pairs, 0.35)
	fmt.Fprintf(w, "\nfit of cross-holder bytes to C(k,2): maxdev %.1f%%\n", dev*100)
	return verdict(w, "SHAPE: cross-holder traffic grows with the C(k,2) pairwise protocol runs (paper Section 4)", err)
}
