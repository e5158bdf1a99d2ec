// Experiment-verification tests: each asserts the *shape* of one paper
// claim (communication growth, attack outcome, clustering comparison), as
// indexed in EXPERIMENTS.md. The worked examples E1/E3 are pinned in
// internal/protocol; end-to-end accuracy E9 in internal/party and
// ppclust_test.go.
package ppclust_test

import (
	"fmt"
	"testing"

	"ppclust"
	"ppclust/internal/costmodel"
	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/hcluster"
	"ppclust/internal/kmeans"
	"ppclust/internal/party"
	"ppclust/internal/rng"
)

// expNumericParts builds two single-numeric-attribute holders of size n.
func expNumericParts(t *testing.T, n int, seed uint64) []dataset.Partition {
	t.Helper()
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	s := rng.NewXoshiro(rng.SeedFromUint64(seed))
	parts := make([]dataset.Partition, 2)
	for i, site := range []string{"A", "B"} {
		tab := dataset.MustNewTable(schema)
		for r := 0; r < n; r++ {
			tab.MustAppendRow(rng.Float64(s) * 1000)
		}
		parts[i] = dataset.Partition{Site: site, Table: tab}
	}
	return parts
}

func expAlphaParts(t *testing.T, n, p int, seed uint64) []dataset.Partition {
	t.Helper()
	schema := dataset.Schema{Attrs: []dataset.Attribute{
		{Name: "seq", Type: dataset.Alphanumeric, Alphabet: ppclust.DNA},
	}}
	s := rng.NewXoshiro(rng.SeedFromUint64(seed))
	parts := make([]dataset.Partition, 2)
	for i, site := range []string{"A", "B"} {
		tab := dataset.MustNewTable(schema)
		for r := 0; r < n; r++ {
			buf := make([]rune, p)
			for c := range buf {
				buf[c] = []rune("ACGT")[rng.Symbol(s, 4)]
			}
			tab.MustAppendRow(string(buf))
		}
		parts[i] = dataset.Partition{Site: site, Table: tab}
	}
	return parts
}

func expCatParts(t *testing.T, n int, seed uint64) []dataset.Partition {
	t.Helper()
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "c", Type: dataset.Categorical}}}
	s := rng.NewXoshiro(rng.SeedFromUint64(seed))
	parts := make([]dataset.Partition, 2)
	for i, site := range []string{"A", "B"} {
		tab := dataset.MustNewTable(schema)
		for r := 0; r < n; r++ {
			tab.MustAppendRow(fmt.Sprintf("v%d", rng.Symbol(s, 8)))
		}
		parts[i] = dataset.Partition{Site: site, Table: tab}
	}
	return parts
}

func runExpSession(t *testing.T, parts []dataset.Partition) *party.SessionOutcome {
	t.Helper()
	out, err := party.RunInMemory(party.Config{
		Schema:  parts[0].Table.Schema(),
		Variant: party.Float64Variant,
	}, parts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func holderSent(out *party.SessionOutcome, name string, peers ...string) float64 {
	total := uint64(0)
	for _, p := range peers {
		b, _ := out.Traffic[party.LinkName(name, p)].Sent()
		total += b
	}
	return float64(total)
}

// TestNumericCommunicationCosts is E6: measured traffic follows the paper's
// O(n²+n) (initiator) and O(m²+m·n) (responder) — the quadratic model fits
// far better than a linear one.
func TestNumericCommunicationCosts(t *testing.T) {
	sizes := []int{32, 64, 128, 256}
	var measJ, measK, model, linear []float64
	// Fixed overhead measured on an empty session.
	empty := runExpSession(t, expNumericParts(t, 0, 0))
	ovJ := holderSent(empty, "A", "B", party.TPName)
	ovK := holderSent(empty, "B", "A", party.TPName)
	for _, n := range sizes {
		out := runExpSession(t, expNumericParts(t, n, uint64(n)))
		measJ = append(measJ, holderSent(out, "A", "B", party.TPName)-ovJ)
		measK = append(measK, holderSent(out, "B", "A", party.TPName)-ovK)
		lj, pj := costmodel.NumericInitiatorElems(n, n, false)
		model = append(model, float64(lj+pj))
		linear = append(linear, float64(n))
	}
	_, devQuad, err := costmodel.FitScale(measJ, model)
	if err != nil {
		t.Fatal(err)
	}
	_, devLin, err := costmodel.FitScale(measJ, linear)
	if err != nil {
		t.Fatal(err)
	}
	if devQuad > 0.15 {
		t.Fatalf("initiator quadratic fit deviates %.1f%%", devQuad*100)
	}
	if devLin < 2*devQuad {
		t.Fatalf("linear model fits initiator as well as quadratic (%.2f vs %.2f): growth is wrong", devLin, devQuad)
	}
	var modelK []float64
	for _, n := range sizes {
		lk, pk := costmodel.NumericResponderElems(n, n)
		modelK = append(modelK, float64(lk+pk))
	}
	if _, devK, err := costmodel.FitScale(measK, modelK); err != nil || devK > 0.15 {
		t.Fatalf("responder fit deviates %.1f%% (err %v)", devK*100, err)
	}
}

// TestAlphanumericCommunicationCosts is E7: responder traffic follows the
// paper's O(m²+m·q·n·p).
func TestAlphanumericCommunicationCosts(t *testing.T) {
	const p = 16
	empty := runExpSession(t, expAlphaParts(t, 0, p, 0))
	ovK := holderSent(empty, "B", "A", party.TPName)
	var meas, model []float64
	for _, n := range []int{8, 16, 32, 64} {
		out := runExpSession(t, expAlphaParts(t, n, p, uint64(n)))
		meas = append(meas, holderSent(out, "B", "A", party.TPName)-ovK)
		_, pk := costmodel.AlphaResponderElems(n, p, n, p)
		model = append(model, float64(pk))
	}
	if _, dev, err := costmodel.FitScale(meas, model); err != nil || dev > 0.15 {
		t.Fatalf("responder m·q·n·p fit deviates %.1f%% (err %v)", dev*100, err)
	}
}

// TestCategoricalCommunicationCosts is E8: per-holder traffic is linear in
// n.
func TestCategoricalCommunicationCosts(t *testing.T) {
	empty := runExpSession(t, expCatParts(t, 0, 0))
	ov := holderSent(empty, "A", "B", party.TPName)
	var meas, model []float64
	for _, n := range []int{64, 128, 256, 512} {
		out := runExpSession(t, expCatParts(t, n, uint64(n)))
		meas = append(meas, holderSent(out, "A", "B", party.TPName)-ov)
		model = append(model, float64(n))
	}
	if _, dev, err := costmodel.FitScale(meas, model); err != nil || dev > 0.1 {
		t.Fatalf("categorical linear fit deviates %.1f%% (err %v)", dev*100, err)
	}
}

// TestHierarchicalVsKMeansShapes is E13: single linkage recovers concentric
// rings exactly; k-means cannot ("partitioning methods tend to result in
// spherical clusters").
func TestHierarchicalVsKMeansShapes(t *testing.T) {
	rings, err := ppclust.GenRings(50, 100, 1, 5, 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	xs, _ := rings.Table.NumericCol(0)
	ys, _ := rings.Table.NumericCol(1)
	n := rings.Table.Len()
	m := dissim.FromLocal(n, func(i, j int) float64 {
		dx, dy := xs[i]-xs[j], ys[i]-ys[j]
		return dx*dx + dy*dy
	})
	dg, err := hcluster.Cluster(m, hcluster.Single)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := dg.Labels(2)
	if err != nil {
		t.Fatal(err)
	}
	ariH, err := ppclust.AdjustedRandIndex(rings.Truth, labels)
	if err != nil {
		t.Fatal(err)
	}
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{xs[i], ys[i]}
	}
	km, err := kmeans.KMeans(points, 2, rng.NewXoshiro(rng.SeedFromUint64(7)), kmeans.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ariK, err := ppclust.AdjustedRandIndex(rings.Truth, km.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if ariH < 0.999 {
		t.Fatalf("single linkage ARI = %v on rings, want 1", ariH)
	}
	if ariK > 0.3 {
		t.Fatalf("k-means ARI = %v on rings, expected failure (< 0.3)", ariK)
	}
}

// TestAtallahComparisonModel is E14 at the claim level: for the paper's
// clustering workloads the [8] comparator needs two orders of magnitude
// more traffic.
func TestAtallahComparisonModel(t *testing.T) {
	ours := costmodel.OursAlphaTotalBytes(ppclust.DNA, 50, 20, 50, 20)
	theirs := costmodel.DefaultAtallah.TotalBytes(50, 20, 50, 20)
	if ratio := float64(theirs) / float64(ours); ratio < 100 {
		t.Fatalf("Atallah/ours ratio = %.0f, want ≥ 100", ratio)
	}
}

// TestPartyScalingPairs is E15: total cross-holder protocol traffic grows
// with the number of holder pairs C(k,2) when per-holder size is fixed.
func TestPartyScalingPairs(t *testing.T) {
	perHolder := 24
	var meas, model []float64
	for _, k := range []int{2, 3, 4} {
		schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
		s := rng.NewXoshiro(rng.SeedFromUint64(uint64(k)))
		parts := make([]dataset.Partition, k)
		for i := 0; i < k; i++ {
			tab := dataset.MustNewTable(schema)
			for r := 0; r < perHolder; r++ {
				tab.MustAppendRow(rng.Float64(s) * 100)
			}
			parts[i] = dataset.Partition{Site: string(rune('A' + i)), Table: tab}
		}
		out := runExpSession(t, parts)
		// Sum cross-holder links only (the pairwise protocol traffic).
		total := uint64(0)
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i == j {
					continue
				}
				b, _ := out.Traffic[party.LinkName(string(rune('A'+i)), string(rune('A'+j)))].Sent()
				total += b
			}
		}
		meas = append(meas, float64(total))
		model = append(model, float64(k*(k-1)/2))
	}
	if _, dev, err := costmodel.FitScale(meas, model); err != nil || dev > 0.35 {
		t.Fatalf("C(k,2) fit deviates %.1f%% (err %v)", dev*100, err)
	}
}
