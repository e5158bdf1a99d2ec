package party

import (
	"io"
	"math"
	"strings"
	"testing"

	"ppclust/internal/alphabet"
	"ppclust/internal/catdist"
	"ppclust/internal/dataset"
	"ppclust/internal/hcluster"
	"ppclust/internal/keys"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// deterministicRandom gives each party an independent but reproducible
// randomness stream.
func deterministicRandom(salt uint64) RandomSource {
	return func(party string) io.Reader {
		seed := rng.SeedFromBytes([]byte(party))
		mixed := rng.SeedFromBytes(append(seed[:], byte(salt), byte(salt>>8)))
		return keys.StreamReader(rng.NewAESCTR(mixed))
	}
}

func mixedSchema() dataset.Schema {
	return dataset.Schema{Attrs: []dataset.Attribute{
		{Name: "age", Type: dataset.Numeric},
		{Name: "diagnosis", Type: dataset.Categorical},
		{Name: "dna", Type: dataset.Alphanumeric, Alphabet: alphabet.DNA},
	}}
}

// mixedPartitions builds three sites with mixed attributes and a planted
// 2-cluster structure (young/flu/AC-rich vs old/cold/GT-rich).
func mixedPartitions(t *testing.T) []dataset.Partition {
	t.Helper()
	rows := []struct {
		site string
		age  float64
		diag string
		dna  string
	}{
		{"A", 20, "flu", "ACACAC"},
		{"A", 22, "flu", "ACACCC"},
		{"A", 71, "cold", "GTGTGT"},
		{"B", 25, "flu", "ACAC"},
		{"B", 69, "cold", "GTGTT"},
		{"C", 23, "flu", "ACACA"},
		{"C", 74, "cold", "GTGTG"},
		{"C", 70, "cold", "TTGTGT"},
	}
	tables := map[string]*dataset.Table{}
	for _, site := range []string{"A", "B", "C"} {
		tables[site] = dataset.MustNewTable(mixedSchema())
	}
	for _, r := range rows {
		tables[r.site].MustAppendRow(r.age, r.diag, r.dna)
	}
	return []dataset.Partition{
		{Site: "A", Table: tables["A"]},
		{Site: "B", Table: tables["B"]},
		{Site: "C", Table: tables["C"]},
	}
}

func runMixedSession(t *testing.T, cfg Config) *SessionOutcome {
	t.Helper()
	parts := mixedPartitions(t)
	cfg.Schema = mixedSchema()
	reqs := map[string]ClusterRequest{
		"A": {Linkage: hcluster.Average, K: 2},
		"B": {Linkage: hcluster.Single, K: 2},
		"C": {Linkage: hcluster.Complete, K: 3},
	}
	out, err := RunInMemory(cfg, parts, reqs, deterministicRandom(1))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEndToEndMatchesCentralized is experiment E9: the privately assembled
// per-attribute matrices equal the centralized plaintext matrices, and the
// resulting clusterings are identical.
func TestEndToEndMatchesCentralized(t *testing.T) {
	variants := []struct {
		name string
		cfg  Config
		tol  float64
	}{
		{"float64-batch", Config{Variant: Float64Variant, Mode: protocol.Batch}, 1e-9},
		{"float64-perpair", Config{Variant: Float64Variant, Mode: protocol.PerPair}, 1e-9},
		{"int64-batch", Config{Variant: Int64Variant, Mode: protocol.Batch}, 0},
		{"modp-batch", Config{Variant: ModPVariant, Mode: protocol.Batch}, 0},
		{"plaintext-channels", Config{Variant: Int64Variant, Mode: protocol.Batch, PlaintextChannels: true}, 0},
	}
	parts := mixedPartitions(t)
	want, wantScales, err := CentralizedMatrices(mixedSchema(), parts)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			out := runMixedSession(t, v.cfg)
			if len(out.Report.AttributeMatrices) != len(want) {
				t.Fatalf("attribute count mismatch")
			}
			for attr := range want {
				got := out.Report.AttributeMatrices[attr]
				if !got.EqualWithin(want[attr], v.tol) {
					d, _ := got.MaxDifference(want[attr])
					t.Fatalf("attr %d matrices differ by %g (tol %g)\ngot:\n%v\nwant:\n%v",
						attr, d, v.tol, got, want[attr])
				}
				if math.Abs(out.Report.Scales[attr]-wantScales[attr]) > 1e-9*wantScales[attr] {
					t.Fatalf("attr %d scale %v, want %v", attr, out.Report.Scales[attr], wantScales[attr])
				}
			}
		})
	}
}

// TestClusteringRecoversPlantedStructure checks the published results: the
// 2-cluster cuts split young/flu/AC from old/cold/GT exactly.
func TestClusteringRecoversPlantedStructure(t *testing.T) {
	out := runMixedSession(t, Config{Variant: Float64Variant, Mode: protocol.Batch})
	young := map[string]bool{"A1": true, "A2": true, "B1": true, "C1": true}
	for _, holder := range []string{"A", "B"} { // both requested K=2
		res := out.Results[holder]
		if res == nil || len(res.Clusters) != 2 {
			t.Fatalf("holder %s result: %+v", holder, res)
		}
		for _, cluster := range res.Clusters {
			isYoung := young[cluster[0].String()]
			for _, m := range cluster {
				if young[m.String()] != isYoung {
					t.Fatalf("holder %s: mixed cluster %v", holder, cluster)
				}
			}
		}
	}
	// C requested K=3: a refinement, still no mixing of the two groups.
	resC := out.Results["C"]
	if len(resC.Clusters) != 3 {
		t.Fatalf("C got %d clusters", len(resC.Clusters))
	}
	for _, cluster := range resC.Clusters {
		isYoung := young[cluster[0].String()]
		for _, m := range cluster {
			if young[m.String()] != isYoung {
				t.Fatalf("C: mixed cluster %v", cluster)
			}
		}
	}
}

// TestFigure13ResultFormat is experiment E10: published results render in
// the paper's format and include the quality statistics, with cluster
// members identified as SiteIndex.
func TestFigure13ResultFormat(t *testing.T) {
	out := runMixedSession(t, Config{Variant: Float64Variant, Mode: protocol.Batch})
	res := out.Results["A"]
	text := res.Format()
	if !strings.Contains(text, "Cluster1\t") || !strings.Contains(text, "Cluster2\t") {
		t.Fatalf("format missing cluster lines:\n%s", text)
	}
	for _, id := range []string{"A1", "B1", "C1"} {
		if !strings.Contains(text, id) {
			t.Fatalf("format missing object %s:\n%s", id, text)
		}
	}
	if len(res.Quality) != len(res.Clusters) {
		t.Fatalf("%d quality entries for %d clusters", len(res.Quality), len(res.Clusters))
	}
	total := 0
	for _, q := range res.Quality {
		total += q.Size
		if q.AvgSquaredDistance < 0 || q.Diameter < 0 {
			t.Fatalf("negative quality stats: %+v", q)
		}
	}
	if total != 8 {
		t.Fatalf("quality sizes sum to %d, want 8", total)
	}
	// The planted structure is well separated, so the published silhouette
	// must be strongly positive.
	if res.Silhouette < 0.5 {
		t.Fatalf("published silhouette = %v, want > 0.5", res.Silhouette)
	}
}

// TestHoldersGetDistinctRequests: each holder's result honours its own
// linkage/k choice.
func TestHoldersGetDistinctRequests(t *testing.T) {
	out := runMixedSession(t, Config{Variant: Float64Variant, Mode: protocol.Batch})
	if out.Results["A"].Linkage != hcluster.Average || out.Results["A"].K != 2 {
		t.Fatalf("A result: %+v", out.Results["A"])
	}
	if out.Results["B"].Linkage != hcluster.Single {
		t.Fatalf("B result: %+v", out.Results["B"])
	}
	if out.Results["C"].K != 3 {
		t.Fatalf("C result: %+v", out.Results["C"])
	}
}

// TestTrafficAccounting: every protocol link carried bytes, and holder→TP
// links dominate holder→holder links for this shape (the s matrices are
// quadratic, the disguised vectors linear).
func TestTrafficAccounting(t *testing.T) {
	out := runMixedSession(t, Config{Variant: Float64Variant, Mode: protocol.Batch})
	for _, link := range []string{"A->B", "A->TP", "B->TP", "C->TP", "A->C", "B->C"} {
		ctr := out.Traffic[link]
		if ctr == nil {
			t.Fatalf("no counter for %s", link)
		}
		bytes, frames := ctr.Sent()
		if bytes == 0 || frames == 0 {
			t.Fatalf("link %s carried nothing", link)
		}
	}
	// B is responder for pair (A,B): its TP traffic includes the s
	// matrices, so B->TP must exceed A->B.
	ab, _ := out.Traffic["A->B"].Sent()
	btp, _ := out.Traffic["B->TP"].Sent()
	if btp <= ab {
		t.Fatalf("B->TP (%d) should exceed A->B (%d)", btp, ab)
	}
}

// TestSchemaMismatchAborts: a holder whose table disagrees with the session
// schema must abort the whole session before data flows.
func TestSchemaMismatchAborts(t *testing.T) {
	parts := mixedPartitions(t)
	otherSchema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "other", Type: dataset.Numeric}}}
	bad := dataset.MustNewTable(otherSchema)
	bad.MustAppendRow(1.0)
	parts[1] = dataset.Partition{Site: "B", Table: bad}
	cfg := Config{Schema: mixedSchema(), Variant: Float64Variant}
	if _, err := RunInMemory(cfg, parts, nil, deterministicRandom(2)); err == nil {
		t.Fatal("schema mismatch session succeeded")
	}
}

func TestNonIntegralValuesRejectedByIntVariants(t *testing.T) {
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	a := dataset.MustNewTable(schema)
	a.MustAppendRow(1.5)
	b := dataset.MustNewTable(schema)
	b.MustAppendRow(2.0)
	parts := []dataset.Partition{{Site: "A", Table: a}, {Site: "B", Table: b}}
	for _, v := range []Variant{Int64Variant, ModPVariant} {
		cfg := Config{Schema: schema, Variant: v}
		if _, err := RunInMemory(cfg, parts, nil, deterministicRandom(3)); err == nil {
			t.Fatalf("variant %v accepted non-integral values", v)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	schema := mixedSchema()
	tbl := dataset.MustNewTable(schema)
	if err := validHolderNames([]string{"A"}); err == nil {
		t.Fatal("single holder accepted")
	}
	if err := validHolderNames([]string{"B", "A"}); err == nil {
		t.Fatal("unsorted holders accepted")
	}
	if err := validHolderNames([]string{"A", "A"}); err == nil {
		t.Fatal("duplicate holders accepted")
	}
	if err := validHolderNames([]string{"A", "TP"}); err == nil {
		t.Fatal("TP as holder accepted")
	}
	if _, err := NewHolder("A", tbl, []string{"A", "B"}, Config{Schema: schema}, ClusterRequest{}, nil, nil); err == nil {
		t.Fatal("missing conduits accepted")
	}
	if _, err := RunInMemory(Config{Schema: schema, Variant: Variant(9)},
		mixedPartitions(t), nil, deterministicRandom(4)); err == nil {
		t.Fatal("invalid variant accepted")
	}
	if _, _, err := (Config{Schema: schema, LocalChunkBytes: -1}).normalized(); err == nil {
		t.Fatal("negative chunk budget accepted")
	}
	if _, err := RunInMemory(Config{Schema: schema, Mode: protocol.Mode(2)},
		mixedPartitions(t), nil, deterministicRandom(4)); err == nil || !strings.Contains(err.Error(), "masking mode") {
		t.Fatalf("unknown masking mode: %v", err)
	}
	if _, err := RunInMemory(Config{Schema: schema, RNG: rng.Kind(9)},
		mixedPartitions(t), nil, deterministicRandom(4)); err == nil || !strings.Contains(err.Error(), "generator kind") {
		t.Fatalf("unknown generator kind: %v", err)
	}
}

// modPBoundParts is a two-holder session of one numeric attribute whose
// first rows are a and b.
func modPBoundParts(a, b float64) []dataset.Partition {
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	var parts []dataset.Partition
	for i, rows := range [][]float64{{a, 0}, {b, 5}} {
		tab := dataset.MustNewTable(schema)
		for _, v := range rows {
			tab.MustAppendRow(v)
		}
		parts = append(parts, dataset.Partition{Site: string(rune('A' + i)), Table: tab})
	}
	return parts
}

// TestModPBoundDecodes: the largest magnitudes the mod-p arithmetic takes,
// ±(2^62 − 512) — the largest float64 integers below 2^62 — are a distance
// of 2^63 − 1024 apart, which the third party recovers exactly in both
// masking modes.
func TestModPBoundDecodes(t *testing.T) {
	const top = 1<<62 - 512
	parts := modPBoundParts(top, -top)
	for _, mode := range []protocol.Mode{protocol.Batch, protocol.PerPair} {
		cfg := Config{Schema: parts[0].Table.Schema(), Variant: ModPVariant, Mode: mode}
		out, err := RunInMemory(cfg, parts, nil, deterministicRandom(61))
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got, want := out.Report.Scales[0]*out.Report.AttributeMatrices[0].At(0, 2), float64(1<<63-1024); got != want || out.Report.Scales[0] != want {
			t.Fatalf("%v: distance %v (scale %v), want %v", mode, got, out.Report.Scales[0], want)
		}
	}
}

// TestModPBoundRefusedBeforeS: a holder holding 2^62 — whose distance to
// −2^62 would not decode — fails the session before any S frame moves,
// whichever side of the pair it is on, with an error that names the row.
func TestModPBoundRefusedBeforeS(t *testing.T) {
	for _, mode := range []protocol.Mode{protocol.Batch, protocol.PerPair} {
		for _, parts := range [][]dataset.Partition{modPBoundParts(1<<62, -(1 << 62)), modPBoundParts(-1<<62+512, 1<<62)} {
			cfg := Config{Schema: parts[0].Table.Schema(), Variant: ModPVariant, Mode: mode, PlaintextChannels: true}
			tp := newTap(cfg)
			_, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(62), tp.wrap)
			if err == nil || !strings.Contains(err.Error(), "at row 0 exceeds magnitude bound") {
				t.Fatalf("%v: want the holder's refusal naming row 0, got %v", mode, err)
			}
			if n := len(tp.sent("", "", kindNumS)); n != 0 {
				t.Fatalf("%v: %d S frames moved before the refusal", mode, n)
			}
		}
	}
}

// TestEmptyPartition: a holder with zero objects participates without
// breaking assembly — on one range and on two. It sends no comparison
// frame at all (no rows in any range, so a zero lane frame count), only
// its tag columns and request.
func TestEmptyPartition(t *testing.T) {
	parts := mixedPartitions(t)
	parts[1] = dataset.Partition{Site: "B", Table: dataset.MustNewTable(mixedSchema())}
	want, _, err := CentralizedMatrices(mixedSchema(), parts)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2} {
		cfg := Config{Schema: mixedSchema(), Variant: Float64Variant, TPShards: k}
		out, err := RunInMemory(cfg, parts, map[string]ClusterRequest{"A": {Linkage: hcluster.Average, K: 2}}, deterministicRandom(5))
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if out.Report.AttributeMatrices[0].N() != 6 {
			t.Fatalf("shards=%d: global size = %d, want 6", k, out.Report.AttributeMatrices[0].N())
		}
		for attr := range want {
			if !out.Report.AttributeMatrices[attr].EqualWithin(want[attr], 1e-9) {
				t.Fatalf("shards=%d: attr %d mismatch with empty partition", k, attr)
			}
		}
	}
}

// TestEmptyHolderSendsNoComparisonFrames pins the wire rule for holders
// without objects: no rows in a range means no frames toward it — not the
// former "one empty frame minimum" — for local triangles and S/M payloads
// alike, while the non-empty holders' streams are untouched.
func TestEmptyHolderSendsNoComparisonFrames(t *testing.T) {
	parts := mixedPartitions(t)
	parts[1] = dataset.Partition{Site: "B", Table: dataset.MustNewTable(mixedSchema())}
	comparison := []wire.Kind{kindLocal, kindNumS, kindAlphaM}
	cfg := Config{Schema: mixedSchema(), Variant: Float64Variant, PlaintextChannels: true}
	tp := newTap(cfg)
	if _, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(5), tp.wrap); err != nil {
		t.Fatal(err)
	}
	if n := len(tp.sent("B", TPName, comparison...)); n != 0 {
		t.Fatalf("empty holder B sent %d comparison frames, want 0", n)
	}
	if len(tp.sent("C", TPName, comparison...)) == 0 {
		t.Fatal("holder C sent no comparison frames; the counter is not observing the stream")
	}
}

// TestMethodChoices: the third party honours each holder's algorithm
// choice (agglomerative, DIANA, PAM) and all three recover the planted
// structure on this well-separated workload.
func TestMethodChoices(t *testing.T) {
	parts := mixedPartitions(t)
	cfg := Config{Schema: mixedSchema(), Variant: Float64Variant}
	reqs := map[string]ClusterRequest{
		"A": {Method: MethodAgglomerative, Linkage: hcluster.Average, K: 2},
		"B": {Method: MethodDiana, K: 2},
		"C": {Method: MethodPAM, K: 2},
	}
	out, err := RunInMemory(cfg, parts, reqs, deterministicRandom(13))
	if err != nil {
		t.Fatal(err)
	}
	young := map[string]bool{"A1": true, "A2": true, "B1": true, "C1": true}
	for holder, wantMethod := range map[string]Method{
		"A": MethodAgglomerative, "B": MethodDiana, "C": MethodPAM,
	} {
		res := out.Results[holder]
		if res.Method != wantMethod {
			t.Fatalf("%s method = %v, want %v", holder, res.Method, wantMethod)
		}
		if len(res.Clusters) != 2 {
			t.Fatalf("%s (%v): %d clusters", holder, wantMethod, len(res.Clusters))
		}
		for _, cluster := range res.Clusters {
			isYoung := young[cluster[0].String()]
			for _, m := range cluster {
				if young[m.String()] != isYoung {
					t.Fatalf("%s (%v): mixed cluster %v", holder, wantMethod, cluster)
				}
			}
		}
	}
}

func TestMethodString(t *testing.T) {
	if MethodAgglomerative.String() != "agglomerative" || MethodDiana.String() != "diana" ||
		MethodPAM.String() != "pam" || Method(9).String() != "unknown" {
		t.Fatal("Method.String mismatch")
	}
}

// extensionParts is two holders of two rows over an ordered and a
// hierarchical attribute, the extension types.
func extensionParts() (dataset.Schema, []dataset.Partition) {
	severity := catdist.MustNewOrdering("mild", "moderate", "severe", "critical")
	tax := catdist.MustNewTaxonomy("disease").
		MustAdd("infectious", "disease").
		MustAdd("viral", "infectious").
		MustAdd("influenza", "viral").
		MustAdd("measles", "viral").
		MustAdd("chronic", "disease").
		MustAdd("diabetes", "chronic")
	schema := dataset.Schema{Attrs: []dataset.Attribute{
		{Name: "severity", Type: dataset.Ordered, Order: severity},
		{Name: "diagnosis", Type: dataset.Hierarchical, Taxonomy: tax},
	}}
	a := dataset.MustNewTable(schema)
	a.MustAppendRow("mild", "influenza")
	a.MustAppendRow("critical", "diabetes")
	b := dataset.MustNewTable(schema)
	b.MustAppendRow("moderate", "measles")
	b.MustAppendRow("severe", "influenza")
	return schema, []dataset.Partition{{Site: "A", Table: a}, {Site: "B", Table: b}}
}

// TestOrderedAndHierarchicalAttributes is the future-work extension end to
// end: ordered attributes flow through the numeric protocol on ranks,
// hierarchical ones through encrypted taxonomy paths, and both match the
// centralized baseline exactly.
func TestOrderedAndHierarchicalAttributes(t *testing.T) {
	schema, parts := extensionParts()
	want, _, err := CentralizedMatrices(schema, parts)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunInMemory(Config{Schema: schema, Variant: Int64Variant}, parts,
		map[string]ClusterRequest{"A": {Linkage: hcluster.Average, K: 2}}, deterministicRandom(11))
	if err != nil {
		t.Fatal(err)
	}
	for attr := range want {
		if !out.Report.AttributeMatrices[attr].EqualWithin(want[attr], 1e-12) {
			d, _ := out.Report.AttributeMatrices[attr].MaxDifference(want[attr])
			t.Fatalf("attr %d deviates by %g:\ngot\n%v\nwant\n%v", attr, d,
				out.Report.AttributeMatrices[attr], want[attr])
		}
	}
	// Spot-check the taxonomy semantics on the normalized matrix: A1
	// (influenza) is closer to B1 (measles, sibling) than to A2 (diabetes).
	m := out.Report.AttributeMatrices[1]
	if !(m.At(0, 2) < m.At(0, 1)) {
		t.Fatalf("taxonomy ordering violated: d(influenza,measles)=%v d(influenza,diabetes)=%v",
			m.At(0, 2), m.At(0, 1))
	}
}

// TestExtensionSchemaFingerprint: sessions abort when parties disagree on
// the public order or taxonomy, not only on names/types.
func TestExtensionSchemaFingerprint(t *testing.T) {
	o1 := catdist.MustNewOrdering("a", "b")
	o2 := catdist.MustNewOrdering("b", "a")
	s1 := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Ordered, Order: o1}}}
	s2 := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Ordered, Order: o2}}}
	if schemaFingerprint(s1) == schemaFingerprint(s2) {
		t.Fatal("orderings not in fingerprint")
	}
}

// TestAllEmptySession: a census of zero objects completes with an empty
// published result (needed by the cost harness's overhead probe).
func TestAllEmptySession(t *testing.T) {
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	parts := []dataset.Partition{
		{Site: "A", Table: dataset.MustNewTable(schema)},
		{Site: "B", Table: dataset.MustNewTable(schema)},
	}
	for _, k := range []int{1, 2} {
		out, err := RunInMemory(Config{Schema: schema, Variant: Float64Variant, TPShards: k}, parts, nil, deterministicRandom(9))
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if len(out.Results["A"].Clusters) != 0 {
			t.Fatalf("shards=%d: empty session produced clusters: %+v", k, out.Results["A"])
		}
	}
}

// TestTwoHoldersMinimum: the smallest legal session (k=2) works.
func TestTwoHoldersMinimum(t *testing.T) {
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	a := dataset.MustNewTable(schema)
	a.MustAppendRow(1.0)
	a.MustAppendRow(2.0)
	b := dataset.MustNewTable(schema)
	b.MustAppendRow(10.0)
	parts := []dataset.Partition{{Site: "A", Table: a}, {Site: "B", Table: b}}
	out, err := RunInMemory(Config{Schema: schema, Variant: Int64Variant},
		parts, map[string]ClusterRequest{"A": {Linkage: hcluster.Single, K: 2}}, deterministicRandom(6))
	if err != nil {
		t.Fatal(err)
	}
	m := out.Report.AttributeMatrices[0]
	// Distances 1, 9, 8 normalized by 9.
	if math.Abs(m.At(1, 0)-1.0/9.0) > 1e-12 || math.Abs(m.At(2, 0)-1) > 1e-12 {
		t.Fatalf("matrix wrong:\n%v", m)
	}
}

// TestDissimMatrixNotInResult documents the paper's publication rule: the
// result exposes memberships and aggregate quality only.
func TestDissimMatrixNotInResult(t *testing.T) {
	out := runMixedSession(t, Config{Variant: Float64Variant, Mode: protocol.Batch})
	res := out.Results["A"]
	// The Result type carries clusters, quality, linkage, k — this test
	// pins that no per-pair distance data crosses back to holders.
	if res.Quality[0].Size <= 0 {
		t.Fatal("quality missing")
	}
	for _, q := range res.Quality {
		_ = q.AvgSquaredDistance // aggregate only
	}
}

func TestCentralizedMatricesValidation(t *testing.T) {
	if _, _, err := CentralizedMatrices(dataset.Schema{}, nil); err == nil {
		t.Fatal("empty schema accepted")
	}
}

// TestWeightsAffectClustering: a holder weighting only the numeric
// attribute gets a numeric-driven clustering even when strings disagree.
func TestWeightsAffectClustering(t *testing.T) {
	schema := dataset.Schema{Attrs: []dataset.Attribute{
		{Name: "x", Type: dataset.Numeric},
		{Name: "s", Type: dataset.Alphanumeric, Alphabet: alphabet.DNA},
	}}
	a := dataset.MustNewTable(schema)
	a.MustAppendRow(1.0, "AAAA") // numerically with B1, string-wise with B2
	b := dataset.MustNewTable(schema)
	b.MustAppendRow(2.0, "GGGG")
	b.MustAppendRow(100.0, "AAAA")
	parts := []dataset.Partition{{Site: "A", Table: a}, {Site: "B", Table: b}}
	cfg := Config{Schema: schema, Variant: Float64Variant}

	numOnly, err := RunInMemory(cfg, parts,
		map[string]ClusterRequest{"A": {Weights: []float64{1, 0}, Linkage: hcluster.Single, K: 2}},
		deterministicRandom(7))
	if err != nil {
		t.Fatal(err)
	}
	strOnly, err := RunInMemory(cfg, parts,
		map[string]ClusterRequest{"A": {Weights: []float64{0, 1}, Linkage: hcluster.Single, K: 2}},
		deterministicRandom(8))
	if err != nil {
		t.Fatal(err)
	}
	cohabit := func(res *Result, x, y string) bool {
		for _, c := range res.Clusters {
			has := map[string]bool{}
			for _, m := range c {
				has[m.String()] = true
			}
			if has[x] && has[y] {
				return true
			}
		}
		return false
	}
	if !cohabit(numOnly.Results["A"], "A1", "B1") {
		t.Fatal("numeric-weighted clustering ignored numeric proximity")
	}
	if !cohabit(strOnly.Results["A"], "A1", "B2") {
		t.Fatal("string-weighted clustering ignored string identity")
	}
}
