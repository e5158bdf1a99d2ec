package ppclust_test

import (
	"bytes"
	"io"
	"math"
	"net"
	"strings"
	"testing"

	"ppclust"
	"ppclust/internal/keys"
	"ppclust/internal/rng"
)

func detRandom(party string) io.Reader {
	seed := rng.SeedFromBytes([]byte("facade-test/" + party))
	return keys.StreamReader(rng.NewAESCTR(seed))
}

func facadeSchema() ppclust.Schema {
	return ppclust.Schema{Attrs: []ppclust.Attribute{
		{Name: "age", Type: ppclust.Numeric},
		{Name: "city", Type: ppclust.Categorical},
		{Name: "dna", Type: ppclust.Alphanumeric, Alphabet: ppclust.DNA},
	}}
}

func facadeParts(t *testing.T) []ppclust.Partition {
	t.Helper()
	schema := facadeSchema()
	a := ppclust.MustNewTable(schema)
	a.MustAppendRow(20.0, "izmir", "ACGT")
	a.MustAppendRow(22.0, "izmir", "ACGG")
	b := ppclust.MustNewTable(schema)
	b.MustAppendRow(70.0, "ankara", "TTTT")
	b.MustAppendRow(71.0, "ankara", "TTTA")
	return []ppclust.Partition{{Site: "A", Table: a}, {Site: "B", Table: b}}
}

func TestClusterFacade(t *testing.T) {
	out, err := ppclust.Cluster(facadeSchema(), facadeParts(t),
		map[string]ppclust.ClusterRequest{"A": {Linkage: ppclust.Average, K: 2}},
		ppclust.Options{Random: detRandom})
	if err != nil {
		t.Fatal(err)
	}
	res := out.Results["A"]
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters: %+v", res.Clusters)
	}
	text := res.Format()
	if !strings.Contains(text, "A1") || !strings.Contains(text, "B2") {
		t.Fatalf("format: %s", text)
	}
	// The planted split: A's objects together, B's objects together.
	for _, c := range res.Clusters {
		site := c[0].Site
		for _, m := range c {
			if m.Site != site {
				t.Fatalf("mixed cluster: %v", c)
			}
		}
	}
}

// TestClusterRefusesShards: an in-process session has no shard worker to
// reach, so Cluster and BuildDissimilarity refuse TPShards > 1 and say
// where a sharded session runs; TPShards 1 is the single third party.
func TestClusterRefusesShards(t *testing.T) {
	parts := facadeParts(t)
	_, err := ppclust.Cluster(facadeSchema(), parts, nil, ppclust.Options{TPShards: 2, Random: detRandom})
	if err == nil || !strings.Contains(err.Error(), "TPServerOptions.ShardAddrs") {
		t.Fatalf("Cluster at TPShards 2: %v, want a refusal naming the worker deployment", err)
	}
	if _, _, err := ppclust.BuildDissimilarity(facadeSchema(), parts, ppclust.Options{TPShards: 4}); err == nil {
		t.Fatal("BuildDissimilarity at TPShards 4 accepted")
	}
	if _, err := ppclust.Cluster(facadeSchema(), parts, nil, ppclust.Options{TPShards: 1, Random: detRandom}); err != nil {
		t.Fatalf("Cluster at TPShards 1: %v", err)
	}
}

func TestBuildDissimilarityAndApps(t *testing.T) {
	ms, ids, err := ppclust.BuildDissimilarity(facadeSchema(), facadeParts(t),
		ppclust.Options{Random: detRandom})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || len(ids) != 4 {
		t.Fatalf("%d matrices, %d ids", len(ms), len(ids))
	}
	baseline, err := ppclust.CentralizedBaseline(facadeSchema(), facadeParts(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		if !ms[i].EqualWithin(baseline[i], 1e-9) {
			t.Fatalf("attribute %d differs from centralized baseline", i)
		}
	}

	merged, err := ppclust.MergeMatrices(ms, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	dg, err := ppclust.HCluster(merged, ppclust.Complete)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := dg.Labels(2)
	if err != nil {
		t.Fatal(err)
	}
	sil, err := ppclust.Silhouette(merged, labels)
	if err != nil {
		t.Fatal(err)
	}
	if sil < 0.5 {
		t.Fatalf("silhouette = %v on well-separated data", sil)
	}

	// Record linkage: nothing links across sites at a tight threshold.
	matches, err := ppclust.Link(merged, ids, ppclust.LinkOptions{Threshold: 0.05, CrossSiteOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("unexpected matches: %+v", matches)
	}

	// Outliers: scores exist and are ordered.
	scores, err := ppclust.OutlierScores(merged, 1)
	if err != nil {
		t.Fatal(err)
	}
	top := ppclust.TopOutliers(scores, 2)
	if len(top) != 2 || top[0].KDist < top[1].KDist {
		t.Fatalf("outlier ordering: %+v", top)
	}
}

func TestVariantsAgree(t *testing.T) {
	// Integral data: all three arithmetic variants produce the same
	// matrices.
	schema := ppclust.Schema{Attrs: []ppclust.Attribute{{Name: "x", Type: ppclust.Numeric}}}
	a := ppclust.MustNewTable(schema)
	a.MustAppendRow(5.0)
	a.MustAppendRow(9.0)
	b := ppclust.MustNewTable(schema)
	b.MustAppendRow(40.0)
	parts := []ppclust.Partition{{Site: "A", Table: a}, {Site: "B", Table: b}}

	var ref *ppclust.DissimilarityMatrix
	for _, v := range []ppclust.NumericVariant{ppclust.Float64Arithmetic, ppclust.Int64Arithmetic, ppclust.ModPArithmetic} {
		ms, _, err := ppclust.BuildDissimilarity(schema, parts, ppclust.Options{Variant: v, Random: detRandom})
		if err != nil {
			t.Fatalf("variant %v: %v", v, err)
		}
		if ref == nil {
			ref = ms[0]
			continue
		}
		if !ms[0].EqualWithin(ref, 1e-9) {
			t.Fatalf("variant %v disagrees", v)
		}
	}
}

func TestGeneratorsFacade(t *testing.T) {
	l, err := ppclust.GenDNAFamilies(ppclust.DNASpec{Families: 2, PerFamily: 4, Length: 30, SubRate: 0.05}, 7)
	if err != nil {
		t.Fatal(err)
	}
	parts, truth, err := ppclust.SplitRoundRobin(l, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || len(truth) != 8 {
		t.Fatalf("split: %d parts, %d truth", len(parts), len(truth))
	}
	rings, err := ppclust.GenRings(20, 40, 1, 5, 0.05, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rings.Table.Len() != 60 {
		t.Fatal("rings size")
	}
	gauss, err := ppclust.GenGaussians([]ppclust.GaussianCluster{{Center: []float64{0}, Stddev: 1, N: 5}}, 9)
	if err != nil || gauss.Table.Len() != 5 {
		t.Fatalf("gaussians: %v", err)
	}
	cat, err := ppclust.GenCategorical(2, 5, 3, 6, 0.9, 10)
	if err != nil || cat.Table.Len() != 10 {
		t.Fatalf("categorical: %v", err)
	}
	if _, _, err := ppclust.SplitRandom(l, 3, 11); err != nil {
		t.Fatal(err)
	}
}

func TestCSVFacade(t *testing.T) {
	schema := ppclust.Schema{Attrs: []ppclust.Attribute{{Name: "x", Type: ppclust.Numeric}}}
	tab := ppclust.MustNewTable(schema)
	tab.MustAppendRow(1.5)
	var buf bytes.Buffer
	if err := ppclust.WriteCSV(tab, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ppclust.ReadCSV(schema, &buf)
	if err != nil || back.Len() != 1 {
		t.Fatalf("csv round trip: %v", err)
	}
}

func TestParseLinkageFacade(t *testing.T) {
	l, err := ppclust.ParseLinkage("ward")
	if err != nil || l != ppclust.Ward {
		t.Fatalf("ParseLinkage: %v %v", l, err)
	}
}

func TestParseVariant(t *testing.T) {
	for _, tc := range []struct {
		name string
		want ppclust.NumericVariant
		err  string
	}{
		{name: "float64", want: ppclust.Float64Arithmetic},
		{name: "int64", want: ppclust.Int64Arithmetic},
		{name: "modp", want: ppclust.ModPArithmetic},
		{name: "float32", err: `unknown variant "float32"`},
		{name: "", err: `unknown variant ""`},
	} {
		got, err := ppclust.ParseVariant(tc.name)
		switch {
		case tc.err != "" && (err == nil || err.Error() != tc.err):
			t.Errorf("ParseVariant(%q) error = %v, want %q", tc.name, err, tc.err)
		case tc.err == "" && (err != nil || got != tc.want):
			t.Errorf("ParseVariant(%q) = %v, %v, want %v", tc.name, got, err, tc.want)
		}
	}
}

// TestTCPSessionFacade runs the full three-party protocol over real TCP
// sockets on localhost through the public API.
func TestTCPSessionFacade(t *testing.T) {
	schema := facadeSchema()
	parts := facadeParts(t)
	holders := []string{"A", "B"}

	// Wire the topology: TP listens for both holders; A listens for B.
	tpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer tpLn.Close()
	aLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer aLn.Close()

	type dial struct {
		conn net.Conn
		err  error
	}
	tpConns := make(chan dial, 2)
	go func() {
		for i := 0; i < 2; i++ {
			c, err := tpLn.Accept()
			tpConns <- dial{c, err}
		}
	}()
	aAccept := make(chan dial, 1)
	go func() {
		c, err := aLn.Accept()
		aAccept <- dial{c, err}
	}()

	// Holders dial: identification is by dial order here — the harness
	// sends a one-byte holder index before the protocol starts.
	dialTP := func(idx byte) (net.Conn, error) {
		c, err := net.Dial("tcp", tpLn.Addr().String())
		if err != nil {
			return nil, err
		}
		_, err = c.Write([]byte{idx})
		return c, err
	}

	errs := make(chan error, 3)
	results := make(chan *ppclust.Result, 2)

	go func() { // holder A
		tpc, err := dialTP(0)
		if err != nil {
			errs <- err
			return
		}
		bd := <-aAccept
		if bd.err != nil {
			errs <- bd.err
			return
		}
		sess, err := ppclust.NewHolderSession("A", parts[0].Table, holders, schema,
			ppclust.Options{Random: detRandom}, ppclust.ClusterRequest{Linkage: ppclust.Average, K: 2},
			map[string]net.Conn{"B": bd.conn, ppclust.ThirdPartyName: tpc})
		if err != nil {
			errs <- err
			return
		}
		res, err := sess.Run()
		if err != nil {
			errs <- err
			return
		}
		results <- res
		errs <- nil
	}()

	go func() { // holder B
		tpc, err := dialTP(1)
		if err != nil {
			errs <- err
			return
		}
		ac, err := net.Dial("tcp", aLn.Addr().String())
		if err != nil {
			errs <- err
			return
		}
		sess, err := ppclust.NewHolderSession("B", parts[1].Table, holders, schema,
			ppclust.Options{Random: detRandom}, ppclust.ClusterRequest{Linkage: ppclust.Average, K: 2},
			map[string]net.Conn{"A": ac, ppclust.ThirdPartyName: tpc})
		if err != nil {
			errs <- err
			return
		}
		res, err := sess.Run()
		if err != nil {
			errs <- err
			return
		}
		results <- res
		errs <- nil
	}()

	go func() { // third party
		conns := map[string]net.Conn{}
		for i := 0; i < 2; i++ {
			d := <-tpConns
			if d.err != nil {
				errs <- d.err
				return
			}
			var idx [1]byte
			if _, err := io.ReadFull(d.conn, idx[:]); err != nil {
				errs <- err
				return
			}
			conns[holders[idx[0]]] = d.conn
		}
		sess, err := ppclust.NewThirdPartySession(holders, schema, ppclust.Options{Random: detRandom}, conns)
		if err != nil {
			errs <- err
			return
		}
		if _, err := sess.Run(); err != nil {
			errs <- err
			return
		}
		errs <- nil
	}()

	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	resA, resB := <-results, <-results
	if len(resA.Clusters) != 2 || len(resB.Clusters) != 2 {
		t.Fatalf("TCP session clusters: %d/%d", len(resA.Clusters), len(resB.Clusters))
	}
}

func TestAccuracyAgainstBaselineIsTight(t *testing.T) {
	// Quantify the float64 variant's error against the exact baseline.
	l, err := ppclust.GenGaussians([]ppclust.GaussianCluster{
		{Center: []float64{0, 0}, Stddev: 1, N: 12},
		{Center: []float64{8, 8}, Stddev: 1, N: 12},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	parts, _, err := ppclust.SplitRoundRobin(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	ms, _, err := ppclust.BuildDissimilarity(l.Table.Schema(), parts, ppclust.Options{Random: detRandom})
	if err != nil {
		t.Fatal(err)
	}
	base, err := ppclust.CentralizedBaseline(l.Table.Schema(), parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ms {
		d, err := ms[i].MaxDifference(base[i])
		if err != nil {
			t.Fatal(err)
		}
		if d > 1e-9 || math.IsNaN(d) {
			t.Fatalf("attr %d max difference %g", i, d)
		}
	}
}
