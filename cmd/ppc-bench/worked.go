package main

import (
	"fmt"
	"io"
	"strings"

	"ppclust"
	"ppclust/internal/alphabet"
	"ppclust/internal/attack"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
)

// runFig3 traces the paper's Figure 3: x=3 at DHJ, y=8 at DHK, RJK=5,
// RJT=7.
func runFig3(w io.Writer) error {
	jt := rng.Scripted(7)
	d, s, err := attack.Transcript([]int64{3}, []int64{8}, protocol.Batch, rng.Scripted(5), jt)
	if err != nil {
		return err
	}
	num, err := protocol.NewNumeric(protocol.Int64Variant, protocol.Batch)
	if err != nil {
		return err
	}
	row, err := num.Strip(protocol.NewEngine(1), s, 0, 1, jt, protocol.InitiatorCols)
	if err != nil {
		return err
	}
	dist := make([]float64, 1)
	if err := row(0, dist); err != nil {
		return err
	}
	cells, err := firstCells(d, s)
	if err != nil {
		return err
	}
	x2, m, abs := cells[0], cells[1], int64(dist[0])
	fmt.Fprintln(w, "site DHJ:  x = 3, RJK = 5 (odd -> DHJ negates), RJT = 7")
	fmt.Fprintf(w, "           x' = -3, x'' = x' + RJT = %d          (paper: 4)\n", x2)
	fmt.Fprintf(w, "site DHK:  y = 8, RJK = 5 -> DHK keeps sign; m = %d   (paper: 12)\n", m)
	fmt.Fprintf(w, "site TP:   |m - RJT| = |%d - 7| = %d               (paper: |x-y| = 5)\n", m, abs)
	var broken []error
	for _, v := range []struct {
		name      string
		got, want int64
	}{{"x''", x2, 4}, {"m", m, 12}, {"|x-y|", abs, 5}} {
		if v.got != v.want {
			broken = append(broken, fmt.Errorf("%s = %d, the paper has %d", v.name, v.got, v.want))
		}
	}
	return verdict(w, "MATCH: reproduces the paper exactly", broken...)
}

// firstCells is the first cell of each int64 block.
func firstCells(blocks ...protocol.NumericChunk) ([]int64, error) {
	out := make([]int64, len(blocks))
	for i, b := range blocks {
		cells, err := b.Int64s()
		if err != nil {
			return nil, err
		}
		if len(cells) == 0 {
			return nil, fmt.Errorf("an empty %dx%d block", b.Rows, b.Cols)
		}
		out[i] = cells[0]
	}
	return out, nil
}

// runFig7 traces the paper's Figure 7: S="abc", T="bd" over A={a,b,c,d},
// R="013".
func runFig7(w io.Writer) error {
	abcd := alphabet.MustNew("abcd", []rune("abcd"))
	s := protocol.SymbolString(abcd.MustEncode("abc"))
	t := protocol.SymbolString(abcd.MustEncode("bd"))

	var broken []error
	same := func(name, got, want string) {
		if got != want {
			broken = append(broken, fmt.Errorf("%s = %q, the paper has %q", name, got, want))
		}
	}
	e := protocol.NewEngine(1)
	disguised := e.AlphaInitiator([]protocol.SymbolString{s}, abcd, rng.Scripted(0, 1, 3))
	fmt.Fprintf(w, "site DHJ:  S = \"abc\", R = \"013\" -> S' = %q      (paper: \"acb\")\n",
		abcd.Decode(disguised[0]))
	same("S'", abcd.Decode(disguised[0]), "acb")

	inter := e.AlphaResponder([]protocol.SymbolString{t}, disguised, abcd)
	m := inter[0][0]
	fmt.Fprintf(w, "site DHK:  T = \"bd\"; difference matrix M:\n")
	for q, want := range []string{"dba", "bdc"} {
		row := make([]rune, m.Cols)
		for p := range row {
			row[p] = abcd.Rune(m.At(q, p))
		}
		fmt.Fprintf(w, "           %s\n", strings.Join(strings.Split(string(row), ""), " "))
		same(fmt.Sprintf("row %d of M", q), string(row), want)
	}
	fmt.Fprintln(w, "           (paper: rows \"dba\" and \"bdc\")")

	// The CCM flattens the difference matrix the third party strips the
	// masks from: a cell is 0 where the characters are equal, 1 elsewhere.
	diff, err := attack.StripAlphaMasks(m, abcd, rng.Scripted(0, 1, 3))
	if err != nil {
		return err
	}
	ccm := func(q, p int) int {
		if diff.At(q, p) != 0 {
			return 1
		}
		return 0
	}
	fmt.Fprintln(w, "site TP:   decoded CCM (0 = characters equal):")
	for q := 0; q < diff.Rows; q++ {
		fmt.Fprintf(w, "           ")
		for p := 0; p < diff.Cols; p++ {
			fmt.Fprintf(w, "%d ", ccm(q, p))
		}
		fmt.Fprintln(w)
	}
	if ccm(0, 1) != 0 {
		broken = append(broken, fmt.Errorf("CCM[0][1] = %d, the paper has 0", ccm(0, 1)))
	}
	fmt.Fprintln(w, "           CCM[0][1] = 0 implies s[1] = t[0] = 'b'  (paper: same)")

	dist, err := e.AlphaThirdParty(inter, abcd, rng.Scripted(0, 1, 3))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "site TP:   edit distance over CCM = %d (abc -> bd: delete 'a', substitute c->d)\n",
		dist.At(0, 0))
	if dist.At(0, 0) != 2 {
		broken = append(broken, fmt.Errorf("edit distance %d, the paper has 2", dist.At(0, 0)))
	}
	return verdict(w, "MATCH: reproduces the paper exactly", broken...)
}

// runFig13 publishes a small session's result in the Figure 13 layout.
func runFig13(w io.Writer) error {
	schema := ppclust.Schema{Attrs: []ppclust.Attribute{
		{Name: "x", Type: ppclust.Numeric},
		{Name: "tag", Type: ppclust.Categorical},
	}}
	a := ppclust.MustNewTable(schema)
	a.MustAppendRow(1.0, "r")
	a.MustAppendRow(30.0, "g")
	a.MustAppendRow(2.0, "r")
	b := ppclust.MustNewTable(schema)
	b.MustAppendRow(31.0, "g")
	b.MustAppendRow(3.0, "r")
	b.MustAppendRow(29.0, "g")
	c := ppclust.MustNewTable(schema)
	c.MustAppendRow(1.5, "r")
	c.MustAppendRow(30.5, "g")

	out, err := ppclust.Cluster(schema,
		[]ppclust.Partition{{Site: "A", Table: a}, {Site: "B", Table: b}, {Site: "C", Table: c}},
		map[string]ppclust.ClusterRequest{"A": {Linkage: ppclust.Average, K: 3}},
		ppclust.Options{})
	if err != nil {
		return err
	}
	res := out.Results["A"]
	fmt.Fprintln(w, "published result (cluster membership lists only, per Figure 13):")
	fmt.Fprint(w, res.Format())
	fmt.Fprintln(w, "\npublished quality (\"average of square distance between members\"):")
	for i, q := range res.Quality {
		fmt.Fprintf(w, "  Cluster%d: size=%d avgSqDist=%.4f\n", i+1, q.Size, q.AvgSquaredDistance)
	}
	fmt.Fprintln(w, "the dissimilarity matrix itself stays at the third party")
	var broken []error
	seen := map[ppclust.ObjectID]int{}
	for _, members := range res.Clusters {
		for _, id := range members {
			seen[id]++
		}
	}
	for _, id := range out.Report.ObjectIDs {
		if seen[id] != 1 {
			broken = append(broken, fmt.Errorf("object %v is listed %d times", id, seen[id]))
		}
	}
	if len(res.Clusters) != 3 || len(seen) != len(out.Report.ObjectIDs) {
		broken = append(broken, fmt.Errorf("%d clusters over %d objects, the session asked 3 over %d", len(res.Clusters), len(seen), len(out.Report.ObjectIDs)))
	}
	return verdict(w, "SHAPE: the published membership lists place every object in exactly one of the K clusters", broken...)
}
