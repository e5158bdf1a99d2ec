package main

import (
	"fmt"
	"io"

	"ppclust"
)

// runExtension demonstrates E17: the ordered/hierarchical categorical
// distance functions the paper leaves as future work, evaluated privately
// and checked against the centralized baseline.
func runExtension(w io.Writer) error {
	severity := ppclust.MustNewOrdering("mild", "moderate", "severe", "critical")
	tax := ppclust.MustNewTaxonomy("disease")
	tax.MustAdd("infectious", "disease").
		MustAdd("viral", "infectious").
		MustAdd("influenza", "viral").
		MustAdd("measles", "viral").
		MustAdd("bacterial", "infectious").
		MustAdd("tuberculosis", "bacterial").
		MustAdd("chronic", "disease").
		MustAdd("diabetes", "chronic")

	schema := ppclust.Schema{Attrs: []ppclust.Attribute{
		{Name: "severity", Type: ppclust.Ordered, Order: severity},
		{Name: "diagnosis", Type: ppclust.Hierarchical, Taxonomy: tax},
	}}
	a := ppclust.MustNewTable(schema)
	a.MustAppendRow("mild", "influenza")
	a.MustAppendRow("moderate", "measles")
	a.MustAppendRow("critical", "diabetes")
	b := ppclust.MustNewTable(schema)
	b.MustAppendRow("mild", "tuberculosis")
	b.MustAppendRow("severe", "diabetes")
	parts := []ppclust.Partition{{Site: "A", Table: a}, {Site: "B", Table: b}}

	ms, ids, err := ppclust.BuildDissimilarity(schema, parts, ppclust.Options{Random: detRandom})
	if err != nil {
		return err
	}
	base, err := ppclust.CentralizedBaseline(schema, parts)
	if err != nil {
		return err
	}
	worst := 0.0
	for i := range ms {
		d, err := ms[i].MaxDifference(base[i])
		if err != nil {
			return err
		}
		if d > worst {
			worst = d
		}
	}
	fmt.Fprintln(w, "paper 4.3: ordered/hierarchical categorical distances \"left as future work\"")
	fmt.Fprintln(w, "implemented: rank distance via the numeric protocol; taxonomy distance on")
	fmt.Fprintln(w, "deterministically encrypted root paths")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "max |private − centralized| over both attributes: %g\n", worst)
	fmt.Fprintln(w, "\nnormalized taxonomy distances at the third party (values never revealed):")
	m := ms[1]
	sibling, cousin, cross := m.At(0, 1), m.At(0, 3), m.At(0, 2)
	fmt.Fprintf(w, "  d(%v, %v) = %.3f  (influenza vs measles: siblings)\n", ids[0], ids[1], sibling)
	fmt.Fprintf(w, "  d(%v, %v) = %.3f  (influenza vs tuberculosis: cousins)\n", ids[0], ids[3], cousin)
	fmt.Fprintf(w, "  d(%v, %v) = %.3f  (influenza vs diabetes: different branch)\n", ids[0], ids[2], cross)
	var broken []error
	if !(sibling < cousin && cousin < cross) {
		broken = append(broken, fmt.Errorf("sibling %.3f, cousin %.3f, cross-branch %.3f are out of order", sibling, cousin, cross))
	}
	if worst != 0 {
		broken = append(broken, fmt.Errorf("private and centralized matrices differ by %g", worst))
	}
	return verdict(w, "SHAPE: sibling < cousin < cross-branch, with zero accuracy loss", broken...)
}
