package dataset

import (
	"bytes"
	"strings"
	"testing"

	"ppclust/internal/alphabet"
)

func testSchema() Schema {
	return Schema{Attrs: []Attribute{
		{Name: "age", Type: Numeric},
		{Name: "city", Type: Categorical},
		{Name: "dna", Type: Alphanumeric, Alphabet: alphabet.DNA},
	}}
}

// TestSchemaValidateDefaultsWeights: Validate leaves a schema's zero
// weights as they are, Normalized fills them into a copy, and Weights reads
// them as the default 1 either way.
func TestSchemaValidateDefaultsWeights(t *testing.T) {
	s := testSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	n, err := s.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range n.Attrs {
		if a.Weight != 1 {
			t.Fatalf("normalized weight of %q = %v, want default 1", a.Name, a.Weight)
		}
		if s.Attrs[i].Weight != 0 {
			t.Fatalf("weight of %q = %v after validating, want it left at 0", a.Name, s.Attrs[i].Weight)
		}
	}
	for _, w := range [][]float64{s.Weights(), n.Weights()} {
		if len(w) != 3 || w[0] != 1 || w[1] != 1 || w[2] != 1 {
			t.Fatalf("Weights = %v", w)
		}
	}
}

func TestSchemaValidationErrors(t *testing.T) {
	cases := []Schema{
		{},
		{Attrs: []Attribute{{Name: "", Type: Numeric}}},
		{Attrs: []Attribute{{Name: "a", Type: Numeric}, {Name: "a", Type: Numeric}}},
		{Attrs: []Attribute{{Name: "s", Type: Alphanumeric}}}, // no alphabet
		{Attrs: []Attribute{{Name: "x", Type: AttrType(9)}}},
		{Attrs: []Attribute{{Name: "x", Type: Numeric, Weight: -2}}},
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestAttrTypeString(t *testing.T) {
	if Numeric.String() != "numeric" || Categorical.String() != "categorical" ||
		Alphanumeric.String() != "alphanumeric" || AttrType(9).String() != "unknown" {
		t.Fatal("AttrType.String mismatch")
	}
}

func TestAttrIndex(t *testing.T) {
	s := testSchema()
	if s.AttrIndex("city") != 1 || s.AttrIndex("nope") != -1 {
		t.Fatal("AttrIndex mismatch")
	}
}

func TestTableAppendAndAccess(t *testing.T) {
	tab := MustNewTable(testSchema())
	tab.MustAppendRow(31.5, "istanbul", "ACGT")
	tab.MustAppendRow(44.0, "ankara", "TT")
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	nums, err := tab.NumericCol(0)
	if err != nil || nums[1] != 44.0 {
		t.Fatalf("NumericCol: %v %v", nums, err)
	}
	cats, err := tab.StringCol(1)
	if err != nil || cats[0] != "istanbul" {
		t.Fatalf("StringCol: %v %v", cats, err)
	}
	syms, err := tab.SymbolCol(2)
	if err != nil || len(syms[0]) != 4 || len(syms[1]) != 2 {
		t.Fatalf("SymbolCol: %v %v", syms, err)
	}
	row, err := tab.Row(0)
	if err != nil || row[0].(float64) != 31.5 || row[2].(string) != "ACGT" {
		t.Fatalf("Row: %v %v", row, err)
	}
}

func TestTableTypeEnforcement(t *testing.T) {
	tab := MustNewTable(testSchema())
	if err := tab.AppendRow("oops", "x", "A"); err == nil {
		t.Fatal("string for numeric accepted")
	}
	if err := tab.AppendRow(1.0, 2.0, "A"); err == nil {
		t.Fatal("float for categorical accepted")
	}
	if err := tab.AppendRow(1.0, "x", "XYZ"); err == nil {
		t.Fatal("out-of-alphabet string accepted")
	}
	if err := tab.AppendRow(1.0, "x"); err == nil {
		t.Fatal("short row accepted")
	}
	if tab.Len() != 0 {
		t.Fatal("failed append mutated the table")
	}
	if _, err := tab.NumericCol(1); err == nil {
		t.Fatal("NumericCol on categorical accepted")
	}
	if _, err := tab.NumericCol(9); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if _, err := tab.StringCol(0); err == nil {
		t.Fatal("StringCol on numeric accepted")
	}
	if _, err := tab.SymbolCol(1); err == nil {
		t.Fatal("SymbolCol on categorical accepted")
	}
	if _, err := tab.Row(0); err == nil {
		t.Fatal("Row out of range accepted")
	}
}

func TestObjectIDStringIsOneBased(t *testing.T) {
	o := ObjectID{Site: "A", Index: 0}
	if o.String() != "A1" {
		t.Fatalf("ObjectID = %q, want A1", o)
	}
	if (ObjectID{Site: "C", Index: 2}).String() != "C3" {
		t.Fatal("ObjectID C3 mismatch")
	}
}

func buildParts(t *testing.T) []Partition {
	t.Helper()
	a := MustNewTable(testSchema())
	a.MustAppendRow(1.0, "x", "A")
	a.MustAppendRow(2.0, "y", "C")
	b := MustNewTable(testSchema())
	b.MustAppendRow(3.0, "x", "G")
	return []Partition{{Site: "A", Table: a}, {Site: "B", Table: b}}
}

func TestGlobalIndex(t *testing.T) {
	idx := GlobalIndex(buildParts(t))
	want := []string{"A1", "A2", "B1"}
	if len(idx) != 3 {
		t.Fatalf("len = %d", len(idx))
	}
	for i, w := range want {
		if idx[i].String() != w {
			t.Fatalf("idx[%d] = %v, want %s", i, idx[i], w)
		}
	}
}

func TestConcatMatchesGlobalOrder(t *testing.T) {
	parts := buildParts(t)
	all, err := Concat(parts)
	if err != nil {
		t.Fatal(err)
	}
	if all.Len() != 3 {
		t.Fatalf("Len = %d", all.Len())
	}
	nums, _ := all.NumericCol(0)
	if nums[0] != 1 || nums[2] != 3 {
		t.Fatalf("concat order wrong: %v", nums)
	}
}

func TestConcatSchemaMismatch(t *testing.T) {
	parts := buildParts(t)
	other := MustNewTable(Schema{Attrs: []Attribute{{Name: "z", Type: Numeric}}})
	parts = append(parts, Partition{Site: "C", Table: other})
	if _, err := Concat(parts); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	if _, err := Concat(nil); err == nil {
		t.Fatal("empty concat accepted")
	}
}

func TestSplitRoundTrip(t *testing.T) {
	all, err := Concat(buildParts(t))
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Split(all, []string{"X", "Y"}, []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if parts[0].Table.Len() != 2 || parts[1].Table.Len() != 1 {
		t.Fatalf("split sizes %d/%d", parts[0].Table.Len(), parts[1].Table.Len())
	}
	nums, _ := parts[0].Table.NumericCol(0)
	if nums[0] != 1 || nums[1] != 3 {
		t.Fatalf("split preserved wrong rows: %v", nums)
	}
}

func TestSplitValidation(t *testing.T) {
	all, _ := Concat(buildParts(t))
	if _, err := Split(all, []string{"X"}, []int{0}); err == nil {
		t.Fatal("short assignment accepted")
	}
	if _, err := Split(all, []string{"X"}, []int{0, 0, 5}); err == nil {
		t.Fatal("invalid site index accepted")
	}
	if _, err := Split(all, []string{""}, []int{0, 0, 0}); err == nil {
		t.Fatal("empty site name accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := MustNewTable(testSchema())
	tab.MustAppendRow(1.25, "izmir, center", "ACGT") // comma forces quoting
	tab.MustAppendRow(-3.0, "bursa", "")
	var buf bytes.Buffer
	if err := WriteCSV(tab, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(testSchema(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("Len = %d", back.Len())
	}
	nums, _ := back.NumericCol(0)
	if nums[0] != 1.25 || nums[1] != -3.0 {
		t.Fatalf("numeric round trip: %v", nums)
	}
	cats, _ := back.StringCol(1)
	if cats[0] != "izmir, center" {
		t.Fatalf("quoted categorical round trip: %q", cats[0])
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(testSchema(), strings.NewReader("notanumber,x,A\n")); err == nil {
		t.Fatal("bad numeric accepted")
	}
	if _, err := ReadCSV(testSchema(), strings.NewReader("1.0,x\n")); err == nil {
		t.Fatal("short record accepted")
	}
	if _, err := ReadCSV(testSchema(), strings.NewReader("1.0,x,Z\n")); err == nil {
		t.Fatal("out-of-alphabet value accepted")
	}
	empty, err := ReadCSV(testSchema(), strings.NewReader(""))
	if err != nil || empty.Len() != 0 {
		t.Fatalf("empty stream: %v len=%d", err, empty.Len())
	}
}
