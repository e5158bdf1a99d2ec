// Package dataset models the data matrix of the paper (Section 2.1): an
// object-by-attribute table with numeric, categorical and alphanumeric
// attributes, horizontally partitioned across data-holder sites.
//
// Tables are stored column-wise, matching the paper's observation that
// "local data matrices are usually accessed in columns". Partitions carry
// their owning site's name, and ObjectID gives every object the globally
// unique (site, index) identity used when clustering results are published
// (paper Figure 13: "Xj denotes the object with id j at site X").
package dataset

import (
	"cmp"
	"fmt"
	"slices"

	"ppclust/internal/alphabet"
	"ppclust/internal/catdist"
)

// AttrType classifies an attribute, selecting its comparison function and
// privacy-preserving protocol.
type AttrType int

const (
	// Numeric attributes compare by |x−y| (paper Section 4.1).
	Numeric AttrType = iota
	// Categorical attributes compare by equality (paper Section 4.3).
	Categorical
	// Alphanumeric attributes compare by edit distance (paper Section 4.2).
	Alphanumeric
	// Ordered attributes are categorical values with a public total order,
	// compared by rank distance through the numeric protocol — the first
	// of the two extensions the paper leaves as future work.
	Ordered
	// Hierarchical attributes are categorical values in a public taxonomy,
	// compared by tree distance on encrypted root paths — the second
	// future-work extension.
	Hierarchical
)

// String names the attribute type.
func (t AttrType) String() string {
	switch t {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	case Alphanumeric:
		return "alphanumeric"
	case Ordered:
		return "ordered"
	case Hierarchical:
		return "hierarchical"
	default:
		return "unknown"
	}
}

// Attribute describes one column of the data matrix.
type Attribute struct {
	// Name identifies the attribute; it doubles as the encryption domain
	// for categorical columns.
	Name string
	// Type selects the comparison protocol.
	Type AttrType
	// Alphabet is required for alphanumeric attributes and ignored
	// otherwise.
	Alphabet *alphabet.Alphabet
	// Order is required for ordered attributes: the public total order of
	// the category values.
	Order *catdist.Ordering
	// Taxonomy is required for hierarchical attributes: the public
	// category tree.
	Taxonomy *catdist.Taxonomy
	// Weight is this attribute's contribution to the merged dissimilarity
	// matrix (paper Section 5). A zero weight stands for the default, 1:
	// Normalized fills it in, and Weights reads it so.
	Weight float64
}

// Schema is the ordered attribute list all parties agree on before the
// protocol starts (paper Section 3).
type Schema struct {
	Attrs []Attribute
}

// Validate checks the schema. It writes nothing: copies of a Schema share
// their attribute array, so a caller's schema stays as the caller wrote it
// however many sessions validate it at once.
func (s Schema) Validate() error {
	if len(s.Attrs) == 0 {
		return fmt.Errorf("dataset: schema has no attributes")
	}
	seen := make(map[string]bool, len(s.Attrs))
	for i, a := range s.Attrs {
		if a.Name == "" {
			return fmt.Errorf("dataset: attribute %d has no name", i)
		}
		if seen[a.Name] {
			return fmt.Errorf("dataset: duplicate attribute %q", a.Name)
		}
		seen[a.Name] = true
		switch a.Type {
		case Numeric, Categorical:
		case Alphanumeric:
			if a.Alphabet == nil {
				return fmt.Errorf("dataset: alphanumeric attribute %q needs an alphabet", a.Name)
			}
		case Ordered:
			if a.Order == nil {
				return fmt.Errorf("dataset: ordered attribute %q needs an ordering", a.Name)
			}
		case Hierarchical:
			if a.Taxonomy == nil {
				return fmt.Errorf("dataset: hierarchical attribute %q needs a taxonomy", a.Name)
			}
		default:
			return fmt.Errorf("dataset: attribute %q has unknown type %d", a.Name, a.Type)
		}
		if a.Weight < 0 {
			return fmt.Errorf("dataset: attribute %q has negative weight %v", a.Name, a.Weight)
		}
	}
	return nil
}

// Normalized validates the schema and returns a copy of it with its
// defaults filled in: every zero weight is 1. The receiver is unchanged.
func (s Schema) Normalized() (Schema, error) {
	if err := s.Validate(); err != nil {
		return s, err
	}
	attrs := slices.Clone(s.Attrs)
	for i := range attrs {
		if attrs[i].Weight == 0 {
			attrs[i].Weight = 1
		}
	}
	return Schema{Attrs: attrs}, nil
}

// Weights returns the attribute weight vector in schema order, a zero
// weight read as the default 1.
func (s *Schema) Weights() []float64 {
	w := make([]float64, len(s.Attrs))
	for i, a := range s.Attrs {
		w[i] = cmp.Or(a.Weight, 1)
	}
	return w
}

// AttrIndex returns the position of the named attribute, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Table is one site's horizontal partition of the data matrix: column-wise
// typed storage aligned with a Schema.
type Table struct {
	schema Schema
	n      int
	// cols[i] is []float64 for numeric attributes and []string for
	// categorical and alphanumeric ones.
	cols []any
}

// NewTable returns an empty table over the schema, normalized: the table's
// schema has its weight defaults filled, the caller's is left as it is.
func NewTable(schema Schema) (*Table, error) {
	schema, err := schema.Normalized()
	if err != nil {
		return nil, err
	}
	t := &Table{schema: schema, cols: make([]any, len(schema.Attrs))}
	for i, a := range schema.Attrs {
		if a.Type == Numeric {
			t.cols[i] = []float64{}
		} else {
			t.cols[i] = []string{}
		}
	}
	return t, nil
}

// MustNewTable is NewTable panicking on error, for tests and examples.
func MustNewTable(schema Schema) *Table {
	t, err := NewTable(schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of objects (rows).
func (t *Table) Len() int { return t.n }

// AppendRow adds one object. vals must match the schema: float64 for
// numeric attributes, string for categorical and alphanumeric; alphanumeric
// values must lie within the attribute's alphabet.
func (t *Table) AppendRow(vals ...any) error {
	if len(vals) != len(t.schema.Attrs) {
		return fmt.Errorf("dataset: row has %d values, schema has %d attributes", len(vals), len(t.schema.Attrs))
	}
	// Validate the full row before mutating anything.
	for i, a := range t.schema.Attrs {
		switch a.Type {
		case Numeric:
			if _, ok := vals[i].(float64); !ok {
				return fmt.Errorf("dataset: attribute %q wants float64, got %T", a.Name, vals[i])
			}
		case Categorical:
			if _, ok := vals[i].(string); !ok {
				return fmt.Errorf("dataset: attribute %q wants string, got %T", a.Name, vals[i])
			}
		case Alphanumeric:
			s, ok := vals[i].(string)
			if !ok {
				return fmt.Errorf("dataset: attribute %q wants string, got %T", a.Name, vals[i])
			}
			if !a.Alphabet.Contains(s) {
				return fmt.Errorf("dataset: value %q of attribute %q is outside %v", s, a.Name, a.Alphabet)
			}
		case Ordered:
			s, ok := vals[i].(string)
			if !ok {
				return fmt.Errorf("dataset: attribute %q wants string, got %T", a.Name, vals[i])
			}
			if _, in := a.Order.Rank(s); !in {
				return fmt.Errorf("dataset: value %q of attribute %q is not in its ordering", s, a.Name)
			}
		case Hierarchical:
			s, ok := vals[i].(string)
			if !ok {
				return fmt.Errorf("dataset: attribute %q wants string, got %T", a.Name, vals[i])
			}
			if !a.Taxonomy.Contains(s) {
				return fmt.Errorf("dataset: value %q of attribute %q is not in its taxonomy", s, a.Name)
			}
		}
	}
	for i, a := range t.schema.Attrs {
		if a.Type == Numeric {
			t.cols[i] = append(t.cols[i].([]float64), vals[i].(float64))
		} else {
			t.cols[i] = append(t.cols[i].([]string), vals[i].(string))
		}
	}
	t.n++
	return nil
}

// MustAppendRow is AppendRow panicking on error.
func (t *Table) MustAppendRow(vals ...any) {
	if err := t.AppendRow(vals...); err != nil {
		panic(err)
	}
}

// NumericCol returns the values of numeric attribute i. The returned slice
// is the table's backing storage; callers must not modify it.
func (t *Table) NumericCol(i int) ([]float64, error) {
	if err := t.checkAttr(i, Numeric); err != nil {
		return nil, err
	}
	return t.cols[i].([]float64), nil
}

// StringCol returns the values of categorical or alphanumeric attribute i.
// The returned slice is backing storage; callers must not modify it.
func (t *Table) StringCol(i int) ([]string, error) {
	if i < 0 || i >= len(t.schema.Attrs) {
		return nil, fmt.Errorf("dataset: attribute %d out of range", i)
	}
	if t.schema.Attrs[i].Type == Numeric {
		return nil, fmt.Errorf("dataset: attribute %q is numeric", t.schema.Attrs[i].Name)
	}
	return t.cols[i].([]string), nil
}

// RanksCol maps ordered attribute i to its float rank column — the values
// the numeric comparison protocol runs on.
func (t *Table) RanksCol(i int) ([]float64, error) {
	if err := t.checkAttr(i, Ordered); err != nil {
		return nil, err
	}
	return t.schema.Attrs[i].Order.Ranks(t.cols[i].([]string))
}

// SymbolCol encodes alphanumeric attribute i into symbol vectors.
func (t *Table) SymbolCol(i int) ([][]alphabet.Symbol, error) {
	if err := t.checkAttr(i, Alphanumeric); err != nil {
		return nil, err
	}
	a := t.schema.Attrs[i].Alphabet
	raw := t.cols[i].([]string)
	out := make([][]alphabet.Symbol, len(raw))
	for r, s := range raw {
		v, err := a.Encode(s)
		if err != nil {
			return nil, fmt.Errorf("dataset: row %d of %q: %w", r, t.schema.Attrs[i].Name, err)
		}
		out[r] = v
	}
	return out, nil
}

func (t *Table) checkAttr(i int, want AttrType) error {
	if i < 0 || i >= len(t.schema.Attrs) {
		return fmt.Errorf("dataset: attribute %d out of range", i)
	}
	if got := t.schema.Attrs[i].Type; got != want {
		return fmt.Errorf("dataset: attribute %q is %v, want %v", t.schema.Attrs[i].Name, got, want)
	}
	return nil
}

// Row materializes row r as values in schema order, for display.
func (t *Table) Row(r int) ([]any, error) {
	if r < 0 || r >= t.n {
		return nil, fmt.Errorf("dataset: row %d out of range", r)
	}
	out := make([]any, len(t.schema.Attrs))
	for i, a := range t.schema.Attrs {
		if a.Type == Numeric {
			out[i] = t.cols[i].([]float64)[r]
		} else {
			out[i] = t.cols[i].([]string)[r]
		}
	}
	return out, nil
}

// Partition is one site's share of the horizontally partitioned data.
type Partition struct {
	// Site is the data holder's name ("A", "B", …).
	Site string
	// Table holds the site's objects.
	Table *Table
}

// ObjectID globally identifies an object as (site, local index).
type ObjectID struct {
	Site  string
	Index int
}

// String renders the 1-based form used by the paper's Figure 13 ("A1" is
// the first object at site A).
func (o ObjectID) String() string { return fmt.Sprintf("%s%d", o.Site, o.Index+1) }

// GlobalIndex returns the global object ordering the third party uses: all
// of partition 0's objects, then partition 1's, and so on.
func GlobalIndex(parts []Partition) []ObjectID {
	var out []ObjectID
	for _, p := range parts {
		for i := 0; i < p.Table.Len(); i++ {
			out = append(out, ObjectID{Site: p.Site, Index: i})
		}
	}
	return out
}

// Concat merges partitions into one centralized table in global order — the
// non-private baseline the accuracy experiments compare against. All
// partitions must share a schema shape.
func Concat(parts []Partition) (*Table, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("dataset: no partitions")
	}
	out, err := NewTable(parts[0].Table.schema)
	if err != nil {
		return nil, err
	}
	for _, p := range parts {
		if len(p.Table.schema.Attrs) != len(out.schema.Attrs) {
			return nil, fmt.Errorf("dataset: partition %q schema mismatch", p.Site)
		}
		for i, a := range p.Table.schema.Attrs {
			if a.Name != out.schema.Attrs[i].Name || a.Type != out.schema.Attrs[i].Type {
				return nil, fmt.Errorf("dataset: partition %q attribute %d mismatch", p.Site, i)
			}
		}
		for r := 0; r < p.Table.Len(); r++ {
			row, err := p.Table.Row(r)
			if err != nil {
				return nil, err
			}
			if err := out.AppendRow(row...); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Split distributes table rows into partitions according to assign, where
// assign[r] is the index of the receiving site. Sites may end up empty.
func Split(t *Table, sites []string, assign []int) ([]Partition, error) {
	if len(assign) != t.Len() {
		return nil, fmt.Errorf("dataset: %d assignments for %d rows", len(assign), t.Len())
	}
	parts := make([]Partition, len(sites))
	for i, s := range sites {
		if s == "" {
			return nil, fmt.Errorf("dataset: empty site name at %d", i)
		}
		pt, err := NewTable(t.schema)
		if err != nil {
			return nil, err
		}
		parts[i] = Partition{Site: s, Table: pt}
	}
	for r, site := range assign {
		if site < 0 || site >= len(sites) {
			return nil, fmt.Errorf("dataset: row %d assigned to invalid site %d", r, site)
		}
		row, err := t.Row(r)
		if err != nil {
			return nil, err
		}
		if err := parts[site].Table.AppendRow(row...); err != nil {
			return nil, err
		}
	}
	return parts, nil
}
