package ppclust

import (
	"fmt"
	"strings"

	"ppclust/internal/eval"
)

// External cluster-validation indices, re-exported for experiments that
// compare clusterings against ground truth.

// RandIndex returns the fraction of object pairs two labelings agree on.
func RandIndex(truth, pred []int) (float64, error) { return eval.RandIndex(truth, pred) }

// AdjustedRandIndex returns the chance-corrected Rand index.
func AdjustedRandIndex(truth, pred []int) (float64, error) {
	return eval.AdjustedRandIndex(truth, pred)
}

// Purity returns the majority-class purity of a predicted clustering.
func Purity(truth, pred []int) (float64, error) { return eval.Purity(truth, pred) }

// NMI returns the normalized mutual information between two labelings.
func NMI(truth, pred []int) (float64, error) { return eval.NMI(truth, pred) }

// LabelsFromClusters converts a Result-style cluster list over n objects
// (identified by their global index) into a flat label vector.
func LabelsFromClusters(clusters [][]int, n int) ([]int, error) {
	labels := make([]int, n)
	seen := make([]bool, n)
	for c, members := range clusters {
		for _, m := range members {
			if m < 0 || m >= n {
				return nil, fmt.Errorf("ppclust: object %d out of range", m)
			}
			if seen[m] {
				return nil, fmt.Errorf("ppclust: object %d in two clusters", m)
			}
			seen[m] = true
			labels[m] = c
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("ppclust: object %d unassigned", i)
		}
	}
	return labels, nil
}

// ResultLabels flattens a published Result into a label vector aligned with
// the global object index ids.
func ResultLabels(res *Result, ids []ObjectID) ([]int, error) {
	pos := make(map[ObjectID]int, len(ids))
	for i, id := range ids {
		pos[id] = i
	}
	labels := make([]int, len(ids))
	seen := make([]bool, len(ids))
	for c, members := range res.Clusters {
		for _, m := range members {
			i, ok := pos[m]
			if !ok {
				return nil, fmt.Errorf("ppclust: object %v not in index", m)
			}
			if seen[i] {
				return nil, fmt.Errorf("ppclust: object %v in two clusters", m)
			}
			seen[i] = true
			labels[i] = c
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("ppclust: object %v unassigned", ids[i])
		}
	}
	return labels, nil
}

// ParseSchema parses the compact schema notation used by the command-line
// tools: comma-separated fields "name:type" with type one of numeric,
// categorical, alphanumeric:<alphabet>, or ordered:<v1|v2|...> (e.g.
// "age:numeric,city:categorical,seq:alphanumeric:dna,sev:ordered:low|high").
// An optional ":w=<weight>" suffix sets the attribute weight. Hierarchical
// attributes carry a taxonomy object and are built programmatically.
func ParseSchema(spec string) (Schema, error) {
	var schema Schema
	if strings.TrimSpace(spec) == "" {
		return schema, fmt.Errorf("ppclust: empty schema spec")
	}
	for _, field := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(field), ":")
		if len(parts) < 2 {
			return schema, fmt.Errorf("ppclust: schema field %q needs name:type", field)
		}
		attr := Attribute{Name: parts[0]}
		rest := parts[2:]
		switch parts[1] {
		case "numeric":
			attr.Type = Numeric
		case "categorical":
			attr.Type = Categorical
		case "alphanumeric":
			if len(rest) == 0 {
				return schema, fmt.Errorf("ppclust: alphanumeric field %q needs an alphabet", parts[0])
			}
			a, err := AlphabetByName(rest[0])
			if err != nil {
				return schema, err
			}
			attr.Type = Alphanumeric
			attr.Alphabet = a
			rest = rest[1:]
		case "ordered":
			if len(rest) == 0 {
				return schema, fmt.Errorf("ppclust: ordered field %q needs |-separated values", parts[0])
			}
			o, err := NewOrdering(strings.Split(rest[0], "|")...)
			if err != nil {
				return schema, err
			}
			attr.Type = Ordered
			attr.Order = o
			rest = rest[1:]
		default:
			return schema, fmt.Errorf("ppclust: unknown attribute type %q", parts[1])
		}
		for _, opt := range rest {
			if w, ok := strings.CutPrefix(opt, "w="); ok {
				var weight float64
				if _, err := fmt.Sscanf(w, "%g", &weight); err != nil {
					return schema, fmt.Errorf("ppclust: bad weight %q", w)
				}
				attr.Weight = weight
				continue
			}
			return schema, fmt.Errorf("ppclust: unknown schema option %q", opt)
		}
		schema.Attrs = append(schema.Attrs, attr)
	}
	return schema.Normalized()
}
