package main

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"ppclust/internal/alphabet"
	"ppclust/internal/dataset"
	"ppclust/internal/gen"
	"ppclust/internal/keys"
	"ppclust/internal/party"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
)

// detRandom gives each party reproducible randomness so tables are stable
// across runs.
func detRandom(party string) io.Reader {
	seed := rng.SeedFromBytes([]byte("ppc-bench/" + party))
	return keys.StreamReader(rng.NewAESCTR(seed))
}

// verdict prints line, the experiment's verdict, when nothing broke it,
// and otherwise fails the experiment with the rows that did.
func verdict(w io.Writer, line string, broken ...error) error {
	if err := errors.Join(broken...); err != nil {
		return fmt.Errorf("%q does not hold: %w", line, err)
	}
	fmt.Fprintln(w, line)
	return nil
}

// partsFunc builds holders A, B, … with the given object counts.
type partsFunc func(counts []int, seed uint64) ([]dataset.Partition, error)

// partsOf builds holders A, B, … with the given object counts over the
// one attribute attr, drawing every value from one stream seeded by seed.
func partsOf(attr dataset.Attribute, counts []int, seed uint64, value func(s rng.Stream) any) ([]dataset.Partition, error) {
	schema := dataset.Schema{Attrs: []dataset.Attribute{attr}}
	s := rng.NewXoshiro(rng.SeedFromUint64(seed))
	parts := make([]dataset.Partition, len(counts))
	names := gen.SiteNames(len(counts))
	for i, n := range counts {
		t, err := dataset.NewTable(schema)
		if err != nil {
			return nil, err
		}
		for range n {
			if err := t.AppendRow(value(s)); err != nil {
				return nil, err
			}
		}
		parts[i] = dataset.Partition{Site: names[i], Table: t}
	}
	return parts, nil
}

// numericParts draws one numeric attribute uniformly from [0, 1000):
// continuous values, as real attributes have; the wire spends a fixed
// cell on each either way.
func numericParts(counts []int, seed uint64) ([]dataset.Partition, error) {
	return partsOf(dataset.Attribute{Name: "x", Type: dataset.Numeric}, counts, seed,
		func(s rng.Stream) any { return rng.Float64(s) * 1000 })
}

// alphaParts draws one DNA attribute of strings exactly length symbols
// long.
func alphaParts(length int) partsFunc {
	return func(counts []int, seed uint64) ([]dataset.Partition, error) {
		attr := dataset.Attribute{Name: "seq", Type: dataset.Alphanumeric, Alphabet: alphabet.DNA}
		return partsOf(attr, counts, seed, func(s rng.Stream) any {
			buf := make([]byte, length)
			for c := range buf {
				buf[c] = "ACGT"[rng.Symbol(s, 4)]
			}
			return string(buf)
		})
	}
}

// catParts draws one categorical attribute from a palette of eight.
func catParts(counts []int, seed uint64) ([]dataset.Partition, error) {
	return partsOf(dataset.Attribute{Name: "c", Type: dataset.Categorical}, counts, seed,
		func(s rng.Stream) any { return fmt.Sprintf("v%d", rng.Symbol(s, 8)) })
}

// traffic is what each link of a session carried, keyed by
// party.LinkName, as its sending end counted it.
type traffic map[string]float64

// runSession executes a float64 session over the partitions and returns
// its traffic.
func runSession(parts []dataset.Partition, mode protocol.Mode) (traffic, error) {
	cfg := party.Config{
		Schema:  parts[0].Table.Schema(),
		Mode:    mode,
		Variant: party.Float64Variant,
	}
	out, err := party.RunInMemory(cfg, parts, nil, detRandom)
	if err != nil {
		return nil, err
	}
	t := traffic{}
	for name, ctr := range out.Traffic {
		b, _ := ctr.Sent()
		t[name] = float64(b)
	}
	return t, nil
}

// sent sums what holder sent on all its links.
func (t traffic) sent(holder string) float64 {
	total := 0.0
	for name, b := range t {
		if strings.HasPrefix(name, holder+"->") {
			total += b
		}
	}
	return total
}

// sessionOverhead runs the session shape with zero objects: what each
// holder sends there (handshakes, census, group key, request, empty
// matrices) is its own fixed per-session overhead, which the cost
// experiments subtract so the fits see only the data-dependent traffic
// the paper analyzes.
func sessionOverhead(mk partsFunc, holders int) (traffic, error) {
	parts, err := mk(make([]int, holders), 0)
	if err != nil {
		return nil, err
	}
	return runSession(parts, protocol.Batch)
}

// beyond is what holder sent in t past its own overhead, floored at one
// byte so fits stay well defined.
func (t traffic) beyond(overhead traffic, holder string) float64 {
	return max(t.sent(holder)-overhead.sent(holder), 1)
}
