package main

import (
	"fmt"
	"io"

	"ppclust"
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

// numericParts builds k holders with the given per-site object counts over
// a single numeric attribute, values drawn uniformly from [0, 1000).
func numericParts(counts []int, seed uint64) ([]dataset.Partition, error) {
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	s := rng.NewXoshiro(rng.SeedFromUint64(seed))
	parts := make([]dataset.Partition, len(counts))
	names := gen.SiteNames(len(counts))
	for i, n := range counts {
		t, err := dataset.NewTable(schema)
		if err != nil {
			return nil, err
		}
		for r := 0; r < n; r++ {
			// Continuous values, as real attributes have; the wire spends a
			// fixed 8 bytes per element either way.
			if err := t.AppendRow(rng.Float64(s) * 1000); err != nil {
				return nil, err
			}
		}
		parts[i] = dataset.Partition{Site: names[i], Table: t}
	}
	return parts, nil
}

// alphaParts builds k holders over a single DNA attribute with strings of
// exactly the given length.
func alphaParts(counts []int, length int, seed uint64) ([]dataset.Partition, error) {
	schema := dataset.Schema{Attrs: []dataset.Attribute{
		{Name: "seq", Type: dataset.Alphanumeric, Alphabet: dnaAlpha()},
	}}
	s := rng.NewXoshiro(rng.SeedFromUint64(seed))
	parts := make([]dataset.Partition, len(counts))
	names := gen.SiteNames(len(counts))
	for i, n := range counts {
		t, err := dataset.NewTable(schema)
		if err != nil {
			return nil, err
		}
		for r := 0; r < n; r++ {
			buf := make([]rune, length)
			for c := range buf {
				buf[c] = []rune("ACGT")[rng.Symbol(s, 4)]
			}
			if err := t.AppendRow(string(buf)); err != nil {
				return nil, err
			}
		}
		parts[i] = dataset.Partition{Site: names[i], Table: t}
	}
	return parts, nil
}

// catParts builds k holders over a single categorical attribute drawn from
// a small palette.
func catParts(counts []int, seed uint64) ([]dataset.Partition, error) {
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "c", Type: dataset.Categorical}}}
	s := rng.NewXoshiro(rng.SeedFromUint64(seed))
	parts := make([]dataset.Partition, len(counts))
	names := gen.SiteNames(len(counts))
	for i, n := range counts {
		t, err := dataset.NewTable(schema)
		if err != nil {
			return nil, err
		}
		for r := 0; r < n; r++ {
			if err := t.AppendRow(fmt.Sprintf("v%d", rng.Symbol(s, 8))); err != nil {
				return nil, err
			}
		}
		parts[i] = dataset.Partition{Site: names[i], Table: t}
	}
	return parts, nil
}

// runSession executes a session over the partitions and returns its
// outcome.
func runSession(parts []dataset.Partition, mode protocol.Mode) (*party.SessionOutcome, error) {
	cfg := party.Config{
		Schema:  parts[0].Table.Schema(),
		Mode:    mode,
		Variant: party.Float64Variant,
	}
	return party.RunInMemory(cfg, parts, nil, detRandom)
}

// sentBy sums the bytes a holder sent on all its links.
func sentBy(out *party.SessionOutcome, name string, peers ...string) uint64 {
	total := uint64(0)
	for _, p := range peers {
		b, _ := out.Traffic[party.LinkName(name, p)].Sent()
		total += b
	}
	return total
}

// sessionOverhead measures the fixed per-session traffic of one holder
// (handshakes, census, group key, request, empty matrices) by running the
// same session shape with zero objects. Cost experiments subtract it so
// the fits see only the data-dependent traffic the paper analyzes.
func sessionOverhead(mk func(counts []int, seed uint64) ([]dataset.Partition, error), holders int) (float64, error) {
	counts := make([]int, holders)
	parts, err := mk(counts, 0)
	if err != nil {
		return 0, err
	}
	out, err := runSession(parts, protocol.Batch)
	if err != nil {
		return 0, err
	}
	peers := append([]string{}, gen.SiteNames(holders)[1:]...)
	peers = append(peers, party.TPName)
	return float64(sentBy(out, "A", peers...)), nil
}

// minusOverhead clamps measured-minus-overhead at a small positive floor so
// fits stay well defined.
func minusOverhead(measured uint64, overhead float64) float64 {
	v := float64(measured) - overhead
	if v < 1 {
		v = 1
	}
	return v
}

func dnaAlpha() *ppclust.Alphabet {
	return ppclust.DNA
}
