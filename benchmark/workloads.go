package main

import (
	"fmt"
	"math/rand"

	"ppclust/internal/alphabet"
	"ppclust/internal/dataset"
	"ppclust/internal/hcluster"
	"ppclust/internal/party"
	"ppclust/internal/protocol"
)

// workload is one set of inputs the benchmark runs. The names are fixed:
// later issues cite them.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same text).
	Why string
	// Link says what the traffic crossed, for the reproducibility block.
	Link string

	Holders int // data holders per session
	Objects int // objects per holder
	// DNALen selects the schema: 0 is one numeric attribute, anything else
	// numeric + alphanumeric (DNA strings of this length) + categorical.
	DNALen int
	K      int // clusters every holder requests

	WAN     bool // every TP-side link behind wire.Link 1 ms / 64 MB/s
	Shards  int  // TPShards, served by a ShardServer over loopback TCP
	Tenants bool // server.Manager on a loopback listener, holders dial TCP
	Clients int  // closed-loop clients
}

var workloads = []workload{
	{
		Name:    "pair-cpu",
		Why:     "2x600 objects, one numeric attribute, bare pipes: wall time is CPU, so codec, allocation and clustering work shows",
		Link:    "in-memory wire.Pipe, no modelled wait",
		Holders: 2, Objects: 600, K: 4, Clients: 1,
	},
	{
		Name:    "pair-wan",
		Why:     "pair-cpu behind 1 ms / 64 MB/s TP links: bandwidth-bound, so wire bytes and overlap show and CPU savings mostly do not",
		Link:    "in-memory wire.Pipe behind a modelled wire.Link (1 ms, 64 MB/s) on every TP-side end",
		Holders: 2, Objects: 600, K: 4, WAN: true, Clients: 1,
	},
	{
		Name:    "mixed-cpu",
		Why:     "3x80 objects, numeric + DNA + categorical, three clustering methods: the alphanumeric engine, editdist, detenc and pam work here only",
		Link:    "in-memory wire.Pipe, no modelled wait",
		Holders: 3, Objects: 80, DNALen: 16, K: 3, Clients: 1,
	},
	{
		Name:    "shard-workers",
		Why:     "pair-wan with TPShards 2 served by a ShardServer over loopback TCP: the coordinator re-seal/relay tax and slice merge run here only",
		Link:    "holder links as pair-wan; coordinator-to-worker links over the host loopback (real TCP, not a real network)",
		Holders: 2, Objects: 600, K: 4, WAN: true, Shards: 2, Clients: 1,
	},
	{
		Name:    "tenants-small",
		Why:     "3x20-object mixed sessions through server.Manager over loopback TCP, 2 closed-loop clients: handshakes, admission and per-session set-up dominate",
		Link:    "holder-to-TP links over the host loopback (real TCP, not a real network); holder-to-holder links in memory",
		Holders: 3, Objects: 20, DNALen: 12, K: 3, Tenants: true, Clients: 2,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sessionConfig is the agreement every party of the workload shares:
// float64 arithmetic, batch masking, AES-GCM channels, default chunking,
// all cores.
func (w *workload) sessionConfig() party.Config {
	return party.Config{Schema: w.schema(), Variant: party.Float64Variant, Mode: protocol.Batch}
}

func (w *workload) schema() dataset.Schema {
	if w.DNALen == 0 {
		return dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	}
	return dataset.Schema{Attrs: []dataset.Attribute{
		{Name: "age", Type: dataset.Numeric},
		{Name: "seq", Type: dataset.Alphanumeric, Alphabet: alphabet.DNA},
		{Name: "city", Type: dataset.Categorical},
	}}
}

func (w *workload) holderNames() []string {
	names := make([]string, w.Holders)
	for i := range names {
		names[i] = string(rune('A' + i))
	}
	return names
}

// requests gives every holder its clustering request: average linkage on
// the numeric workloads, one method each (average, single, PAM) on the
// mixed ones.
func (w *workload) requests() map[string]party.ClusterRequest {
	reqs := map[string]party.ClusterRequest{}
	for i, h := range w.holderNames() {
		req := party.ClusterRequest{Method: party.MethodAgglomerative, Linkage: hcluster.Average, K: w.K}
		if w.DNALen > 0 {
			switch i % 3 {
			case 1:
				req.Linkage = hcluster.Single
			case 2:
				req.Method = party.MethodPAM
			}
		}
		reqs[h] = req
	}
	return reqs
}

// generate draws the workload's partitions from seed: K well-separated
// families, so that clustering has structure to find, with continuous
// numeric values (gob then spends its realistic 9 bytes per cell). The
// program under test sees only the tables.
func (w *workload) generate(seed uint64) ([]dataset.Partition, error) {
	r := rand.New(rand.NewSource(int64(seed)))
	schema := w.schema()
	protos := make([][]byte, w.K)
	for f := range protos {
		protos[f] = make([]byte, w.DNALen)
		for i := range protos[f] {
			protos[f][i] = "ACGT"[r.Intn(4)]
		}
	}
	var parts []dataset.Partition
	for _, site := range w.holderNames() {
		tab, err := dataset.NewTable(schema)
		if err != nil {
			return nil, err
		}
		for i := 0; i < w.Objects; i++ {
			f := r.Intn(w.K)
			x := 100 + 200*float64(f) + 20*r.NormFloat64()
			if w.DNALen == 0 {
				err = tab.AppendRow(x)
			} else {
				dna := append([]byte(nil), protos[f]...)
				for p := range dna {
					if r.Float64() < 0.1 {
						dna[p] = "ACGT"[r.Intn(4)]
					}
				}
				city := fmt.Sprintf("c%d", f)
				if r.Float64() < 0.2 {
					city = fmt.Sprintf("c%d", r.Intn(5))
				}
				err = tab.AppendRow(x/10, string(dna), city)
			}
			if err != nil {
				return nil, err
			}
		}
		parts = append(parts, dataset.Partition{Site: site, Table: tab})
	}
	return parts, nil
}
