package party

import (
	"cmp"
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/protocol"
)

// arith is one arithmetic variant under one masking mode.
type arith struct {
	variant Variant
	mode    protocol.Mode
}

var (
	float64Batch, float64PerPair = arith{Float64Variant, protocol.Batch}, arith{Float64Variant, protocol.PerPair}
	int64Batch, int64PerPair     = arith{Int64Variant, protocol.Batch}, arith{Int64Variant, protocol.PerPair}
	modpBatch, modpPerPair       = arith{ModPVariant, protocol.Batch}, arith{ModPVariant, protocol.PerPair}
	everyArith                   = []arith{float64Batch, int64Batch, modpBatch, float64PerPair, int64PerPair, modpPerPair}
)

// serialTP is the deployment of the phase-serial third party, one range,
// reassembling the shape's chunked wire. Any other deployment is the
// session pipeline's TPShards: one range, or that many ShardServer workers.
const serialTP = 0

// sessionShapeTable is the table of session shapes. Each row crosses its
// data set, under deterministicRandom(seed), with every arithmetic, chunk
// budget and deployment it lists, and runs each shape at every
// Parallelism it lists. Chunk budget 0 is the default, 1 one row a frame,
// oneFrameBudget one frame a payload (the pre-streaming wire shape).
var sessionShapeTable = []struct {
	data                     string
	seed                     uint64
	ariths                   []arith
	chunks, deployments, par []int
}{
	// The default shape at every Parallelism, one range and 2 and 4 workers.
	{"pipeline10", 3, []arith{float64Batch}, []int{0}, []int{1}, []int{1, 2, 0}},
	{"pipeline10", 23, []arith{float64Batch}, []int{0}, []int{1, 2, 4}, []int{1, 2, 0}},
	{"pipeline10", 41, []arith{float64Batch}, []int{0}, []int{2, 4}, []int{1, 0}},
	// Every chunk budget, also reassembled by the serial third party.
	{"pipeline10", 11, []arith{float64Batch}, []int{1, 4 << 10, 256 << 10, oneFrameBudget}, []int{serialTP, 1}, []int{1, 2, 0}},
	// Chunked pair payloads under the exact variants and per-pair masks,
	// whose keystream the third party consumes row by row across chunks.
	{"pipeline8", 15, []arith{int64Batch, modpBatch, float64PerPair, int64PerPair, modpPerPair}, []int{1, 4 << 10}, []int{serialTP, 1}, []int{1, 0}},
	{"pipeline8", 24, []arith{float64PerPair}, []int{1, 4 << 10, 256 << 10, oneFrameBudget}, []int{1, 2}, []int{2}},
	{"pipeline8", 24, []arith{modpPerPair}, []int{1}, []int{1, 2}, []int{2}},
	// The full matrix, at one compute token and at all cores.
	{"pipeline8", 31, everyArith, []int{1, 4 << 10, 256 << 10, oneFrameBudget}, []int{1, 2, 4}, []int{1, 0}},
	// Split pair blocks and alphanumeric chunks of several frames.
	{"pipeline24", 61, everyArith, []int{1, 64, 0, oneFrameBudget}, []int{1, 2}, []int{2}},
	{"pipeline40", 61, []arith{float64Batch}, []int{1, 64, 0, oneFrameBudget}, []int{1, 2}, []int{2}},
	// The exact variants, also over unequal holders.
	{"pipeline24", 32, []arith{int64Batch, int64PerPair, modpBatch, modpPerPair}, []int{0, 64}, []int{1, 2, 4}, []int{2}},
	{"unequal-7-40-90", 32, []arith{int64Batch, int64PerPair, modpBatch, modpPerPair}, []int{0, 64}, []int{1, 2, 4}, []int{2}},
	// The clustering tail at benchmark size and over ties.
	{"pair-cpu", 25, []arith{float64Batch}, []int{0}, []int{1, 2}, []int{2}},
	{"pair-cpu-600", 25, []arith{float64Batch}, []int{0}, []int{1, 2}, []int{2}},
	{"pair-ties", 25, []arith{float64Batch}, []int{0}, []int{1, 2}, []int{2}},
	{"mixed-cpu", 25, []arith{float64Batch}, []int{0}, []int{1, 2}, []int{2}},
}

// shapeData is a data set of the table.
type shapeData struct {
	parts []dataset.Partition
	reqs  map[string]ClusterRequest
}

func shapeDataSets() map[string]shapeData {
	pipeline := func(sizes ...int) shapeData { return shapeData{pipelinePartsOf(sizes...), pipelineReqs()} }
	return map[string]shapeData{
		"pipeline8":       pipeline(8, 9, 10),
		"pipeline10":      pipeline(10, 11, 12),
		"pipeline24":      pipeline(24, 25, 26),
		"pipeline40":      pipeline(40, 41, 42),
		"unequal-7-40-90": pipeline(7, 40, 90),
		"pair-cpu":        tailSessionShape(false, false, 120),
		"pair-cpu-600":    tailSessionShape(false, false, 600),
		"pair-ties":       tailSessionShape(false, true, 200),
		"mixed-cpu":       tailSessionShape(true, false, 30),
	}
}

// shapeName is a shape's subtest name and corpus key.
func shapeName(data string, seed uint64, a arith, chunk, deployment int) string {
	c := cmp.Or(map[int]string{0: "default", oneFrameBudget: "one-frame"}[chunk], strconv.Itoa(chunk))
	d := cmp.Or(map[int]string{serialTP: "serial", 1: "one-range"}[deployment], fmt.Sprintf("workers-%d", deployment))
	return fmt.Sprintf("%s/seed=%d/%v-%v/chunk=%s/%s", data, seed, a.variant, a.mode, c, d)
}

// TestSessionShapes runs every shape of the table as a plaintext session
// under a tap, its shapes in parallel, and checks it two ways. Its wire and
// report must be the ones recorded in testdata/session-shapes.txt: one line
// per lane and kind the holders sent frames of, and one of the report's
// hashes, the same at every Parallelism. Its report must be the
// phase-serial oracle's, bit for bit. A shape that moved fails naming the
// corpus lines that moved, and a failed run writes the corpus as this build
// records it to a temporary file it names: re-recording is copying it over.
func TestSessionShapes(t *testing.T) {
	const corpus = "testdata/session-shapes.txt"
	text, err := os.ReadFile(corpus)
	if err != nil {
		t.Fatal(err)
	}
	header, recorded := []string{}, map[string][]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			header = append(header, line)
		} else if shape, rest, ok := strings.Cut(line, " "); ok {
			recorded[shape] = append(recorded[shape], rest)
		}
	}
	var mu sync.Mutex
	fresh := maps.Clone(recorded)
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		f, err := os.CreateTemp("", "session-shapes-*.txt")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(f, strings.Join(header, "\n"))
		for _, shape := range slices.Sorted(maps.Keys(fresh)) {
			for _, line := range fresh[shape] {
				fmt.Fprintln(f, shape, line)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Errorf("the corpus as this build records it is in %s", f.Name())
	})
	data := shapeDataSets()
	pools := map[string]*shardWorkerPool{} // by schema fingerprint
	for _, row := range sessionShapeTable {
		d := data[row.data]
		schema := d.parts[0].Table.Schema()
		pool := pools[schemaFingerprint(schema)]
		if pool == nil {
			pool = newShardWorkerPool(t, 4, ShardServerConfig{Schema: schema})
			pools[schemaFingerprint(schema)] = pool
		}
		for _, a := range row.ariths {
			// A session that hangs fails by name, not at the binary's timeout.
			base := Config{Schema: schema, Variant: a.variant, Mode: a.mode, PlaintextChannels: true, SessionTimeout: 30 * time.Second}
			oracle := sync.OnceValues(func() (*SessionOutcome, error) { return shapeOracle(base, d, row.seed) })
			for _, chunk := range row.chunks {
				for _, dep := range row.deployments {
					shape := shapeName(row.data, row.seed, a, chunk, dep)
					t.Run(shape, func(t *testing.T) {
						t.Parallel()
						want, err := oracle()
						if err != nil {
							t.Fatalf("oracle: %v", err)
						}
						for _, par := range row.par {
							cfg := base
							cfg.LocalChunkBytes, cfg.TPShards, cfg.Parallelism = chunk, dep, par
							cfg = pool.withWorkers(cfg, fmt.Sprintf("%s/%d", shape, par))
							run := RunInMemoryWrapped
							if dep == serialTP {
								run = runSerialTP
							}
							tp, label := newTap(cfg), fmt.Sprintf("Parallelism %d", par)
							got, err := run(cfg, d.parts, d.reqs, deterministicRandom(row.seed), tp.wrap)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							holders := slices.Sorted(maps.Keys(got.Report.Results))
							lines := append(tp.laneSums(), fmt.Sprintf("report %s %s", reportHash(got), resultsHash(holders, got.Report.Results)))
							mu.Lock()
							fresh[shape] = lines
							mu.Unlock()
							if diff := movedLines(recorded[shape], lines); len(diff) > 0 {
								t.Errorf("%s: %s moved against %s:\n%s", label, shape, corpus, strings.Join(diff, "\n"))
							}
							assertSameOutcome(t, label, want, got)
							for h, res := range got.Results {
								assertSameResult(t, label+": result received by "+h, got.Report.Results[h], res)
							}
						}
					})
				}
			}
		}
	}
}

// shapeOracle is the phase-serial third party's outcome of a session of d
// under cfg's arithmetic at one range and one frame a payload, its results
// checked against the per-request tail over its own matrices.
func shapeOracle(cfg Config, d shapeData, seed uint64) (*SessionOutcome, error) {
	cfg.LocalChunkBytes = oneFrameBudget
	out, err := runSerialTP(cfg, d.parts, d.reqs, deterministicRandom(seed), nil)
	if err != nil {
		return nil, err
	}
	tp, reqs := &ThirdParty{workers: 2}, []requestBody{}
	for _, p := range d.parts {
		tp.holders, tp.counts = append(tp.holders, p.Site), append(tp.counts, p.Table.Len())
		req := d.reqs[p.Site]
		reqs = append(reqs, requestBody{Weights: cfg.Schema.Weights(), Method: int(req.Method), Linkage: int(req.Linkage), K: req.K})
	}
	tail, err := tp.oracleTail(out.Report.AttributeMatrices, reqs)
	if err == nil && !reflect.DeepEqual(tail, out.Report.Results) {
		err = fmt.Errorf("the published results are not the per-request tail's")
	}
	return out, err
}

// movedLines lists the lines of was that now lacks, and those of now that
// was lacks.
func movedLines(was, now []string) (moved []string) {
	lacking := func(lines, in []string, tag string) {
		for _, l := range lines {
			if !slices.Contains(in, l) {
				moved = append(moved, tag+l)
			}
		}
	}
	lacking(was, now, "  recorded ")
	lacking(now, was, "  now      ")
	return moved
}
