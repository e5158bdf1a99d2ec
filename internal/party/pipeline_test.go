package party

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/hcluster"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// pipelineSchema exercises several attributes so the third party's
// pipeline has attributes to overlap: two comparison-protocol attributes, an
// alphanumeric CCM attribute and a tag-based one.
func pipelineSchema() dataset.Schema {
	return dataset.Schema{Attrs: []dataset.Attribute{
		{Name: "age", Type: dataset.Numeric},
		{Name: "income", Type: dataset.Numeric},
		{Name: "dna", Type: dataset.Alphanumeric, Alphabet: mixedSchema().Attrs[2].Alphabet},
		{Name: "city", Type: dataset.Categorical},
	}}
}

// pipelineParts builds three deterministic partitions over pipelineSchema.
func pipelineParts(t testing.TB, rows int) []dataset.Partition {
	t.Helper()
	return pipelinePartsOf(rows, rows+1, rows+2)
}

// pipelinePartsOf builds deterministic partitions A, B, C, … of the given
// sizes over pipelineSchema.
func pipelinePartsOf(sizes ...int) []dataset.Partition {
	s := rng.NewXoshiro(rng.SeedFromUint64(777))
	cities := []string{"ankara", "istanbul", "izmir"}
	bases := "ACGT"
	var parts []dataset.Partition
	for pi, n := range sizes {
		site := string(rune('A' + pi))
		tab := dataset.MustNewTable(pipelineSchema())
		for r := 0; r < n; r++ {
			dna := make([]byte, 5+rng.Symbol(s, 4))
			for i := range dna {
				dna[i] = bases[rng.Symbol(s, 4)]
			}
			tab.MustAppendRow(
				float64(rng.Symbol(s, 80)),
				float64(rng.Symbol(s, 5000)),
				string(dna),
				cities[rng.Symbol(s, len(cities))],
			)
		}
		parts = append(parts, dataset.Partition{Site: site, Table: tab})
	}
	return parts
}

func pipelineReqs() map[string]ClusterRequest {
	return map[string]ClusterRequest{
		"A": {Linkage: hcluster.Average, K: 2},
		"B": {Linkage: hcluster.Single, K: 3},
		"C": {Method: MethodPAM, K: 2},
	}
}

// assertSameOutcome requires bit-identical reports: matrices, scales,
// object ids and every published result.
func assertSameOutcome(t *testing.T, label string, want, got *SessionOutcome) {
	t.Helper()
	if want.Report == nil || got.Report == nil {
		t.Fatalf("%s: missing TP report", label)
	}
	if !reflect.DeepEqual(want.Report.ObjectIDs, got.Report.ObjectIDs) {
		t.Fatalf("%s: object orderings differ", label)
	}
	if !reflect.DeepEqual(want.Report.Scales, got.Report.Scales) {
		t.Fatalf("%s: scales differ: %v vs %v", label, want.Report.Scales, got.Report.Scales)
	}
	if len(want.Report.AttributeMatrices) != len(got.Report.AttributeMatrices) {
		t.Fatalf("%s: matrix counts differ", label)
	}
	for i, wm := range want.Report.AttributeMatrices {
		if !wm.EqualWithin(got.Report.AttributeMatrices[i], 0) {
			t.Fatalf("%s: attribute %d matrices not bit-identical", label, i)
		}
	}
	if !reflect.DeepEqual(want.Results, got.Results) {
		t.Fatalf("%s: published results differ", label)
	}
}

// TestPipelinedMatchesSerialTP pins the pipelined session engine to the
// phase-serial reference path: bit-identical matrices, scales and results
// at Parallelism 1, 2 and all cores.
func TestPipelinedMatchesSerialTP(t *testing.T) {
	parts := pipelineParts(t, 10)
	reqs := pipelineReqs()
	for _, workers := range []int{1, 2, 0} {
		cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: workers}
		serial, err := runSerialTP(cfg, parts, reqs, deterministicRandom(3), nil)
		if err != nil {
			t.Fatalf("workers=%d serial: %v", workers, err)
		}
		piped, err := RunInMemory(cfg, parts, reqs, deterministicRandom(3))
		if err != nil {
			t.Fatalf("workers=%d pipelined: %v", workers, err)
		}
		assertSameOutcome(t, fmt.Sprintf("workers=%d", workers), serial, piped)
	}
}

// TestParallelismOneComputesOneChunk pins the compute tokens' contract on
// a one-range session: at Parallelism 1 the lane readers of tag and
// comparison attributes alike share one token, so no two chunks — nor a
// chunk and an attribute's finish — are ever evaluated at once. The
// process-wide gauge is read at every frame the third party receives and,
// in between, by a sampler for as long as the session runs; it counts
// every evaluation, which the test checks on a core of its own first.
func TestParallelismOneComputesOneChunk(t *testing.T) {
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant, Parallelism: 1, LocalChunkBytes: 256}
	core := newShardCore(cfg, []string{"A", "B"}, []int{1, 1}, 1, protocol.NewEnginePool(1), nil, nil)
	before := ComputeActive()
	err := core.computing(context.Background(), func() error {
		if got := ComputeActive(); got != before+1 {
			return fmt.Errorf("ComputeActive reads %d while evaluating, want %d", got, before+1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var peak atomic.Int64
	sample := func() {
		for v := ComputeActive(); ; {
			if cur := peak.Load(); v <= cur || peak.CompareAndSwap(cur, v) {
				return
			}
		}
	}
	done, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			sample()
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	wrap := func(owner, peer string, c wire.Conduit) wire.Conduit {
		if owner != TPName {
			return c
		}
		return &samplingConduit{Conduit: c, sample: sample}
	}
	_, err = RunInMemoryWrapped(cfg, pipelineParts(t, 30), pipelineReqs(), deterministicRandom(7), wrap)
	close(done)
	<-sampled
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > 1 {
		t.Fatalf("ComputeActive peaked at %d during a Parallelism 1 session, want at most 1", got)
	}
}

// samplingConduit calls sample at every frame its owner receives.
type samplingConduit struct {
	wire.Conduit
	sample func()
}

func (c *samplingConduit) Recv() ([]byte, error) {
	frame, err := c.Conduit.Recv()
	c.sample()
	return frame, err
}

// latencyWrap injects delay and jitter into the third party's receive side
// of every holder link, modeling a WAN deployment.
func latencyWrap(base, jitter time.Duration) ConduitWrap {
	seed := uint64(0)
	var mu sync.Mutex
	return func(owner, peer string, c wire.Conduit) wire.Conduit {
		if owner != TPName {
			return c
		}
		mu.Lock()
		seed++
		s := seed
		mu.Unlock()
		return wire.Link(c, base, jitter, 0, s)
	}
}

// TestPipelinedOverLatencyConduit: a session whose TP links carry latency
// and jitter still produces exactly the in-memory session's report — the
// pipeline changes scheduling, never data.
func TestPipelinedOverLatencyConduit(t *testing.T) {
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant}
	plain, err := RunInMemory(cfg, parts, reqs, deterministicRandom(4))
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := RunInMemoryWrapped(cfg, parts, reqs, deterministicRandom(4),
		latencyWrap(time.Millisecond, time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	assertSameOutcome(t, "latency conduit", plain, delayed)
}

// tcpLink returns the two ends of a fresh loopback TCP connection.
func tcpLink(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	dialer, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	t.Cleanup(func() { dialer.Close(); acc.c.Close() })
	return dialer, acc.c
}

// TestTCPSessionOverJitteryLinkMatchesInMemory runs the full session over
// real TCP connections whose TP side receives through a latency+jitter
// conduit, and requires the pipelined third party's matrices, scales and
// published results to be bit-identical to the plain in-memory session.
func TestTCPSessionOverJitteryLinkMatchesInMemory(t *testing.T) {
	parts := pipelineParts(t, 8)
	reqs := pipelineReqs()
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant}
	want, err := RunInMemory(cfg, parts, reqs, deterministicRandom(5))
	if err != nil {
		t.Fatal(err)
	}

	holders := []string{"A", "B", "C"}
	holderConduits := map[string]map[string]wire.Conduit{
		"A": {}, "B": {}, "C": {},
	}
	tpConduits := map[string]wire.Conduit{}
	for i, a := range holders {
		for _, b := range holders[i+1:] {
			ca, cb := tcpLink(t)
			holderConduits[a][b] = wire.TCPPooled(ca)
			holderConduits[b][a] = wire.TCPPooled(cb)
		}
		ch, ct := tcpLink(t)
		holderConduits[a][TPName] = wire.TCPPooled(ch)
		// The TP receives each holder stream through an independent
		// jittery link, the deployment the pipeline exists for.
		tpConduits[a] = wire.Link(wire.TCPPooled(ct), time.Millisecond, time.Millisecond, 0, uint64(i+1))
	}

	var wg sync.WaitGroup
	results := make(map[string]*Result)
	var mu sync.Mutex
	errCh := make(chan error, len(parts)+1)
	for _, p := range parts {
		wg.Add(1)
		go func(p dataset.Partition) {
			defer wg.Done()
			h, err := NewHolder(p.Site, p.Table, holders, cfg, reqs[p.Site], holderConduits[p.Site], deterministicRandom(5)(p.Site))
			if err != nil {
				errCh <- err
				return
			}
			res, err := h.Run()
			if err != nil {
				errCh <- err
				return
			}
			mu.Lock()
			results[p.Site] = res
			mu.Unlock()
		}(p)
	}
	var report *TPReport
	wg.Add(1)
	go func() {
		defer wg.Done()
		tp, err := NewThirdParty(holders, cfg, tpConduits, deterministicRandom(5)(TPName))
		if err != nil {
			errCh <- err
			return
		}
		report, err = tp.Run()
		if err != nil {
			errCh <- err
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	got := &SessionOutcome{Results: results, Report: report}
	assertSameOutcome(t, "tcp session", want, got)
}

// TestPipelinedSessionFailsCleanly: a holder stream that breaks mid-session
// must error out of the pipelined TP (every lane reader stopped), not hang
// it.
func TestPipelinedSessionFailsCleanly(t *testing.T) {
	parts := pipelineParts(t, 6)
	cfg := Config{Schema: pipelineSchema(), Variant: Float64Variant}
	// Sever B's TP link after the 6th frame B sends on it: past the
	// handshake and census, inside the attribute traffic.
	wrap := func(owner, peer string, c wire.Conduit) wire.Conduit {
		if owner == "B" && peer == TPName {
			return &severingConduit{Conduit: c, after: 6}
		}
		return c
	}
	_, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(6), wrap)
	if err == nil {
		t.Fatal("severed session reported no error")
	}
	if !strings.Contains(err.Error(), "closed") && !strings.Contains(err.Error(), "authentication") {
		t.Logf("severed session error (accepted): %v", err)
	}
}

// severingConduit closes itself after n sends, simulating a holder crash
// mid-stream.
type severingConduit struct {
	wire.Conduit
	after int
	sent  int
}

func (s *severingConduit) Send(frame []byte) error {
	s.sent++
	if s.sent > s.after {
		s.Conduit.Close()
		return wire.ErrClosed
	}
	return s.Conduit.Send(frame)
}

// TestCentralizedMatrixRejectsUnknownType is the regression test for the
// nil-matrix panic: an attribute type the baseline does not implement
// must produce a descriptive error, never a nil *Matrix that crashes the
// subsequent Normalize.
func TestCentralizedMatrixRejectsUnknownType(t *testing.T) {
	tab := dataset.MustNewTable(dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}})
	tab.MustAppendRow(1.0)
	bogus := dataset.Attribute{Name: "x", Type: dataset.AttrType(99)}
	m, err := centralizedMatrix(tab, 0, bogus)
	if err == nil {
		t.Fatalf("unknown attribute type accepted (m=%v)", m)
	}
	if !strings.Contains(err.Error(), "type") || !strings.Contains(err.Error(), "x") {
		t.Fatalf("error %q does not describe the offending attribute", err)
	}

	// The public entry point rejects the schema before construction —
	// and must keep returning an error, not panicking, if that ever
	// changes.
	schema := dataset.Schema{Attrs: []dataset.Attribute{bogus}}
	parts := []dataset.Partition{{Site: "A", Table: tab}}
	if _, _, err := CentralizedMatrices(schema, parts); err == nil {
		t.Fatal("CentralizedMatrices accepted an unknown attribute type")
	}
}

// benchSession builds the session the pipeline benchmark runs: several
// attributes over three holders with TP-side link latency, so receive
// time is visible against assembly compute.
func benchPipelineSession(b *testing.B) {
	schema := pipelineSchema()
	s := rng.NewXoshiro(rng.SeedFromUint64(99))
	cities := []string{"a", "b", "c", "d"}
	bases := "ACGT"
	var parts []dataset.Partition
	for pi, site := range []string{"A", "B", "C"} {
		tab := dataset.MustNewTable(schema)
		for r := 0; r < 24+pi; r++ {
			dna := make([]byte, 8)
			for i := range dna {
				dna[i] = bases[rng.Symbol(s, 4)]
			}
			tab.MustAppendRow(float64(rng.Symbol(s, 80)), float64(rng.Symbol(s, 5000)), string(dna), cities[rng.Symbol(s, 4)])
		}
		parts = append(parts, dataset.Partition{Site: site, Table: tab})
	}
	cfg := Config{Schema: schema, Variant: Float64Variant}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh latencyWrap per session restarts the seed counter, so
		// every iteration sees the same jitter schedule.
		if _, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(9),
			latencyWrap(time.Millisecond, time.Millisecond/2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionPipeline is the session-pipeline family's in-tree smoke
// variant (CI runs it at -benchtime=1x): a full session over
// latency-injecting TP links.
func BenchmarkSessionPipeline(b *testing.B) {
	b.Run("pipelined", benchPipelineSession)
}
