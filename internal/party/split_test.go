package party

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ppclust/internal/dataset"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// reportHash digests a whole published report: the object order, every
// attribute matrix and scale by its bits, and every holder's result.
func reportHash(out *SessionOutcome) string {
	h := sha256.New()
	rep := out.Report
	fmt.Fprintf(h, "%v\n", rep.ObjectIDs)
	for i, m := range rep.AttributeMatrices {
		fmt.Fprintf(h, "m%d|%x\n", i, math.Float64bits(rep.Scales[i]))
		for _, v := range m.PackedView() {
			fmt.Fprintf(h, "%x,", math.Float64bits(v))
		}
	}
	fmt.Fprintf(h, "\n%s", resultsHash(slices.Sorted(maps.Keys(rep.Results)), rep.Results))
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestExactReportsMatchParent: the integer and mod-p variants are exact, so
// moving who produces which rows of a cross block must not move a bit of
// what they publish. The hashes were recorded by this very function at
// dd107c3, the last commit whose higher-named holder produced every row of
// every pair block; each must hold for both exact variants in both modes,
// at two chunk budgets, at K = 1, at K = 2 in process and at K = 2 behind
// shard workers.
func TestExactReportsMatchParent(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sizes []int
		hash  string
	}{
		{"pipeline24", []int{24, 25, 26}, "9bc7e437e2f710a6"},
		{"unequal", []int{7, 40, 90}, "4df6fa94b8622890"},
	} {
		parts := pipelinePartsOf(tc.sizes...)
		for _, variant := range []Variant{Int64Variant, ModPVariant} {
			for _, mode := range []protocol.Mode{protocol.Batch, protocol.PerPair} {
				for _, chunk := range []int{0, 64} {
					for _, deploy := range []string{"K=1", "K=2", "worker"} {
						label := fmt.Sprintf("%s %v %v chunk=%d %s", tc.name, variant, mode, chunk, deploy)
						cfg := Config{Schema: pipelineSchema(), Variant: variant, Mode: mode, LocalChunkBytes: chunk, Parallelism: 2}
						if deploy != "K=1" {
							cfg.TPShards = 2
						}
						if deploy == "worker" {
							pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: pipelineSchema()})
							cfg.ShardDial = pool.dialer(label, nil)
						}
						out, err := RunInMemory(cfg, parts, pipelineReqs(), deterministicRandom(32))
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						for h, res := range out.Results {
							assertSameResult(t, label+": result received by "+h, out.Report.Results[h], res)
						}
						if got := reportHash(out); got != tc.hash {
							t.Errorf("%s: report hash %s, the parent published %s", label, got, tc.hash)
						}
					}
				}
			}
		}
	}
}

// linkLoads is what each holder sends over its links to the third party
// when every pair block is cut at split: its local triangle plus, per
// pair, the responder's rows below the cut or the initiator's from it on.
func linkLoads(counts []int, split []int) []int {
	load := make([]int, len(counts))
	for i, n := range counts {
		load[i] = n * (n - 1) / 2
	}
	for p, pr := range sortedPairs(len(counts)) {
		nj, nk := counts[pr[0]], counts[pr[1]]
		load[pr[0]] += (nk - split[p]) * nj
		load[pr[1]] += split[p] * nj
	}
	return load
}

// TestSplitRowsBalancesLinks: with two holders the split leaves the two
// links' cell counts within one row of each other (300 of 600 + 600); with
// more, no holder's link carries more than the busiest link did when every
// responder produced its whole blocks; an empty initiator's block stays
// whole; and alphanumeric blocks are never cut.
func TestSplitRowsBalancesLinks(t *testing.T) {
	if c := newCensus([]int{600, 600}); c.split[0] != 300 {
		t.Fatalf("600 + 600 splits at %d, want 300", c.split[0])
	}
	src := rng.NewXoshiro(rng.SeedFromUint64(32))
	for it := 0; it < 5000; it++ {
		counts := make([]int, 2+rng.Symbol(src, 4))
		for i := range counts {
			switch rng.Symbol(src, 4) {
			case 0:
				counts[i] = rng.Symbol(src, 3)
			case 1:
				counts[i] = rng.Symbol(src, 40)
			default:
				counts[i] = rng.Symbol(src, 700)
			}
		}
		c := newCensus(counts)
		whole := make([]int, len(c.pairs))
		for p, pr := range c.pairs {
			whole[p] = counts[pr[1]]
			if counts[pr[0]] == 0 && c.split[p] != whole[p] {
				t.Fatalf("%v: pair %v with an empty initiator split at %d", counts, pr, c.split[p])
			}
			if h := c.splitAt(dataset.Alphanumeric, p); h != whole[p] {
				t.Fatalf("%v: alphanumeric pair %v split at %d", counts, pr, h)
			}
		}
		got, today := linkLoads(counts, c.split), linkLoads(counts, whole)
		if slices.Max(got) > slices.Max(today) {
			t.Fatalf("%v: busiest link carries %d cells, %d when responders produced whole blocks", counts, slices.Max(got), slices.Max(today))
		}
		// Two links end within one row of each other, unless the whole
		// block on the lighter one could not close the gap.
		if nj, h := counts[0], c.split[0]; len(counts) == 2 && nj > 0 {
			d := got[0] - got[1]
			capped := (h == 0 && d < 0) || (h == counts[1] && d > 0)
			if (d > nj || -d > nj) && !capped {
				t.Fatalf("%v: split at %d, links carry %v cells, more than one row (%d) apart", counts, h, got, nj)
			}
		}
	}
}

// TestHolderRefusesMalformedCensus: a census whose counts do not line up
// with its holders, or that holds a negative count, is refused with a
// descriptive error. A short one once indexed past the counts and panicked
// in Holder.exchangeCensus.
func TestHolderRefusesMalformedCensus(t *testing.T) {
	parts := pairCapParts(t, 3, 4)
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant, PlaintextChannels: true}
	for _, counts := range [][]int{{3}, {3, 4, 5}, {3, -4}} {
		// Holder A is handed a census whose counts the test chose.
		tp := newTap(cfg)
		tp.onSend(TPName, "A", first(kindCensus, func(f *tapFrame) ([][]byte, error) {
			var body censusBody
			if err := wire.DecodeBody(f.Msg.Payload, &body); err != nil {
				return nil, err
			}
			body.Counts = counts
			m := *f.Msg
			var err error
			if m.Payload, err = wire.EncodeBody(body); err != nil {
				return nil, err
			}
			return [][]byte{wire.AppendFrame(nil, &m)}, nil
		}))
		_, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(33), tp.wrap)
		if err == nil || !strings.Contains(err.Error(), "holder A: ") || !strings.Contains(err.Error(), "census") {
			t.Fatalf("census counts %v: want holder A to refuse the census, got %v", counts, err)
		}
	}
}

// TestHolderRefusesRaggedResult: a result whose cluster site and index
// lists do not line up is refused with a descriptive error. One with
// fewer index lists than site lists once indexed past them and panicked
// in Holder.recvResult.
func TestHolderRefusesRaggedResult(t *testing.T) {
	parts := pairCapParts(t, 3, 4)
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant, PlaintextChannels: true}
	for _, cut := range []func(*resultBody){
		func(b *resultBody) { b.ClusterIndices = b.ClusterIndices[:1] },
		func(b *resultBody) { b.ClusterIndices[0] = b.ClusterIndices[0][1:] },
	} {
		tp := newTap(cfg)
		tp.onSend(TPName, "A", first(kindResult, func(f *tapFrame) ([][]byte, error) {
			var body resultBody
			if err := wire.DecodeBody(f.Msg.Payload, &body); err != nil {
				return nil, err
			}
			cut(&body)
			m := *f.Msg
			var err error
			if m.Payload, err = wire.EncodeBody(body); err != nil {
				return nil, err
			}
			return [][]byte{wire.AppendFrame(nil, &m)}, nil
		}))
		_, err := RunInMemoryWrapped(cfg, parts, map[string]ClusterRequest{"A": {K: 2}}, deterministicRandom(33), tp.wrap)
		if err == nil || !strings.Contains(err.Error(), "holder A: party: ") || !strings.Contains(err.Error(), "result") {
			t.Fatalf("want holder A to refuse the ragged result, got %v", err)
		}
	}
}

// TestConstructionOverlapsHandshakes: every hello of a party goes out
// before it reads any, so with 50 ms on every frame the third party
// receives — control and shard conduits alike, two holders at TPShards 2 —
// all parties are built within three round trips, where one handshake
// after another took at least five.
func TestConstructionOverlapsHandshakes(t *testing.T) {
	const delay = 50 * time.Millisecond
	parts := pairCapParts(t, 3, 3)
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant, TPShards: 2}
	holders := []string{"A", "B"}
	conduits := map[string]map[string]wire.Conduit{"A": {}, "B": {}, TPName: {}}
	var raw []wire.Conduit
	link := func(a, keyA, b, keyB string) {
		ca, cb := wire.Pipe()
		raw = append(raw, ca, cb)
		if a == TPName {
			ca = wire.Link(ca, delay, 0, 0, uint64(len(raw)))
		}
		conduits[a][keyA], conduits[b][keyB] = ca, cb
	}
	link("A", "B", "B", "A")
	for _, h := range holders {
		link(TPName, h, h, TPName)
		for s := 0; s < 2; s++ {
			link(TPName, ShardConduitKey(h, s), h, ShardName(s))
		}
	}
	defer func() {
		for _, c := range raw {
			c.Close()
		}
	}()
	start := time.Now()
	var wg sync.WaitGroup
	built := make([]time.Duration, 3)
	errs := make([]error, 3)
	var tp *ThirdParty
	hs := make([]*Holder, 2)
	for i, p := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hs[i], errs[i] = NewHolder(p.Site, p.Table, holders, cfg, ClusterRequest{}, conduits[p.Site], deterministicRandom(34)(p.Site))
			built[i] = time.Since(start)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tp, errs[2] = NewThirdParty(holders, cfg, conduits[TPName], deterministicRandom(34)(TPName))
		built[2] = time.Since(start)
	}()
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	t.Logf("built after %v", built)
	if slow := slices.Max(built); slow > 3*delay {
		t.Errorf("parties built after %v (holders %v, %v; third party %v), want within %v", slow, built[0], built[1], built[2], 3*delay)
	}
	// Run the session out, so nothing is left parked.
	for _, h := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := h.Run(); err != nil {
				t.Error(err)
			}
		}()
	}
	if _, err := tp.Run(); err != nil {
		t.Error(err)
	}
	wg.Wait()
}

// TestHolderLinksCarryEqualBytes meters what each holder sends over its
// links to the third party in a 600 + 600 float64 batch session: at K = 1
// the two links carry the same bytes to within 1 % (the responder's used to
// carry three times the initiator's), and at K = 2 no lane carries more
// than 1.5 MB (the busiest used to carry 2.88 MB).
func TestHolderLinksCarryEqualBytes(t *testing.T) {
	parts := pairCapParts(t, 600, 600)
	for _, k := range []int{1, 2} {
		cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant, TPShards: k}
		out, err := RunInMemory(cfg, parts, nil, deterministicRandom(35))
		if err != nil {
			t.Fatal(err)
		}
		lanes := map[string]uint64{}
		for name, ctr := range out.Traffic {
			if from, to, _ := strings.Cut(name, "->"); from != TPName && strings.HasPrefix(to, TPName) {
				lanes[name], _ = ctr.Sent()
			}
		}
		if k == 1 {
			a, b := float64(lanes["A->TP"]), float64(lanes["B->TP"])
			if max(a, b)/min(a, b) > 1.01 {
				t.Errorf("K = 1: A sends %.0f bytes to the third party, B %.0f", a, b)
			}
			continue
		}
		for name, n := range lanes {
			if n > 1_500_000 {
				t.Errorf("K = 2: lane %s carries %d bytes, want ≤ 1.5 MB (all lanes: %v)", name, n, lanes)
			}
		}
	}
}

// TestShareRowsOfTheOtherHolderRefused: the third party takes each holder's
// rows of a pair block only from the share that holder produces. An
// initiator chunk claiming rows below the split, or a responder chunk
// claiming rows from it on, is refused with a schedule error.
func TestShareRowsOfTheOtherHolderRefused(t *testing.T) {
	parts := pairCapParts(t, 40, 40) // the split is row 20
	cfg := Config{Schema: parts[0].Table.Schema(), Variant: Float64Variant, PlaintextChannels: true, LocalChunkBytes: 5 * 40 * 8}
	for _, tc := range []struct {
		holder string
		to     int
	}{{"A", 0}, {"B", 20}} {
		// The holder's first S chunk is moved to start at row tc.to, its
		// cells kept: a holder claiming rows of the other holder's share.
		tp := newTap(cfg)
		tp.onSend(tc.holder, TPName, first(kindNumS, func(f *tapFrame) ([][]byte, error) {
			r := bodyReader{p: f.Msg.Payload}
			rows := r.int()
			r.int()
			r.int()
			m := *f.Msg
			m.Payload = append(appendInts(nil, rows, tc.to, tc.to+f.Hi-f.Lo), r.p...)
			return [][]byte{wire.AppendFrame(nil, &m)}, nil
		}))
		_, err := RunInMemoryWrapped(cfg, parts, nil, deterministicRandom(36), tp.wrap)
		if err == nil || !strings.Contains(err.Error(), "schedule says") {
			t.Fatalf("%s's chunk moved to row %d: want a schedule error, got %v", tc.holder, tc.to, err)
		}
	}
}

// TestPerPairSplitOverSmallTCPBuffers runs a three-holder per-pair session
// whose holder links are loopback TCP sockets with 16 KiB buffers (asked
// for as 8 KiB: Linux doubles the request), so a pair's disguise in either
// direction outgrows both of a link's buffers: holder-link traffic runs
// both ways, and only its fixed order (the initiator sends, the responder
// receives and then sends, the initiator receives) keeps the blocking
// sends from forming a cycle — a responder that sent first deadlocks here.
// The session must finish inside a hard deadline with the in-memory
// session's report.
func TestPerPairSplitOverSmallTCPBuffers(t *testing.T) {
	parts := pipelinePartsOf(120, 120, 120)
	cfg := Config{Schema: pipelineSchema(), Variant: Int64Variant, Mode: protocol.PerPair}
	want, err := RunInMemory(cfg, parts, pipelineReqs(), deterministicRandom(37))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	got, err := RunInMemoryWrappedContext(ctx, cfg, parts, pipelineReqs(), deterministicRandom(37), overTCP(t, 8<<10, "A", "B", "C"))
	if err != nil {
		t.Fatalf("per-pair session over small TCP buffers: %v", err)
	}
	assertSameOutcome(t, "per-pair over small TCP buffers", want, got)
}
