package party

// Where a session's bytes live, pinned: what a whole 600 + 600 session
// allocates (the triangles ARCHITECTURE.md's table names and nothing like a
// fourth), what the largest thing a holder ever holds is (a chunk), and
// that the third party's peak stays under what admission reserved for it.

import (
	"context"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"

	"ppclust/internal/dataset"
	"ppclust/internal/hcluster"
	"ppclust/internal/rng"
)

// pairCPUParts is the pair-cpu shape: two holders of rows objects, one
// numeric attribute with integral values (every variant runs on it),
// identical average-linkage requests.
func pairCPUParts(rows int) (Config, []dataset.Partition, map[string]ClusterRequest) {
	schema := dataset.Schema{Attrs: []dataset.Attribute{{Name: "x", Type: dataset.Numeric}}}
	s := rng.NewXoshiro(rng.SeedFromUint64(27))
	var parts []dataset.Partition
	for _, site := range []string{"A", "B"} {
		tab := dataset.MustNewTable(schema)
		for r := 0; r < rows; r++ {
			tab.MustAppendRow(float64(rng.Symbol(s, 4)*1000 + rng.Symbol(s, 100)))
		}
		parts = append(parts, dataset.Partition{Site: site, Table: tab})
	}
	req := ClusterRequest{Linkage: hcluster.Average, K: 4}
	return Config{Schema: schema, Parallelism: 2}, parts, map[string]ClusterRequest{"A": req, "B": req}
}

// TestSessionAllocationPin: a 600 + 600 one-attribute session over
// in-memory pipes allocates the assembled triangle and the linkage engine's
// working copy — two triangles of 1200·1199/2 float64 cells — plus the
// frame-pool buffers the pool did not have back in time and small change
// (measured 2.16; 2.25 while each holder built its local chunks in a slab
// of its own before copying them into the frame). The pipe's copy of
// every frame is gone: a frame is sealed into a pooled buffer, handed
// through the pipe, opened in place and released by the lane reader.
// Before that the session allocated 3.6 (a pipe copy of every frame, a
// fresh seal buffer per conduit), and before that 7.1 (a plaintext copy of
// every frame, a []float64 of every payload, an unmasked block per chunk,
// the holders' whole triangles and S matrices); any one of those coming
// back costs at least 0.5. The mod-p
// variant moves 32-byte cells and spends most of its allocation in
// big-integer arithmetic (measured 37.45). With TPShards 2 served by two
// ShardServers over loopback TCP, the process also runs the workers, which
// hold no slice and are relayed pair chunks alone (measured 2.38; 3.4
// while each worker assembled its slice, local rows and all, and returned
// it whole).
//
// Under the race detector sync.Pool drops a quarter of what it is handed,
// so the frame pool's refills grow with the frames a row moves (the K = 2
// row relays pair chunks and returns rows too) and varied by more than a
// triangle from run to run. There allocTriangles leaves out what
// wire.getFrame allocated, read from a heap profile sampled every 4 KiB,
// and the rows keep the plain build's ceilings (measured 2.15, 2.15, 37.37
// and 2.19).
func TestSessionAllocationPin(t *testing.T) {
	const rows = 600
	base, parts, reqs := pairCPUParts(rows)
	pool := newShardWorkerPool(t, 2, ShardServerConfig{Schema: base.Schema})
	if raceEnabled {
		defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
		runtime.MemProfileRate = 4 << 10
	}
	for _, tc := range []struct {
		variant   Variant
		workers   bool // TPShards 2 served by ShardServers over loopback TCP
		triangles float64
	}{
		{Float64Variant, false, 2.6},
		{Int64Variant, false, 2.6},
		{ModPVariant, false, 38.5},
		{Float64Variant, true, 2.6},
	} {
		cfg, label := base, tc.variant.String()
		cfg.Variant = tc.variant
		if tc.workers {
			cfg.TPShards, cfg.ShardDial, label = 2, pool.dialer("allocation-pin", nil), label+" with K = 2 workers"
		}
		got := allocTriangles(2*rows, func() {
			if _, err := RunInMemory(cfg, parts, reqs, deterministicRandom(27)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.2f triangles", label, got)
		if got > tc.triangles {
			t.Errorf("%s: the session allocated %.2f triangles, want ≤ %.1f", label, got, tc.triangles)
		}
	}
}

// frameBufferBytes is what wire.getFrame has allocated in this process so
// far, as the heap profile records it, under the race detector (sampled
// every 4 KiB, it misses a 64 KiB buffer at odds under e⁻¹⁶); 0 in the
// plain build, which counts the frame pool's refills with the rest.
func frameBufferBytes() int64 {
	if !raceEnabled {
		return 0
	}
	runtime.GC() // the profile trails the allocations by two collections
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	records := make([]runtime.MemProfileRecord, n+64)
	n, _ = runtime.MemProfile(records, true)
	var total int64
	for _, r := range records[:n] {
		for frames, more := runtime.CallersFrames(r.Stack()), true; more; {
			var f runtime.Frame
			if f, more = frames.Next(); f.Function == "ppclust/internal/wire.getFrame" {
				total += r.AllocBytes
				break
			}
		}
	}
	return total
}

// TestHolderHoldsOneChunk: with a 64 KiB chunk budget, nothing allocated
// on a holder's own stack during a 600-object numeric session is larger
// than a few chunks — the local triangle (1.4 MB) and the S matrix
// (2.9 MB) the parent built whole are built a chunk at a time. The heap
// profiler, sampling every allocation, attributes each to its stack.
func TestHolderHoldsOneChunk(t *testing.T) {
	const rows, chunk = 600, 64 << 10
	cfg, parts, reqs := pairCPUParts(rows)
	cfg.LocalChunkBytes = chunk
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// The profile is the process's: what earlier tests' holders allocated
	// is in it too, so only sites that grew during this session count.
	type site struct {
		stack [32]uintptr
		size  int64
	}
	profile := func() map[site]runtime.MemProfileRecord {
		runtime.GC() // the profile trails the allocations by two collections
		runtime.GC()
		records := make([]runtime.MemProfileRecord, 1<<16)
		n, ok := runtime.MemProfile(records, true)
		if !ok {
			t.Fatalf("heap profile has %d records", n)
		}
		sites := map[site]runtime.MemProfileRecord{}
		for _, r := range records[:n] {
			if r.AllocObjects > 0 {
				sites[site{r.Stack0, r.AllocBytes / r.AllocObjects}] = r
			}
		}
		return sites
	}
	before := profile()
	for _, variant := range []Variant{Float64Variant, Int64Variant} {
		cfg.Variant = variant
		if _, err := RunInMemory(cfg, parts, reqs, deterministicRandom(28)); err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	for at, r := range profile() {
		if r.AllocObjects == before[at].AllocObjects {
			continue
		}
		var stack []string
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		if trace := strings.Join(stack, " < "); strings.Contains(trace, "party.(*Holder).run") {
			seen++
			if at.size > 4*chunk {
				t.Errorf("a holder allocated %d bytes at once (chunk budget %d): %s", at.size, chunk, trace)
			}
		}
	}
	if seen < 10 {
		t.Fatalf("only %d holder-side allocation sites in the profile: the stack filter matches nothing", seen)
	}
}

// TestSessionPeakWithinEstimate: the live heap the third party's side of a
// 600 + 600 session adds, at its peak, fits what admission control
// reserves for it. A sampler runs collections back to back for as long as
// ThirdParty.Run is running and reads what each marked live; the heap
// before the session — the holders' tables and the test binary — is
// subtracted. What the sample
// does include beyond the third party, the holders' chunk buffers and the
// frames queued in the unbounded in-memory pipes, only makes the bound
// harder to meet.
func TestSessionPeakWithinEstimate(t *testing.T) {
	peak, estimate := sessionPeak(t, 1)
	if peak > estimate {
		t.Errorf("the session's live heap peaked %.2f triangles over the baseline, admission reserved %.2f", peak, estimate)
	}
}

// TestSessionPeakWithinEstimateTwoShards is the same pin for two shards
// (TPShards 2), whose rows are installed in place in the one matrix per
// attribute, plus a ceiling of its own: a slice held beside the matrix
// again would show there first. The two ShardServer workers run in this
// process, so the sampled heap holds what they hold too.
func TestSessionPeakWithinEstimateTwoShards(t *testing.T) {
	const ceiling = 2.6
	peak, estimate := sessionPeak(t, 2)
	if peak > estimate {
		t.Errorf("the session's live heap peaked %.2f triangles over the baseline, admission reserved %.2f", peak, estimate)
	}
	if peak > ceiling {
		t.Errorf("the session's live heap peaked %.2f triangles over the baseline, want ≤ %.1f", peak, ceiling)
	}
}

// sessionPeak runs a 600 + 600 session at the given TPShards, with its
// workers, and returns, in triangles, the highest live heap a sampler saw
// over the baseline while ThirdParty.Run was running, and the admission
// estimate.
func sessionPeak(t *testing.T, shards int) (peak, estimate float64) {
	const rows = 600
	cfg, parts, reqs := pairCPUParts(rows)
	cfg.Variant = Float64Variant
	cfg.TPShards = shards
	if shards > 1 {
		cfg.ShardDial = newShardWorkerPool(t, shards, ShardServerConfig{Schema: cfg.Schema}).dialer("peak", nil)
	}
	// A collection marks what is reachable when it starts plus what is
	// allocated while it runs, so one cycle that a loaded scheduler
	// stretches across a hand-off — slices merged into the matrix, frames
	// done with as the linkage engine copies the matrix — counts both
	// sides. A reading counts only as far as the next cycle confirms it:
	// whatever stays live across two cycles, as every resident triangle
	// does, is measured whole.
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	liveHeap := func() uint64 {
		runtime.GC()
		metrics.Read(live)
		return live[0].Value.Uint64()
	}
	var base, top uint64
	sampled := func(tp *ThirdParty, ctx context.Context) (*TPReport, error) {
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for prev := liveHeap(); ; {
				cur := liveHeap()
				top = max(top, min(prev, cur))
				prev = cur
				select {
				case <-done:
					return
				default:
				}
			}
		}()
		report, err := tp.RunContext(ctx)
		close(done)
		wg.Wait()
		return report, err
	}
	base = min(liveHeap(), liveHeap())
	if _, err := runInMemory(context.Background(), cfg, parts, reqs, deterministicRandom(29), nil, sampled); err != nil {
		t.Fatal(err)
	}
	triangle := float64(8 * (2 * rows) * (2*rows - 1) / 2)
	if top < base || float64(top-base) < triangle {
		t.Fatalf("peak %d over a baseline of %d: the sampler never saw the assembled matrix", top, base)
	}
	peak = float64(top-base) / triangle
	estimate = float64(cfg.EstimateSessionBytes(len(parts), 2*rows)) / triangle
	t.Logf("TPShards %d: peak %.2f triangles over the baseline, estimate %.2f", shards, peak, estimate)
	return peak, estimate
}
