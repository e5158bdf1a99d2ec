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
// in-memory pipes allocates the pipe's copy of every frame, the assembled
// triangle and the linkage engine's working copy — three triangles of
// 1200·1199/2 float64 cells — plus small change. The parent allocated 7.1
// (a plaintext copy of every frame, a []float64 of every payload, an
// unmasked block per chunk, the holders' whole triangles and S matrices);
// any one of those coming back costs at least 0.5. The mod-p variant moves
// 32-byte cells, so its pipe copy alone is two triangles.
func TestSessionAllocationPin(t *testing.T) {
	const rows = 600
	cfg, parts, reqs := pairCPUParts(rows)
	for _, tc := range []struct {
		variant   Variant
		triangles float64
	}{
		{Float64Variant, 3.8},
		{Int64Variant, 3.8},
		{ModPVariant, 41.5},
	} {
		if raceEnabled {
			// sync.Pool drops buffers at random under the race detector, so
			// frame buffers are allocated again and again (measured 4.1–4.3
			// and 42.6–43.1); the plain build asserts the exact ceilings.
			tc.triangles += 0.8 + tc.triangles/20
		}
		cfg.Variant = tc.variant
		got := allocTriangles(2*rows, func() {
			if _, err := RunInMemory(cfg, parts, reqs, deterministicRandom(27)); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: %.2f triangles", tc.variant, got)
		if got > tc.triangles {
			t.Errorf("%v: the session allocated %.2f triangles, want ≤ %.1f", tc.variant, got, tc.triangles)
		}
	}
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

// TestSessionPeakWithinEstimateTwoShards is the same pin for in-process
// shards (TPShards 2), plus a ceiling of its own: the estimate prices the
// slices and the merged matrix side by side, so a slice kept reachable
// past the merge — through the tail — still fits it, and only the ceiling
// notices.
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

// sessionPeak runs a 600 + 600 session at the given TPShards and returns,
// in triangles, the highest live heap a sampler saw over the baseline
// while ThirdParty.Run was running, and the admission estimate.
func sessionPeak(t *testing.T, shards int) (peak, estimate float64) {
	const rows = 600
	cfg, parts, reqs := pairCPUParts(rows)
	cfg.Variant = Float64Variant
	cfg.TPShards = shards
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
	estimate = float64(cfg.EstimateSessionBytes(len(parts), 2*rows, shards)) / triangle
	t.Logf("TPShards %d: peak %.2f triangles over the baseline, estimate %.2f", shards, peak, estimate)
	return peak, estimate
}
