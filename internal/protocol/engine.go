package protocol

import (
	"sync"

	"ppclust/internal/editdist"
	"ppclust/internal/modp"
	"ppclust/internal/parallel"
)

// Engine executes the comparison protocols with a fixed worker count and
// preallocated mask/scratch buffers that are reused across pairs and
// attributes — the per-element allocations the serial code paths made are
// hoisted here and amortized over a whole session.
//
// Two properties make batching safe:
//
//   - Mask reuse: in Batch mode the paper re-initializes the shared
//     generators at every row boundary ("re-initialize rngJK with seed
//     rJK"), so every row consumes the same stream prefix. The engine
//     draws that prefix once per call instead of once per row, collapsing
//     the O(n²) keystream work of the responder and third-party steps to
//     O(n) while producing the very same mask values.
//   - Deterministic placement: all randomness is drawn sequentially into
//     buffers up front; the remaining arithmetic is element-wise and runs
//     under internal/parallel's contiguous-chunk engine, so outputs are
//     bit-identical at any worker count.
//
// An Engine is NOT safe for concurrent use; each protocol role owns one.
type Engine struct {
	workers int

	u64 []uint64       // sign parity draws (shared rngJK)
	i64 []int64        // integer masks (shared rngJT)
	f64 []float64      // float masks (shared rngJT)
	sym []int          // alphanumeric mask prefix (shared rngJT)
	elm []modp.Element // field masks of the mod-p variant (shared rngJT)

	tpw   []*editdist.Scratch // per-worker edit-distance DP scratch
	pairs []alphaPair         // the block the third party is evaluating
}

// NewEngine returns an engine over the given worker count (<= 0 = all
// cores, matching ppclust.Options.Parallelism).
func NewEngine(workers int) *Engine {
	return &Engine{workers: parallel.Workers(workers)}
}

// Workers returns the resolved worker count.
func (e *Engine) Workers() int { return e.workers }

func (e *Engine) u64buf(n int) []uint64 {
	if cap(e.u64) < n {
		e.u64 = make([]uint64, n)
	}
	e.u64 = e.u64[:n]
	return e.u64
}

func (e *Engine) i64buf(n int) []int64 {
	if cap(e.i64) < n {
		e.i64 = make([]int64, n)
	}
	e.i64 = e.i64[:n]
	return e.i64
}

func (e *Engine) f64buf(n int) []float64 {
	if cap(e.f64) < n {
		e.f64 = make([]float64, n)
	}
	e.f64 = e.f64[:n]
	return e.f64
}

func (e *Engine) symbuf(n int) []int {
	if cap(e.sym) < n {
		e.sym = make([]int, n)
	}
	e.sym = e.sym[:n]
	return e.sym
}

func (e *Engine) elembuf(n int) []modp.Element {
	if cap(e.elm) < n {
		e.elm = make([]modp.Element, n)
	}
	e.elm = e.elm[:n]
	return e.elm
}

// tpScratch sizes the third party's per-worker edit-distance DP scratch,
// so the n²/2 DP calls per alphanumeric attribute stop allocating.
func (e *Engine) tpScratch() []*editdist.Scratch {
	for len(e.tpw) < e.workers {
		e.tpw = append(e.tpw, editdist.MustUnitScratch())
	}
	return e.tpw
}

// EnginePool hands out Engines with a shared worker setting so concurrent
// consumers — the third party's lane readers, each through one attribute
// at a time — each own an engine while they use it and return it when
// done. Buffers warmed by one attribute are reused by the next instead of
// being reallocated, and the pool never shrinks: steady state holds one
// engine per concurrently active consumer.
//
// A zero-size pool is not meaningful; construct with NewEnginePool. Get
// and Put are safe for concurrent use.
type EnginePool struct {
	workers int
	mu      sync.Mutex
	free    []*Engine
}

// NewEnginePool returns a pool of engines over the given worker count
// (<= 0 = all cores), created lazily on first Get.
func NewEnginePool(workers int) *EnginePool {
	return &EnginePool{workers: parallel.Workers(workers)}
}

// Workers returns the resolved per-engine worker count.
func (p *EnginePool) Workers() int { return p.workers }

// Get returns an idle engine, creating one if the pool is empty.
func (p *EnginePool) Get() *Engine {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return e
	}
	p.mu.Unlock()
	return NewEngine(p.workers)
}

// Put returns an engine obtained from Get. The caller must not use it
// afterwards.
func (p *EnginePool) Put(e *Engine) {
	if e == nil {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, e)
	p.mu.Unlock()
}
