package party

// shardCore is the third party's assembly pipeline over one set of
// per-holder lanes, detached from the ThirdParty session object so the same
// code runs wherever a row range is read:
//
//   - on the third party itself, over the control conduits (the one range of
//     a TPShards ≤ 1 session, plus the tag attributes of every session) and,
//     as the coordinator of a sharded one, over each shard's conduits, where
//     it installs local chunks and relays pair chunks;
//   - in a ppc-shard worker, which builds a core from the coordinator's
//     offer (census, range, per-pair mask seeds) and feeds it the relayed
//     pair chunks to evaluate.
//
// The core holds only what the math needs — the session agreement, the
// census, the compute budget and the per-(attribute, pair) mask-stream
// seeds — and never the channel masters, which stay on the coordinator.
// Because the lane frame counts, the chunk schedules and the keystream
// positioning are all pure functions of (Config, census, range), a core fed
// the same per-holder frame bytes produces bit-identical rows wherever it
// runs; that is the whole cross-deployment bit-identity argument.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

type shardCore struct {
	*census
	cfg     Config
	num     protocol.Numeric
	holders []string
	workers int
	engines *protocol.EnginePool
	// compute holds one token per unit of the Parallelism budget: a lane
	// reader holds one while it evaluates and installs a chunk or finishes
	// an attribute, never while it waits for a frame, so the session's
	// readers — one per holder lane — never compute wider than the budget
	// allows, and can never deadlock on it.
	compute chan struct{}
	// faults orders the failures its lane readers see, across every group.
	faults laneFaults
	// seeds[attr][p] and rowSeeds[attr][p] are the mask-stream seeds of pair
	// p's block (sortedPairs order): the one the initiator shares with the
	// third party, for the rows the responder produces, and the one the
	// responder shares with it, for the rows the initiator produces. The
	// coordinator derives them from the key agreement (ThirdParty.seedTables),
	// a worker reads them from its slice offer.
	seeds, rowSeeds [][]rng.Seed
}

func newShardCore(cfg Config, num protocol.Numeric, holders []string, counts []int, workers int, engines *protocol.EnginePool, seeds, rowSeeds [][]rng.Seed) *shardCore {
	return &shardCore{census: newCensus(counts), cfg: cfg, num: num, holders: holders, workers: workers, engines: engines,
		compute: make(chan struct{}, max(workers, 1)), seeds: seeds, rowSeeds: rowSeeds}
}

// partyRows is holder p's holder-local row range within global rows r —
// the rows of its triangle and, as a responder, of each of its pair blocks
// that a lane group over r carries (SliceAssembler.PartyRows, from the
// census alone).
func (c *shardCore) partyRows(r [2]int) func(p int) (int, int) {
	return func(p int) (int, int) { return shardRowsOf(r[0], r[1], c.offsets[p], c.counts[p]) }
}

// pairFrames is the number of pair-chunk frames holder hi sends toward the
// owner of global rows [r[0], r[1]): for every comparison attribute, the
// chunks of every pair-block share the holder produces (census.shares),
// restricted to the range — what a worker process is relayed of the
// holder's lane, and all it evaluates. Coordinator and worker derive the
// identical count from (Config, census, range) alone, so the worker knows
// the exact stream length before the first frame moves.
func (c *shardCore) pairFrames(hi int, r [2]int) int {
	frames := 0
	for _, a := range c.cfg.Schema.Attrs {
		if tagBased(a.Type) {
			continue
		}
		for _, sh := range c.shares(hi, a.Type, c.partyRows(r)) {
			frames += c.cfg.pairChunkCountRange(c.num, a.Type, sh.lo, sh.hi, c.counts[sh.j])
		}
	}
	return frames
}

// splitBlocks cuts every pair block of a comparison attribute's assembler
// at the pair's split row, so the two holders' shares of a block are
// sources of their own (SliceAssembler.SplitCross) and their lanes install
// them independently.
func (c *shardCore) splitBlocks(asm *dissim.SliceAssembler, attr int) error {
	t := c.cfg.Schema.Attrs[attr].Type
	for p, pr := range c.pairs {
		if err := asm.SplitCross(pr[0], pr[1], c.splitAt(t, p)); err != nil {
			return err
		}
	}
	return nil
}

// laneGroup is what one set of holder lanes carries — the control
// conduits, one shard's conduits, or a worker's relay pipes — and what it
// builds.
type laneGroup struct {
	name  string           // where the lanes lead, for their errors: "shard 1", "shard worker 1"; empty for the control lanes
	eps   []*wire.Endpoint // by holder
	rows  [2]int           // the global triangle rows the lanes carry
	attrs []int            // the attributes the lanes carry, in schema order
	// asms[attr] assembles comparison attribute attr's rows of the group's
	// range, its pair blocks already split (splitBlocks). A worker has none:
	// its lanes carry pair chunks alone.
	asms []*dissim.SliceAssembler
	// relay, when set, takes each pair chunk off holder hi's lane
	// unevaluated, once it is checked against its schedule: a shard lane's
	// coordinator sends it on to the shard's worker (remoteShard).
	relay func(hi int, m *wire.Message) error
	// install takes the rows of each pair chunk the group evaluates: into
	// asms on the control lanes, or on a worker back to the coordinator.
	install func(attr int, sh pairShare, lo, hi int, row protocol.RowFunc) error
	// tags[attr][hi] is holder hi's frame of tag attribute attr.
	tags [][]*wire.Message
	// finish, when set, completes attr once every lane has passed it.
	finish func(attr int) error
	// reqs, when set, receives each holder's clustering request: the frame
	// that ends a control lane.
	reqs []requestBody
}

// readLanes reads a lane group with one reader per holder lane. A reader
// walks its holder's send order — every attribute of the group in schema
// order (a comparison attribute's local chunks — none on a worker — then
// its pair-block shares in census.shares order; a tag attribute's one frame),
// then the request on a control lane — and installs, relays or evaluates
// and returns each frame as it reads it, so no lane ever waits for another
// and none is re-sorted. The last reader through an attribute finishes it,
// under a compute token like every chunk.
//
// The first error returns at once and ends ctx for the group's other
// readers: each checks it before every frame and again once it holds a
// compute token, so none evaluates a chunk after a failure. One parked in
// a receive is unparked by whoever owns the conduits — the guard's
// teardown on the third party, the close of the feed pipes on a worker.
// Every error names the group and the holder whose lane it came from, and
// a peer's abort yields to a failure another reader saw first (laneFaults).
func (c *shardCore) readLanes(ctx context.Context, g *laneGroup) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pending := make([]atomic.Int32, len(c.cfg.Schema.Attrs))
	for _, attr := range g.attrs {
		pending[attr].Store(int32(len(g.eps)))
	}
	errs := make(chan error, len(g.eps))
	for hi, ep := range g.eps {
		go func() {
			err := c.readLane(g, hi, lane{ctx: ctx, ep: ep}, pending)
			if err != nil {
				to := ""
				if g.name != "" {
					to = " to " + g.name
				}
				err = c.faults.note(fmt.Errorf("party: %s's lane%s: %w", c.holders[hi], to, err))
			}
			errs <- err
		}()
	}
	for range g.eps {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

// readLane is holder hi's reader of readLanes.
func (c *shardCore) readLane(g *laneGroup, hi int, ln lane, pending []atomic.Int32) error {
	for _, attr := range g.attrs {
		err := c.readAttr(g, hi, ln, attr)
		if err == nil && pending[attr].Add(-1) == 0 && g.finish != nil {
			err = c.computing(ln.ctx, func() error { return g.finish(attr) })
		}
		if err != nil {
			return fmt.Errorf("party: assembling attribute %q: %w", c.cfg.Schema.Attrs[attr].Name, err)
		}
	}
	if g.reqs == nil {
		return nil
	}
	_, err := ln.expect(kindRequest, &g.reqs[hi])
	return err
}

// readAttr reads holder hi's frames of one attribute off its lane.
func (c *shardCore) readAttr(g *laneGroup, hi int, ln lane, attr int) error {
	a := c.cfg.Schema.Attrs[attr]
	if tagBased(a.Type) {
		kind := kindCatTags
		if a.Type == dataset.Hierarchical {
			kind = kindPathTags
		}
		m, err := ln.expect(kind, nil)
		if err != nil {
			return err
		}
		if m.Attr != attr {
			return fmt.Errorf("party: %s sent tags for attr %d, want %d", c.holders[hi], m.Attr, attr)
		}
		g.tags[attr][hi] = m
		return nil
	}
	if g.asms != nil {
		if err := c.recvLocalRows(g.asms[attr], ln, hi, attr); err != nil {
			return err
		}
	}
	shares := c.shares(hi, a.Type, c.partyRows(g.rows))
	if g.relay != nil {
		for _, sh := range shares {
			if err := c.relayPairRows(g, ln, hi, attr, sh); err != nil {
				return err
			}
		}
		return nil
	}
	if len(shares) == 0 {
		return nil
	}
	eng := c.engines.Get()
	defer c.engines.Put(eng)
	for _, sh := range shares {
		if err := c.recvPairRows(eng, g.install, ln, attr, sh); err != nil {
			return err
		}
	}
	return nil
}

// laneFaults orders the failures a core's lane readers see. A holder
// whose lane fails at the third party's end sees it fail too, and aborts
// on its other lanes; that abort can reach another group's reader while
// the reader that saw the failure is still unwinding. The third party saw
// the failure first, so the abort — its echo — yields to it.
type laneFaults struct {
	mu    sync.Mutex
	first error // the first failure seen that was not an abort or the end of a reader's group
}

// note records err, a reader's failure, and returns the error the
// reader's group reports: err itself, unless err is a peer's abort that
// follows another failure, which it then reports in the abort's place.
func (f *laneFaults) note(err error) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case errors.As(err, new(*peerAbort)):
		return cmp.Or(f.first, err)
	case f.first == nil && !errors.Is(err, context.Canceled):
		f.first = err
	}
	return err
}

// lane is one holder's stream toward a lane group. It yields no frame once
// ctx ends, and computing evaluates none received before.
type lane struct {
	ctx context.Context
	ep  *wire.Endpoint
}

func (l lane) expect(kind wire.Kind, body any) (*wire.Message, error) {
	if l.ctx.Err() != nil {
		return nil, context.Cause(l.ctx)
	}
	m, err := l.ep.Recv()
	if err != nil {
		return nil, err
	}
	return m, expectBody(m, kind, body)
}

// computeActive counts the compute tokens evaluating right now across every
// session in the process — the gauge the multi-tenant server exports.
// Process-wide on purpose: it is a statement about the machine's compute
// in flight, not about one session.
var computeActive atomic.Int64

// ComputeActive reports how many compute tokens are held right now, summed
// over all concurrent third-party sessions and shard workers.
func ComputeActive() int64 { return computeActive.Load() }

// computing runs fn holding one of the session's compute tokens — unless
// ctx ended while it waited for one.
func (c *shardCore) computing(ctx context.Context, fn func() error) error {
	c.compute <- struct{}{}
	defer func() { <-c.compute }()
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	computeActive.Add(1)
	defer computeActive.Add(-1)
	return fn()
}

// recvLocalRows consumes one holder's local-matrix chunk stream for one
// attribute — the rows of its triangle asm covers, in the localChunksRange
// schedule — installing each row-range frame the moment it arrives, so
// triangle installation overlaps the rest of the attribute's traffic still
// on the wire. Chunks must follow the shared schedule exactly: holder and
// third party derive it from the same Config, so any deviation is a
// protocol error, rejected before install.
func (c *shardCore) recvLocalRows(asm *dissim.SliceAssembler, ln lane, hi int, attr int) error {
	h, n := c.holders[hi], c.counts[hi]
	llo, lhi := asm.PartyRows(hi)
	if llo >= lhi {
		return nil
	}
	for ci, ch := range c.cfg.localChunksRange(llo, lhi) {
		var body localBody
		m, err := ln.expect(kindLocal, &body)
		if err != nil {
			return err
		}
		if m.Attr != attr {
			return fmt.Errorf("party: %s sent local matrix for attr %d, want %d", h, m.Attr, attr)
		}
		if body.N != n {
			return fmt.Errorf("party: %s local matrix has %d objects, census says %d", h, body.N, n)
		}
		if body.Lo != ch[0] || body.Hi != ch[1] {
			return fmt.Errorf("party: %s local chunk %d covers rows [%d,%d), schedule says [%d,%d)",
				h, ci, body.Lo, body.Hi, ch[0], ch[1])
		}
		if err := c.computing(ln.ctx, func() error { return asm.SetLocalRowsLE(hi, body.Lo, body.Hi, body.wire) }); err != nil {
			return err
		}
		ln.ep.Release(m)
	}
	return nil
}

// checkPairChunk validates one received S/M chunk frame against the
// shared pairChunksRange schedule. Sender and third party derive the
// schedule from the same Config and census, so a frame that claims a
// different row count or covers a different range — duplicated,
// out-of-order or misdrawn chunks, or rows of the other holder's share — is
// a protocol error, reported descriptively rather than installed.
func checkPairChunk(from, j, k string, ci int, sched [2]int, bodyRows, lo, hi, rows int) error {
	if bodyRows != rows {
		return fmt.Errorf("party: %s S/M payload for pair (%s,%s) claims %d rows, census says %d", from, j, k, bodyRows, rows)
	}
	if lo != sched[0] || hi != sched[1] {
		return fmt.Errorf("party: %s pair (%s,%s) chunk %d covers rows [%d,%d), schedule says [%d,%d)",
			from, j, k, ci, lo, hi, sched[0], sched[1])
	}
	return nil
}

// recvPairRows consumes the chunk frames of one share of one (attribute,
// pair) block from the holder that produces it, evaluating each chunk the
// moment it arrives (the protocol engine's chunk methods, sharing one
// mask stream per share so batched keystreams stay aligned — positioned
// first for a share that starts past its stream's first row) and handing
// its rows to install — the assembler's SetCrossRowsInto, or a worker's
// return frame — so unmasking and placement of a block overlap the rest of
// the payload still on the wire. A numeric chunk is unmasked from the
// payload's cells straight into the installed rows.
func (c *shardCore) recvPairRows(eng *protocol.Engine, install func(attr int, sh pairShare, lo, hi int, row protocol.RowFunc) error, ln lane, attr int, sh pairShare) error {
	a := c.cfg.Schema.Attrs[attr]
	j, k, from := c.holders[sh.j], c.holders[sh.k], c.holders[sh.sender()]
	rows, cols := c.counts[sh.k], c.counts[sh.j]
	// The responder's rows are masked by the initiator's stream from row 0,
	// the initiator's rows by the responder's from the split row on.
	seed, axis, first := c.seeds[attr][sh.p], protocol.InitiatorCols, 0
	if sh.byInitiator {
		seed, axis, first = c.rowSeeds[attr][sh.p], protocol.InitiatorRows, c.splitAt(a.Type, sh.p)
	}
	jt := rng.New(c.cfg.RNG, seed)
	// A stream read on from chunk to chunk (per-pair masks; the
	// initiator's rows in either mode) is positioned at the share's first
	// row by drawing and discarding the earlier rows' masks, so its first
	// chunk evaluates at the exact keystream position a whole-block pass
	// would use. Streams rewound per chunk (batch and alphanumeric
	// evaluation on the responder's rows) need no positioning: Advance
	// no-ops, as it does at the stream's first row.
	if a.Type != dataset.Alphanumeric {
		c.num.Advance(eng, jt, sh.lo-first, cols, axis)
	}
	for ci, ch := range c.cfg.pairChunksRange(c.num, a.Type, sh.lo, sh.hi, cols) {
		var m *wire.Message
		var eval func() (protocol.RowFunc, int, int, error)
		if a.Type == dataset.Alphanumeric {
			var body alphaMBody
			var err error
			m, err = ln.expect(kindAlphaM, &body)
			if err != nil {
				return fmt.Errorf("party: %s pair (%s,%s) chunk %d: %w", from, j, k, ci, err)
			}
			if m.Attr != attr {
				return fmt.Errorf("party: %s pair (%s,%s) chunk %d is for attr %d, want %d", from, j, k, ci, m.Attr, attr)
			}
			if err := checkPairChunk(from, j, k, ci, ch, body.Rows, body.Lo, body.Hi, rows); err != nil {
				return err
			}
			eval = func() (protocol.RowFunc, int, int, error) {
				dists, err := eng.AlphaThirdPartyChunk(&body.M, body.Lo, body.Hi, a.Alphabet, jt)
				if err != nil {
					return nil, 0, 0, err
				}
				return func(r int, dst []float64) error {
					for n, d := range dists.Cell[r*dists.Cols : (r+1)*dists.Cols] {
						dst[n] = float64(d)
					}
					return nil
				}, dists.Rows, dists.Cols, nil
			}
		} else {
			var body numSBody
			var err error
			m, err = ln.expect(kindNumS, &body)
			if err != nil {
				return fmt.Errorf("party: %s pair (%s,%s) chunk %d: %w", from, j, k, ci, err)
			}
			if m.Attr != attr {
				return fmt.Errorf("party: %s pair (%s,%s) chunk %d is for attr %d, want %d", from, j, k, ci, m.Attr, attr)
			}
			if err := checkPairChunk(from, j, k, ci, ch, body.Rows, body.Lo, body.Hi, rows); err != nil {
				return err
			}
			eval = func() (protocol.RowFunc, int, int, error) {
				row, err := c.num.Strip(eng, body.cells, ch[0], ch[1], jt, axis)
				return row, body.cells.Rows, body.cells.Cols, err
			}
		}
		err := c.computing(ln.ctx, func() error {
			row, bRows, bCols, err := eval()
			if err != nil {
				return err
			}
			if bRows > 0 && bCols != cols {
				return fmt.Errorf("party: block (%s,%s) rows [%d,%d) have %d columns, census says %d",
					j, k, ch[0], ch[1], bCols, cols)
			}
			return install(attr, sh, ch[0], ch[1], row)
		})
		if err != nil {
			return err
		}
		ln.ep.Release(m)
	}
	return nil
}

// relayPairRows passes the chunk frames of one share of one (attribute,
// pair) block from holder hi's lane on unevaluated — the coordinator of a
// worker shard, which leaves the unmasking to the worker — each checked
// first against the share's pairChunksRange schedule from its header
// alone, so a worker is relayed only what the schedule allows. The frame
// goes back to the pool once the relay has re-sealed it.
func (c *shardCore) relayPairRows(g *laneGroup, ln lane, hi, attr int, sh pairShare) error {
	a := c.cfg.Schema.Attrs[attr]
	j, k, from := c.holders[sh.j], c.holders[sh.k], c.holders[sh.sender()]
	kind := kindNumS
	if a.Type == dataset.Alphanumeric {
		kind = kindAlphaM
	}
	for ci, ch := range c.cfg.pairChunksRange(c.num, a.Type, sh.lo, sh.hi, c.counts[sh.j]) {
		m, err := ln.expect(kind, nil)
		if err != nil {
			return fmt.Errorf("party: %s pair (%s,%s) chunk %d: %w", from, j, k, ci, err)
		}
		if m.Attr != attr {
			return fmt.Errorf("party: %s pair (%s,%s) chunk %d is for attr %d, want %d", from, j, k, ci, m.Attr, attr)
		}
		// Both chunk bodies open with Rows Lo Hi; the worker decodes the rest.
		r := bodyReader{p: m.Payload}
		rows, lo, up := r.int(), r.int(), r.int()
		if r.err != nil {
			return fmt.Errorf("party: %s pair (%s,%s) chunk %d: %w: %w", from, j, k, ci, wire.ErrMalformed, r.err)
		}
		if err := checkPairChunk(from, j, k, ci, ch, rows, lo, up, c.counts[sh.k]); err != nil {
			return err
		}
		if err := g.relay(hi, m); err != nil {
			return err
		}
		ln.ep.Release(m)
	}
	return nil
}
