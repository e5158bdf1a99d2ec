package party

// shardCore is the third party's assembly pipeline over one set of
// per-holder lanes, detached from the ThirdParty session object so the same
// code runs wherever a row range is assembled:
//
//   - on the third party itself, over the control conduits (the one range of
//     a TPShards ≤ 1 session, plus the tag attributes of every session) and
//     over the shard conduits of in-process shards;
//   - in a ppc-shard worker, which builds a core from the coordinator's
//     slice offer (census, range, per-pair mask seeds) and feeds it the
//     relayed holder frames.
//
// The core holds only what the math needs — the session agreement, the
// census, the compute budget and the per-(attribute, pair) mask-stream
// seeds — and never the channel masters, which stay on the coordinator.
// Because the lane frame counts, the chunk schedules and the keystream
// positioning are all pure functions of (Config, census, range), a core fed
// the same per-holder frame bytes produces bit-identical rows wherever it
// runs; that is the whole cross-deployment bit-identity argument.

import (
	"context"
	"fmt"
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
	holders []string
	workers int
	engines *protocol.EnginePool
	// compute holds one token per unit of the Parallelism budget: a lane
	// reader holds one while it evaluates and installs a chunk or finishes
	// an attribute, never while it waits for a frame, so the session's
	// readers — one per holder lane — never compute wider than the budget
	// allows, and can never deadlock on it.
	compute chan struct{}
	// seeds[attr][p] and rowSeeds[attr][p] are the mask-stream seeds of pair
	// p's block (sortedPairs order): the one the initiator shares with the
	// third party, for the rows the responder produces, and the one the
	// responder shares with it, for the rows the initiator produces. The
	// coordinator derives them from the key agreement (ThirdParty.seedTables),
	// a worker reads them from its slice offer.
	seeds, rowSeeds [][]rng.Seed
}

func newShardCore(cfg Config, holders []string, counts []int, workers int, engines *protocol.EnginePool, seeds, rowSeeds [][]rng.Seed) *shardCore {
	return &shardCore{census: newCensus(counts), cfg: cfg, holders: holders, workers: workers, engines: engines,
		compute: make(chan struct{}, max(workers, 1)), seeds: seeds, rowSeeds: rowSeeds}
}

// laneFrames is the number of comparison frames holder hi sends toward
// the owner of global rows [r[0], r[1]): for every comparison attribute,
// the local-matrix chunks of the holder-local row intersection plus the
// chunks of every pair-block share the holder produces (census.shares),
// restricted the same way. Every party — the holder, the coordinator's
// relay pumps and a worker process's relay bound — derives the identical
// count from (Config, census, range) alone, so the exact stream length is
// known before the first frame moves. A holder with no rows to send toward
// the range sends nothing there.
func (c *shardCore) laneFrames(hi int, r [2]int) int {
	frames := 0
	rows := func(p int) (int, int) { return shardRowsOf(r[0], r[1], c.offsets[p], c.counts[p]) }
	for _, a := range c.cfg.Schema.Attrs {
		if tagBased(a.Type) {
			continue
		}
		if llo, lhi := rows(hi); llo < lhi {
			frames += len(c.cfg.localChunksRange(llo, lhi))
		}
		for _, sh := range c.shares(hi, a.Type, rows) {
			frames += c.cfg.pairChunkCountRange(a.Type, sh.lo, sh.hi, c.counts[sh.j])
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
	eps   []*wire.Endpoint // by holder
	attrs []int            // the attributes the lanes carry, in schema order
	// asms[attr] assembles comparison attribute attr's rows of the group's
	// range, its pair blocks already split (splitBlocks).
	asms []*dissim.SliceAssembler
	// tags[attr][hi] is holder hi's frame of tag attribute attr.
	tags [][]*wire.Message
	// finish completes attr once every lane has passed it.
	finish func(attr int) error
	// reqs, when set, receives each holder's clustering request: the frame
	// that ends a control lane.
	reqs []requestBody
}

// readLanes reads a lane group with one reader per holder lane. A reader
// walks its holder's send order — every attribute of the group in schema
// order (a comparison attribute's local chunks, then its pair-block shares
// in census.shares order; a tag attribute's one frame), then the request
// on a control lane — and installs each frame as it reads it, so no lane
// ever waits for another and none is re-sorted. The last reader through an
// attribute finishes it, under a compute token like every chunk.
//
// The first error returns at once and ends ctx for the group's other
// readers: each checks it before every frame and again once it holds a
// compute token, so none evaluates a chunk after a failure. One parked in
// a receive is unparked by whoever owns the conduits — the guard's
// teardown on the third party, the close of the feed pipes on a worker.
func (c *shardCore) readLanes(ctx context.Context, g *laneGroup) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pending := make([]atomic.Int32, len(c.cfg.Schema.Attrs))
	for _, attr := range g.attrs {
		pending[attr].Store(int32(len(g.eps)))
	}
	errs := make(chan error, len(g.eps))
	for hi, ep := range g.eps {
		go func() { errs <- c.readLane(g, hi, lane{ctx: ctx, ep: ep}, pending) }()
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
		if err == nil && pending[attr].Add(-1) == 0 {
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
	asm := g.asms[attr]
	if err := c.recvLocalRows(asm, ln, hi, attr); err != nil {
		return err
	}
	shares := c.shares(hi, a.Type, asm.PartyRows)
	if len(shares) == 0 {
		return nil
	}
	eng := c.engines.Get()
	defer c.engines.Put(eng)
	for _, sh := range shares {
		if err := c.recvPairRows(eng, asm, ln, attr, sh); err != nil {
			return err
		}
	}
	return nil
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
// first for a share that starts past its stream's first row) and
// installing it row-exactly, so unmasking and placement of a block overlap
// the rest of the payload still on the wire. A numeric chunk is unmasked
// from the payload's cells straight into the assembled rows.
func (c *shardCore) recvPairRows(eng *protocol.Engine, asm *dissim.SliceAssembler, ln lane, attr int, sh pairShare) error {
	a := c.cfg.Schema.Attrs[attr]
	j, k, from := c.holders[sh.j], c.holders[sh.k], c.holders[sh.sender()]
	rows, cols := c.counts[sh.k], c.counts[sh.j]
	variant := [...]byte{Float64Variant: numFloat, Int64Variant: numInt, ModPVariant: numModP}[c.cfg.Variant]
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
	// evaluation on the responder's rows) need no positioning: the Advance
	// calls no-op, as they do at the stream's first row.
	if a.Type != dataset.Alphanumeric {
		switch c.cfg.Variant {
		case Float64Variant:
			eng.AdvanceThirdPartyFloat(jt, sh.lo-first, cols, protocol.DefaultFloatParams, c.cfg.Mode, axis)
		case Int64Variant:
			eng.AdvanceThirdPartyInt(jt, sh.lo-first, cols, protocol.DefaultIntParams, c.cfg.Mode, axis)
		case ModPVariant:
			eng.AdvanceThirdPartyModP(jt, sh.lo-first, cols, c.cfg.Mode, axis)
		}
	}
	for ci, ch := range c.cfg.pairChunksRange(a.Type, sh.lo, sh.hi, cols) {
		var eval func() (protocol.RowFunc, int, int, error)
		if a.Type == dataset.Alphanumeric {
			var body alphaMBody
			m, err := ln.expect(kindAlphaM, &body)
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
			m, err := ln.expect(kindNumS, &body)
			if err != nil {
				return fmt.Errorf("party: %s pair (%s,%s) chunk %d: %w", from, j, k, ci, err)
			}
			if m.Attr != attr {
				return fmt.Errorf("party: %s pair (%s,%s) chunk %d is for attr %d, want %d", from, j, k, ci, m.Attr, attr)
			}
			if err := checkPairChunk(from, j, k, ci, ch, body.Rows, body.Lo, body.Hi, rows); err != nil {
				return err
			}
			if body.variant != variant {
				return fmt.Errorf("party: missing %s payload from %s", c.cfg.Variant, from)
			}
			eval = func() (row protocol.RowFunc, _ int, _ int, err error) {
				switch c.cfg.Variant {
				case Float64Variant:
					row, err = eng.NumericThirdPartyFloatChunk(body.wire, ch[0], ch[1], jt, protocol.DefaultFloatParams, c.cfg.Mode, axis)
				case Int64Variant:
					row, err = eng.NumericThirdPartyIntChunk(body.wire, ch[0], ch[1], jt, protocol.DefaultIntParams, c.cfg.Mode, axis)
				case ModPVariant:
					row, err = eng.NumericThirdPartyModPChunk(body.wire, ch[0], ch[1], jt, c.cfg.Mode, axis)
				}
				return row, body.wire.Rows, body.wire.Cols, err
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
			return asm.SetCrossRowsInto(sh.j, sh.k, ch[0], ch[1], row)
		})
		if err != nil {
			return err
		}
	}
	return nil
}
