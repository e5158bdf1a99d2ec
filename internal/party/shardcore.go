package party

// shardCore is the third party's assembly pipeline over one set of
// per-holder demuxes, detached from the ThirdParty session object so the
// same code runs wherever a row range is assembled:
//
//   - on the third party itself, over the control demuxes (the one range of
//     a TPShards ≤ 1 session, plus the tag attributes of every session) and
//     over the shard-lane demuxes of in-process shards;
//   - in a ppc-shard worker, which builds a core from the coordinator's
//     slice offer (census, range, per-pair mask seeds) and feeds it the
//     relayed holder frames.
//
// The core holds only what the math needs — the session agreement, the
// census, the compute budget and the per-(attribute, pair) mask-stream
// seeds — and never the channel masters, which stay on the coordinator.
// Because the demux lane quotas, the chunk schedules and the keystream
// positioning are all pure functions of (Config, census, range), a core fed
// the same per-holder frame bytes produces bit-identical rows wherever it
// runs; that is the whole cross-deployment bit-identity argument.

import (
	"fmt"
	"sync"

	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// attrSource feeds one attribute's assembly the protocol messages of that
// attribute, per holder, in the holder's send order.
type attrSource interface {
	expect(hi int, kind wire.Kind, body any) (*wire.Message, error)
}

// demuxSource pulls a fixed attribute lane out of each holder's session
// demultiplexer.
type demuxSource struct {
	ds   []*wire.Demux
	lane int
}

func (s demuxSource) expect(hi int, kind wire.Kind, body any) (*wire.Message, error) {
	return s.ds[hi].Expect(s.lane, kind, body)
}

type shardCore struct {
	*census
	cfg     Config
	holders []string
	workers int
	engines *protocol.EnginePool
	// compute holds one token per unit of the Parallelism budget: a lane
	// consumer holds one while it evaluates and installs a chunk, never
	// while it waits for one, so the session's consumers — one per holder
	// lane of every attribute in flight — never compute wider than the
	// budget allows, and can never deadlock on it.
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

// stageWidthFor resolves a stage-pool size: at most pipelineDepth, never
// more than there are attributes, and never more than the Parallelism
// worker budget — a party pinned to Parallelism 1 runs one attribute at a
// time (readers still prefetch the wire), and higher budgets never
// multiply total compute goroutines by the full depth on small machines.
func stageWidthFor(nAttr, workers int) int {
	width := pipelineDepth
	if width > nAttr {
		width = nAttr
	}
	if width > workers {
		width = workers
	}
	if width < 1 {
		width = 1
	}
	return width
}

// laneQuotas is the per-attribute frame quota of holder hi's comparison
// stream toward the owner of global rows [r[0], r[1]): the local-matrix
// chunks of the holder-local row intersection plus the chunks of every
// pair-block share the holder produces (census.shares), restricted the
// same way. Every party — the holder, the third party's demuxes, the
// coordinator's relay pumps and a worker process's own demux — derives the
// identical vector from (Config, census, range) alone, so the exact stream
// length is known before the first frame moves. A holder with no rows to
// send toward the range has an all-zero vector and sends nothing there.
func (c *shardCore) laneQuotas(hi int, r [2]int) []int {
	attrs := c.cfg.Schema.Attrs
	quotas := make([]int, len(attrs))
	rows := func(p int) (int, int) { return shardRowsOf(r[0], r[1], c.offsets[p], c.counts[p]) }
	for attr, a := range attrs {
		if tagBased(a.Type) {
			continue
		}
		if llo, lhi := rows(hi); llo < lhi {
			quotas[attr] = len(c.cfg.localChunksRange(llo, lhi))
		}
		for _, sh := range c.shares(hi, a.Type, rows) {
			quotas[attr] += c.cfg.pairChunkCountRange(a.Type, sh.lo, sh.hi, c.counts[sh.j])
		}
	}
	return quotas
}

// runStages is the session's one stage pool: stageWidthFor goroutines pull
// attrs in order through stage, so attribute i is being decoded and
// assembled while attribute i+1 is still streaming in. Every lane group of
// a session runs one — the control group and each in-process shard on the
// third party, the single range of a worker process. A stage error goes to
// fail, which the caller wires to stop every demux of the session so
// sibling stages and groups unwind too, and ends the goroutine that hit it;
// a stage whose own goroutines fail reports through the fail it is handed,
// at once, with the same attribution.
func (c *shardCore) runStages(attrs []int, stage func(attr int, fail func(error)) error, fail func(error)) {
	attrCh := make(chan int, len(attrs))
	for _, attr := range attrs {
		attrCh <- attr
	}
	close(attrCh)
	var wg sync.WaitGroup
	for w, width := 0, stageWidthFor(len(attrs), c.workers); w < width && len(attrs) > 0; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			activeStages.Add(1)
			defer activeStages.Add(-1)
			for attr := range attrCh {
				failAttr := func(err error) {
					fail(fmt.Errorf("party: assembling attribute %q: %w", c.cfg.Schema.Attrs[attr].Name, err))
				}
				if err := stage(attr, failAttr); err != nil {
					failAttr(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// comparisonAttrs lists the schema's numeric, ordered and alphanumeric
// attributes — the ones assembled from local triangles and pair blocks.
func (c *shardCore) comparisonAttrs() []int {
	var comp []int
	for attr, a := range c.cfg.Schema.Attrs {
		if !tagBased(a.Type) {
			comp = append(comp, attr)
		}
	}
	return comp
}

// assembleRows receives one comparison attribute's traffic for the global
// rows asm covers and installs it. Every holder lane is read as its frames
// arrive, by a consumer of its own: the holder's local chunk frames, then
// the chunk frames of its pair-block shares, in the order the holder sends
// them. The consumers install disjoint rows — each share of a block is a
// source of its own (SliceAssembler.SplitCross) — so none waits for
// another, and a holder whose frames the third party is not yet reading
// never stalls behind one whose frames it is. A consumer that fails
// reports through fail at once, which stops the session's demuxes and so
// unblocks its siblings. The caller completes asm — as the whole matrix when
// the range is the whole triangle, as a slice otherwise.
func (c *shardCore) assembleRows(asm *dissim.SliceAssembler, src attrSource, attr int, fail func(error)) error {
	t := c.cfg.Schema.Attrs[attr].Type
	for p, pr := range c.pairs {
		if err := asm.SplitCross(pr[0], pr[1], c.splitAt(t, p)); err != nil {
			return err
		}
	}
	errs := make([]error, len(c.holders))
	consume := func(hi int, shares []pairShare) {
		eng := c.engines.Get()
		defer c.engines.Put(eng)
		err := c.recvLocalRows(asm, src, hi, attr)
		for _, sh := range shares {
			if err != nil {
				break
			}
			err = c.recvPairRows(eng, asm, src, attr, sh)
		}
		if err != nil {
			errs[hi] = err
			fail(err)
		}
	}
	type lane struct {
		hi     int
		shares []pairShare
	}
	var lanes []lane
	for hi := range c.holders {
		llo, lhi := asm.PartyRows(hi)
		if shares := c.shares(hi, t, asm.PartyRows); llo < lhi || len(shares) > 0 {
			lanes = append(lanes, lane{hi, shares})
		}
	}
	// The stage's own goroutine consumes the first lane with traffic.
	var wg sync.WaitGroup
	for _, ln := range lanes[min(1, len(lanes)):] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			consume(ln.hi, ln.shares)
		}()
	}
	if len(lanes) > 0 {
		consume(lanes[0].hi, lanes[0].shares)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// computing runs fn holding one of the session's compute tokens.
func (c *shardCore) computing(fn func() error) error {
	c.compute <- struct{}{}
	defer func() { <-c.compute }()
	return fn()
}

// recvLocalRows consumes one holder's local-matrix chunk stream for one
// attribute — the rows of its triangle asm covers, in the localChunksRange
// schedule — installing each row-range frame the moment it arrives, so
// triangle installation overlaps the rest of the attribute's traffic still
// on the wire. Chunks must follow the shared schedule exactly: holder and
// third party derive it from the same Config, so any deviation is a
// protocol error, rejected before install.
func (c *shardCore) recvLocalRows(asm *dissim.SliceAssembler, src attrSource, hi int, attr int) error {
	h, n := c.holders[hi], c.counts[hi]
	llo, lhi := asm.PartyRows(hi)
	if llo >= lhi {
		return nil
	}
	for ci, ch := range c.cfg.localChunksRange(llo, lhi) {
		var body localBody
		m, err := src.expect(hi, kindLocal, &body)
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
		if err := c.computing(func() error { return asm.SetLocalRowsLE(hi, body.Lo, body.Hi, body.wire) }); err != nil {
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
func (c *shardCore) recvPairRows(eng *protocol.Engine, asm *dissim.SliceAssembler, src attrSource, attr int, sh pairShare) error {
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
			if _, err := src.expect(sh.sender(), kindAlphaM, &body); err != nil {
				return fmt.Errorf("party: %s pair (%s,%s) chunk %d: %w", from, j, k, ci, err)
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
			if _, err := src.expect(sh.sender(), kindNumS, &body); err != nil {
				return fmt.Errorf("party: %s pair (%s,%s) chunk %d: %w", from, j, k, ci, err)
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
		err := c.computing(func() error {
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
