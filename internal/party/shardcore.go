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
	cfg     Config
	holders []string
	counts  []int
	offsets []int // global row offset of each holder's first object
	total   int
	workers int
	engines *protocol.EnginePool
	// seed yields the shared mask-stream seed of (attr, pair (j, k)) — the
	// coordinator derives it from the key agreement (ThirdParty.seedJT), a
	// worker looks it up in the slice offer.
	seed  func(attr int, j, k string) rng.Seed
	seeds [][]rng.Seed // pairSeeds' table; the coordinator's offers only
}

func newShardCore(cfg Config, holders []string, counts []int, workers int, engines *protocol.EnginePool, seed func(attr int, j, k string) rng.Seed) *shardCore {
	c := &shardCore{cfg: cfg, holders: holders, counts: counts, offsets: make([]int, len(counts)),
		workers: workers, engines: engines, seed: seed}
	for i, n := range counts {
		c.offsets[i] = c.total
		c.total += n
	}
	return c
}

// stageWidthFor resolves a stage-pool size: at most pipelineDepth, never
// more than there are attributes, and never more than the Parallelism
// worker budget — a party pinned to Parallelism 1 runs its assembly compute
// serially (readers still prefetch the wire), and higher budgets never
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
// chunks of the holder-local row intersection plus the S/M chunks of every
// pair the holder responds in, restricted the same way. Every party — the
// holder, the third party's demuxes, the coordinator's relay pumps and a
// worker process's own demux — derives the identical vector from (Config,
// census, range) alone, so the exact stream length is known before the
// first frame moves. A holder with no rows in the range has an all-zero
// vector and sends nothing there.
func (c *shardCore) laneQuotas(hi int, r [2]int) []int {
	attrs := c.cfg.Schema.Attrs
	quotas := make([]int, len(attrs))
	llo, lhi := shardRowsOf(r[0], r[1], c.offsets[hi], c.counts[hi])
	if llo >= lhi {
		return quotas
	}
	for attr, a := range attrs {
		if tagBased(a.Type) {
			continue
		}
		quotas[attr] = len(c.cfg.localChunksRange(llo, lhi))
		for j := 0; j < hi; j++ {
			quotas[attr] += c.cfg.pairChunkCountRange(a.Type, llo, lhi, c.counts[j])
		}
	}
	return quotas
}

// runStages is the session's one stage pool: stageWidthFor goroutines pull
// attrs in order through stage, each with a private engine from the pool,
// so attribute i is being decoded and assembled while attribute i+1 is
// still streaming in. Every lane group of a session runs one — the control
// group and each in-process shard on the third party, the single range of
// a worker process. A stage error goes to fail, which the caller wires to
// stop every demux of the session so sibling stages and groups unwind too,
// and ends the goroutine that hit it.
func (c *shardCore) runStages(attrs []int, stage func(eng *protocol.Engine, attr int) error, fail func(error)) {
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
			eng := c.engines.Get()
			defer c.engines.Put(eng)
			for attr := range attrCh {
				if err := stage(eng, attr); err != nil {
					fail(fmt.Errorf("party: assembling attribute %q: %w", c.cfg.Schema.Attrs[attr].Name, err))
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
// rows asm covers and installs it: each intersecting holder's local chunk
// frames, then each pair's S/M chunk frames over the responder-row
// intersection, pulled from src in the fixed order every holder sends in.
// The caller completes asm — as the whole matrix when the
// range is the whole triangle, as a slice otherwise.
func (c *shardCore) assembleRows(eng *protocol.Engine, asm *dissim.SliceAssembler, src attrSource, attr int) error {
	a := c.cfg.Schema.Attrs[attr]
	for hi, h := range c.holders {
		llo, lhi := asm.PartyRows(hi)
		if llo >= lhi {
			continue
		}
		if err := c.recvLocalRows(asm, src, hi, h, attr, c.cfg.localChunksRange(llo, lhi)); err != nil {
			return err
		}
	}
	for _, pair := range sortedPairs(c.holders) {
		ji, ki := pair[0], pair[1]
		rlo, rhi := asm.PartyRows(ki)
		if rlo >= rhi {
			continue
		}
		j, k := c.holders[ji], c.holders[ki]
		cols := c.counts[ji]
		jt := rng.New(c.cfg.RNG, c.seed(attr, j, k))
		// Per-pair masking consumes the keystream row-major with no
		// re-initialization, so a range that starts mid-block first draws
		// and discards the earlier rows' masks — its first chunk then
		// evaluates at the exact keystream position a whole-block pass
		// would use. Batch and alphanumeric evaluation rewind per chunk and
		// need no positioning (the Advance calls no-op, as they do at row 0).
		if a.Type != dataset.Alphanumeric {
			switch c.cfg.Variant {
			case Float64Variant:
				eng.AdvanceThirdPartyFloat(jt, rlo, cols, protocol.DefaultFloatParams, c.cfg.Mode)
			case Int64Variant:
				eng.AdvanceThirdPartyInt(jt, rlo, cols, protocol.DefaultIntParams, c.cfg.Mode)
			case ModPVariant:
				eng.AdvanceThirdPartyModP(jt, rlo, cols, c.cfg.Mode)
			}
		}
		chunks := c.cfg.pairChunksRange(a.Type, rlo, rhi, cols)
		if err := c.recvPairRows(eng, asm, src, attr, ji, ki, jt, chunks); err != nil {
			return err
		}
	}
	return nil
}

// recvLocalRows consumes one holder's local-matrix chunk stream for one
// attribute in the given schedule, installing each row-range frame the
// moment it arrives, so triangle installation overlaps the rest of the
// attribute's traffic still on the wire. Chunks must follow the shared
// schedule exactly: holder and third party derive it from the same Config,
// so any deviation is a protocol error, rejected before install.
func (c *shardCore) recvLocalRows(asm *dissim.SliceAssembler, src attrSource, hi int, h string, attr int, chunks [][2]int) error {
	n := c.counts[hi]
	for ci, ch := range chunks {
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
		if err := asm.SetLocalRowsLE(hi, body.Lo, body.Hi, body.wire); err != nil {
			return err
		}
	}
	return nil
}

// checkPairChunk validates one received S/M chunk frame against the
// shared pairChunksRange schedule. Responder and third party derive the
// schedule from the same Config and census, so a frame that claims a
// different row count or covers a different range — duplicated,
// out-of-order or misdrawn chunks — is a protocol error, reported
// descriptively rather than installed.
func checkPairChunk(j, k string, ci int, sched [2]int, bodyRows, lo, hi, rows int) error {
	if bodyRows != rows {
		return fmt.Errorf("party: %s S/M payload for pair (%s,%s) claims %d rows, census says %d", k, j, k, bodyRows, rows)
	}
	if lo != sched[0] || hi != sched[1] {
		return fmt.Errorf("party: %s pair (%s,%s) chunk %d covers rows [%d,%d), schedule says [%d,%d)",
			k, j, k, ci, lo, hi, sched[0], sched[1])
	}
	return nil
}

// recvPairRows consumes the responder→TP S/M chunk frames of one
// (attribute, pair) covering the scheduled responder row ranges,
// evaluating each chunk the moment it arrives (the protocol engine's chunk
// methods, sharing one jt stream per pair so batched keystreams stay
// aligned — the caller positions jt for a range that starts mid-block) and
// installing it row-exactly, so unmasking and placement of a pair's block
// overlap the rest of the payload still on the wire. A numeric chunk is
// unmasked from the payload's cells straight into the assembled rows.
func (c *shardCore) recvPairRows(eng *protocol.Engine, asm *dissim.SliceAssembler, src attrSource, attr, ji, ki int, jt rng.Stream, chunks [][2]int) error {
	a := c.cfg.Schema.Attrs[attr]
	j, k := c.holders[ji], c.holders[ki]
	rows, cols := c.counts[ki], c.counts[ji]
	variant := [...]byte{Float64Variant: numFloat, Int64Variant: numInt, ModPVariant: numModP}[c.cfg.Variant]
	for ci, ch := range chunks {
		var row protocol.RowFunc
		var bRows, bCols int
		if a.Type == dataset.Alphanumeric {
			var body alphaMBody
			if _, err := src.expect(ki, kindAlphaM, &body); err != nil {
				return err
			}
			if err := checkPairChunk(j, k, ci, ch, body.Rows, body.Lo, body.Hi, rows); err != nil {
				return err
			}
			dists, err := eng.AlphaThirdPartyChunk(&body.M, body.Lo, body.Hi, a.Alphabet, jt)
			if err != nil {
				return err
			}
			bRows, bCols = dists.Rows, dists.Cols
			row = func(r int, dst []float64) error {
				for n, d := range dists.Cell[r*dists.Cols : (r+1)*dists.Cols] {
					dst[n] = float64(d)
				}
				return nil
			}
		} else {
			var body numSBody
			if _, err := src.expect(ki, kindNumS, &body); err != nil {
				return err
			}
			if err := checkPairChunk(j, k, ci, ch, body.Rows, body.Lo, body.Hi, rows); err != nil {
				return err
			}
			if body.variant != variant {
				return fmt.Errorf("party: missing %s payload from %s", c.cfg.Variant, k)
			}
			var err error
			switch c.cfg.Variant {
			case Float64Variant:
				row, err = eng.NumericThirdPartyFloatChunk(body.wire, ch[0], ch[1], jt, protocol.DefaultFloatParams, c.cfg.Mode)
			case Int64Variant:
				row, err = eng.NumericThirdPartyIntChunk(body.wire, ch[0], ch[1], jt, protocol.DefaultIntParams, c.cfg.Mode)
			case ModPVariant:
				row, err = eng.NumericThirdPartyModPChunk(body.wire, ch[0], ch[1], jt, c.cfg.Mode)
			}
			if err != nil {
				return err
			}
			bRows, bCols = body.wire.Rows, body.wire.Cols
		}
		if bRows > 0 && bCols != cols {
			return fmt.Errorf("party: block (%s,%s) rows [%d,%d) have %d columns, census says %d",
				j, k, ch[0], ch[1], bCols, cols)
		}
		if err := asm.SetCrossRowsInto(ji, ki, ch[0], ch[1], row); err != nil {
			return err
		}
	}
	return nil
}
