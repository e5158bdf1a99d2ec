package party

// The phase-serial reference engine — formerly Config.SerialTP, now the
// in-package oracle every differential test pins the session pipeline
// against. It shares the wire and nothing of the assembly: attributes are
// received, assembled and normalized strictly one after the other, in
// schema order, with blocking endpoint reads from one goroutine (no lane
// readers, no compute tokens);
// every chunk stream is reassembled into the monolithic pre-streaming
// payload, evaluated in one whole-matrix engine pass and installed with the
// monolithic SetLocal / SetCross — the exact pre-streaming code path over
// the chunked wire, which is what pins chunking, pipelining and sharding as
// pure framing and scheduling. It reads comparison traffic off the control
// conduits, so it serves one-range (TPShards ≤ 1) sessions only.

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"ppclust/internal/alphabet"
	"ppclust/internal/dataset"
	"ppclust/internal/dissim"
	"ppclust/internal/editdist"
	"ppclust/internal/modp"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// runSerialTP is RunInMemoryWrapped with the third party swapped for the
// oracle, through the driver's tpRun seam.
func runSerialTP(cfg Config, parts []dataset.Partition, reqs map[string]ClusterRequest, random RandomSource, wrap ConduitWrap) (*SessionOutcome, error) {
	return runInMemory(context.Background(), cfg, parts, reqs, random, wrap,
		func(tp *ThirdParty, ctx context.Context) (*TPReport, error) { return tp.runGuarded(ctx, tp.runSerial) })
}

// ep is holder hi's control endpoint, read directly — the phase-serial
// consumption order, valid only when attributes are processed one at a
// time in schema order.
func (tp *ThirdParty) ep(hi int) *wire.Endpoint { return tp.eps[tp.holders[hi]] }

func (tp *ThirdParty) runSerial() (*TPReport, error) {
	eng := tp.engines.Get()
	defer tp.engines.Put(eng)
	core := tp.core()
	matrices := make([]*dissim.Matrix, len(tp.cfg.Schema.Attrs))
	scales := make([]float64, len(tp.cfg.Schema.Attrs))
	for attr, a := range tp.cfg.Schema.Attrs {
		var m *dissim.Matrix
		var err error
		if tagBased(a.Type) {
			m, err = tp.assembleTagsSerial(attr)
		} else {
			m, err = tp.assembleComparisonSerial(core, eng, attr)
		}
		if err != nil {
			return nil, fmt.Errorf("party: assembling attribute %q: %w", a.Name, err)
		}
		scales[attr] = m.NormalizePar(tp.workers)
		matrices[attr] = m
	}
	return tp.finish(matrices, scales, func(hi int) (requestBody, error) {
		var req requestBody
		_, err := expectMsg(tp.ep(hi), kindRequest, &req)
		return req, err
	})
}

// assembleTagsSerial reads every holder's frame of one tag attribute, in
// holder order, and builds its matrix.
func (tp *ThirdParty) assembleTagsSerial(attr int) (*dissim.Matrix, error) {
	kind := kindCatTags
	if tp.cfg.Schema.Attrs[attr].Type == dataset.Hierarchical {
		kind = kindPathTags
	}
	frames := make([]*wire.Message, len(tp.holders))
	for hi, h := range tp.holders {
		m, err := expectMsg(tp.ep(hi), kind, nil)
		if err != nil {
			return nil, err
		}
		if m.Attr != attr {
			return nil, fmt.Errorf("party: %s sent tags for attr %d, want %d", h, m.Attr, attr)
		}
		frames[hi] = m
	}
	if kind == kindPathTags {
		return tp.assembleHierarchical(frames)
	}
	return tp.assembleCategorical(frames)
}

// assembleComparisonSerial builds one comparison attribute's matrix from
// whole local triangles and whole pair blocks, each block put together from
// its two shares. A holder without objects sends no comparison frames, so
// its triangle and the blocks it would hold rows of are skipped.
func (tp *ThirdParty) assembleComparisonSerial(core *shardCore, eng *protocol.Engine, attr int) (*dissim.Matrix, error) {
	t := tp.cfg.Schema.Attrs[attr].Type
	asm, err := dissim.NewAssemblerPar(tp.counts, tp.workers)
	if err != nil {
		return nil, err
	}
	for hi, h := range tp.holders {
		if tp.counts[hi] == 0 {
			continue
		}
		if err := tp.recvLocalSerial(asm, hi, h, attr); err != nil {
			return nil, err
		}
	}
	for p, pair := range core.pairs {
		ji, ki := pair[0], pair[1]
		rows, split := tp.counts[ki], core.splitAt(t, p)
		if rows == 0 {
			continue
		}
		top, err := tp.recvShareSerial(core, eng, attr, pairShare{p: p, j: ji, k: ki, lo: 0, hi: split})
		if err != nil {
			return nil, err
		}
		bottom, err := tp.recvShareSerial(core, eng, attr, pairShare{p: p, j: ji, k: ki, lo: split, hi: rows, byInitiator: true})
		if err != nil {
			return nil, err
		}
		if err := asm.SetCross(ji, ki, func(m, n int) float64 {
			if m < split {
				return top(m, n)
			}
			return bottom(m-split, n)
		}); err != nil {
			return nil, err
		}
	}
	return asm.Done()
}

// recvLocalSerial reassembles one holder's local-matrix chunk stream into
// the monolithic packed triangle and performs the FromPacked + SetLocal
// install.
func (tp *ThirdParty) recvLocalSerial(asm *dissim.Assembler, hi int, h string, attr int) error {
	n := tp.counts[hi]
	mono := make([]float64, 0, n*(n-1)/2)
	for ci, ch := range tp.cfg.localChunksRange(0, n) {
		var body localBody
		m, err := expectMsg(tp.ep(hi), kindLocal, &body)
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
		mono = append(mono, float64s(body.wire)...)
	}
	local, err := dissim.FromPacked(n, mono)
	if err != nil {
		return err
	}
	return asm.SetLocal(hi, local)
}

// recvShareSerial is the phase-serial reference consumption of one share
// of a pair block (an empty one receives nothing): the chunks are
// reassembled into the monolithic payload and evaluated in one pass — the
// responder's rows by the whole-matrix engine forms, the initiator's rows
// by masks this function draws itself — returning the share's block, rows
// counted from the share's first.
func (tp *ThirdParty) recvShareSerial(core *shardCore, eng *protocol.Engine, attr int, sh pairShare) (func(m, n int) float64, error) {
	a := tp.cfg.Schema.Attrs[attr]
	j, k, from := tp.holders[sh.j], tp.holders[sh.k], tp.holders[sh.sender()]
	rows, cols := tp.counts[sh.k], tp.counts[sh.j]
	if sh.lo == sh.hi {
		return nil, nil
	}
	chunks := tp.cfg.pairChunksRange(a.Type, sh.lo, sh.hi, cols)
	seed := core.seeds[attr][sh.p]
	if sh.byInitiator {
		seed = core.rowSeeds[attr][sh.p]
	}
	jt := rng.New(tp.cfg.RNG, seed)

	var block func(m, n int) float64
	var bRows, bCols int
	if a.Type == dataset.Alphanumeric {
		var mono []protocol.AlphaChunk
		for ci, ch := range chunks {
			var body alphaMBody
			if _, err := expectMsg(tp.ep(sh.sender()), kindAlphaM, &body); err != nil {
				return nil, err
			}
			if err := checkPairChunk(from, j, k, ci, ch, body.Rows, body.Lo, body.Hi, rows); err != nil {
				return nil, err
			}
			if len(body.M.Counts) != ch[1]-ch[0] {
				return nil, fmt.Errorf("party: %s pair (%s,%s) chunk %d carries %d rows, want %d",
					from, j, k, ci, len(body.M.Counts), ch[1]-ch[0])
			}
			mono = append(mono, body.M)
		}
		dists, err := alphaThreePass(mono, a.Alphabet, jt)
		if err != nil {
			return nil, err
		}
		bRows, bCols = dists.Rows, dists.Cols
		block = func(m, n int) float64 { return float64(dists.At(m, n)) }
	} else {
		var mono numSBody
		for ci, ch := range chunks {
			// The disguised body has the S chunk's layout and decodes it the
			// old way, into a matrix.
			var body numDisguisedBody
			if _, err := expectMsg(tp.ep(sh.sender()), kindNumS, &body); err != nil {
				return nil, err
			}
			if err := checkPairChunk(from, j, k, ci, ch, body.Rows, body.Lo, body.Hi, rows); err != nil {
				return nil, err
			}
			if err := appendNumChunk(&mono, (*numSBody)(&body), ch, sh.hi-sh.lo, cols); err != nil {
				return nil, fmt.Errorf("party: %s pair (%s,%s) chunk %d: %w", from, j, k, ci, err)
			}
		}
		var err error
		if sh.byInitiator {
			block, bRows, bCols, err = unmaskRowsSerial(tp.cfg, mono, jt)
		} else {
			block, bRows, bCols, err = unmaskWhole(tp.cfg, eng, mono, jt)
		}
		if err != nil {
			return nil, err
		}
	}
	// A zero-column block (empty initiator) carries no usable column count
	// and is never consulted during assembly.
	if bRows != sh.hi-sh.lo || (bRows > 0 && cols > 0 && bCols != cols) {
		return nil, fmt.Errorf("party: share of block (%s,%s) is %dx%d, census says %dx%d", j, k, bRows, bCols, sh.hi-sh.lo, cols)
	}
	return block, nil
}

// unmaskWhole is Figure 6 over a reassembled share of the responder's
// rows, through the engine's whole-matrix forms.
func unmaskWhole(cfg Config, eng *protocol.Engine, mono numSBody, jt rng.Stream) (func(m, n int) float64, int, int, error) {
	switch {
	case cfg.Variant == Float64Variant && mono.Float != nil:
		d, err := eng.NumericThirdPartyFloat(mono.Float, jt, protocol.DefaultFloatParams, cfg.Mode)
		if err != nil {
			return nil, 0, 0, err
		}
		return d.At, d.Rows, d.Cols, nil
	case cfg.Variant == Int64Variant && mono.Int != nil:
		d, err := eng.NumericThirdPartyInt(mono.Int, jt, protocol.DefaultIntParams, cfg.Mode)
		if err != nil {
			return nil, 0, 0, err
		}
		return func(m, n int) float64 { return float64(d.At(m, n)) }, d.Rows, d.Cols, nil
	case cfg.Variant == ModPVariant && mono.ModP != nil:
		d, err := eng.NumericThirdPartyModP(mono.ModP, jt, cfg.Mode)
		if err != nil {
			return nil, 0, 0, err
		}
		return func(m, n int) float64 { return float64(d.At(m, n)) }, d.Rows, d.Cols, nil
	}
	return nil, 0, 0, fmt.Errorf("party: missing %s payload", cfg.Variant)
}

// unmaskRowsSerial is the reference for a reassembled share of the rows
// the initiator produces: it draws the responder's masks itself, one per
// row in batch mode and one per cell in per-pair mode, row-major, and
// strips them — sharing nothing with the engine but the generators.
func unmaskRowsSerial(cfg Config, mono numSBody, jt rng.Stream) (func(m, n int) float64, int, int, error) {
	var rows, cols int
	switch {
	case cfg.Variant == Float64Variant && mono.Float != nil:
		rows, cols = mono.Float.Rows, mono.Float.Cols
	case cfg.Variant == Int64Variant && mono.Int != nil:
		rows, cols = mono.Int.Rows, mono.Int.Cols
	case cfg.Variant == ModPVariant && mono.ModP != nil:
		rows, cols = mono.ModP.Rows, mono.ModP.Cols
	default:
		return nil, 0, 0, fmt.Errorf("party: missing %s payload", cfg.Variant)
	}
	w := cols
	if cfg.Mode == protocol.Batch {
		w = 1
	}
	out := make([]float64, rows*cols)
	at := func(m, n int) int { return m*w + min(n, w-1) }
	switch cfg.Variant {
	case Float64Variant:
		masks := make([]float64, rows*w)
		rng.FillFloat64(jt, masks)
		for i, v := range mono.Float.Cell {
			out[i] = math.Abs(v - masks[at(i/cols, i%cols)]*protocol.DefaultFloatParams.MaskRange)
		}
	case Int64Variant:
		masks := make([]int64, rows*w)
		rng.FillInt64n(jt, masks, protocol.DefaultIntParams.MaskRange)
		for i, v := range mono.Int.Cell {
			d := v - masks[at(i/cols, i%cols)]
			out[i] = math.Abs(float64(d))
		}
	case ModPVariant:
		masks := make([]modp.Element, rows*w)
		for i := range masks {
			masks[i] = modp.Random(jt)
		}
		for i, cell := range mono.ModP.Cell {
			v, err := modp.FromBytes(cell)
			if err != nil {
				return nil, 0, 0, err
			}
			d, err := v.Sub(masks[at(i/cols, i%cols)]).AbsInt64()
			if err != nil {
				return nil, 0, 0, err
			}
			out[i] = float64(d)
		}
	}
	return func(m, n int) float64 { return out[m*cols+n] }, rows, cols, nil
}

// alphaThreePass is the third party's alphanumeric evaluation as it stood
// before the fused kernel (commit d84a373), over the reassembled block of
// one pair: every matrix range-checked, its masks stripped by modular
// subtraction into a materialised CCM, and the edit-distance DP run over
// that — three passes, none of them sharing code with the engine's one.
func alphaThreePass(chunks []protocol.AlphaChunk, a *alphabet.Alphabet, jt rng.Stream) (*protocol.Int64Matrix, error) {
	type pair struct {
		rows, cols int
		cell       []int
	}
	var block [][]pair
	maxCols, anyRows := 0, false
	for _, c := range chunks {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		shapes, off := c.Shapes, 0
		for _, n := range c.Counts {
			var row []pair
			for _, sh := range shapes[:n] {
				p := pair{rows: sh.Rows, cols: sh.Cols, cell: make([]int, sh.Rows*sh.Cols)}
				for i := range p.cell {
					if c.Wide != nil {
						p.cell[i] = int(c.Wide[off+i])
					} else {
						p.cell[i] = int(c.Narrow[off+i])
					}
				}
				off += len(p.cell)
				if p.rows > 0 {
					anyRows = true
					maxCols = max(maxCols, p.cols)
				}
				row = append(row, p)
			}
			shapes = shapes[n:]
			if len(block) > 0 && len(row) != len(block[0]) {
				return nil, fmt.Errorf("protocol: ragged intermediary matrix row %d", len(block))
			}
			block = append(block, row)
		}
	}
	prefix := make([]int, maxCols)
	if maxCols > 0 {
		rng.FillIntn(jt, prefix, a.Size())
	}
	if anyRows {
		jt.Reseed()
	}
	cols := 0
	if len(block) > 0 {
		cols = len(block[0])
	}
	out := protocol.NewInt64Matrix(len(block), cols)
	for i, row := range block {
		for j, p := range row {
			for at, s := range p.cell {
				if s >= a.Size() {
					return nil, fmt.Errorf("protocol: intermediary (%d,%d): symbol %d at cell %d outside %s", i, j, s, at, a)
				}
			}
			ccm := editdist.NewCCM(p.rows, p.cols)
			for at, s := range p.cell {
				if n := a.Size(); ((s-prefix[at%p.cols])%n+n)%n != 0 {
					ccm.Cell[at] = 1
				}
			}
			prev, cur := make([]int, p.cols+1), make([]int, p.cols+1)
			for c := range prev {
				prev[c] = c
			}
			for r := 1; r <= p.rows; r++ {
				cur[0] = r
				for c := 1; c <= p.cols; c++ {
					cur[c] = min(prev[c]+1, cur[c-1]+1, prev[c-1]+int(ccm.At(r-1, c-1)))
				}
				prev, cur = cur, prev
			}
			out.Set(i, j, int64(prev[p.cols]))
		}
	}
	return out, nil
}

// numericForms is one arithmetic variant's protocol steps in both shapes:
// the whole-matrix forms — the oracles — and the row forms the session
// runs, the responder's writing into a reused chunk body and the third
// party's reading a decoded one.
type numericForms struct {
	variant      Variant
	initiate     func(e *protocol.Engine, xs []int64, jk, jt rng.Stream, mode protocol.Mode, rows int) (numSBody, error)
	respondWhole func(e *protocol.Engine, disg numSBody, ys []int64, jk rng.Stream, mode protocol.Mode) (numSBody, error)
	respondRows  func(e *protocol.Engine, s *numSBody, disg numSBody, ys []int64, lo int, jk rng.Stream, mode protocol.Mode) error
	tpWhole      func(e *protocol.Engine, s numSBody, jt rng.Stream, mode protocol.Mode) (func(m, n int) float64, error)
	tpChunk      func(e *protocol.Engine, c protocol.NumericChunk, lo, hi int, jt rng.Stream, mode protocol.Mode) (protocol.RowFunc, error)
	advance      func(e *protocol.Engine, jt rng.Stream, rows, cols int, mode protocol.Mode)
}

func floats(vs []int64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v)
	}
	return out
}

var allNumericForms = []numericForms{{
	variant: Float64Variant,
	initiate: func(e *protocol.Engine, xs []int64, jk, jt rng.Stream, mode protocol.Mode, rows int) (b numSBody, err error) {
		b.Float, err = e.NumericInitiatorFloat(floats(xs), jk, jt, protocol.DefaultFloatParams, mode, rows)
		return b, err
	},
	respondWhole: func(e *protocol.Engine, disg numSBody, ys []int64, jk rng.Stream, mode protocol.Mode) (b numSBody, err error) {
		b.Float, err = e.NumericResponderFloat(disg.Float, floats(ys), jk, protocol.DefaultFloatParams, mode)
		return b, err
	},
	respondRows: func(e *protocol.Engine, s *numSBody, disg numSBody, ys []int64, lo int, jk rng.Stream, mode protocol.Mode) error {
		if s.Float == nil {
			s.Float = &protocol.Float64Matrix{}
		}
		return e.NumericResponderFloatRows(s.Float, disg.Float, floats(ys), lo, jk, protocol.DefaultFloatParams, mode)
	},
	tpWhole: func(e *protocol.Engine, s numSBody, jt rng.Stream, mode protocol.Mode) (func(m, n int) float64, error) {
		d, err := e.NumericThirdPartyFloat(s.Float, jt, protocol.DefaultFloatParams, mode)
		return func(m, n int) float64 { return d.At(m, n) }, err
	},
	tpChunk: func(e *protocol.Engine, c protocol.NumericChunk, lo, hi int, jt rng.Stream, mode protocol.Mode) (protocol.RowFunc, error) {
		return e.NumericThirdPartyFloatChunk(c, lo, hi, jt, protocol.DefaultFloatParams, mode, protocol.InitiatorCols)
	},
	advance: func(e *protocol.Engine, jt rng.Stream, rows, cols int, mode protocol.Mode) {
		e.AdvanceThirdPartyFloat(jt, rows, cols, protocol.DefaultFloatParams, mode, protocol.InitiatorCols)
	},
}, {
	variant: Int64Variant,
	initiate: func(e *protocol.Engine, xs []int64, jk, jt rng.Stream, mode protocol.Mode, rows int) (b numSBody, err error) {
		b.Int, err = e.NumericInitiatorInt(xs, jk, jt, protocol.DefaultIntParams, mode, rows)
		return b, err
	},
	respondWhole: func(e *protocol.Engine, disg numSBody, ys []int64, jk rng.Stream, mode protocol.Mode) (b numSBody, err error) {
		b.Int, err = e.NumericResponderInt(disg.Int, ys, jk, protocol.DefaultIntParams, mode)
		return b, err
	},
	respondRows: func(e *protocol.Engine, s *numSBody, disg numSBody, ys []int64, lo int, jk rng.Stream, mode protocol.Mode) error {
		if s.Int == nil {
			s.Int = &protocol.Int64Matrix{}
		}
		return e.NumericResponderIntRows(s.Int, disg.Int, ys, lo, jk, protocol.DefaultIntParams, mode)
	},
	tpWhole: func(e *protocol.Engine, s numSBody, jt rng.Stream, mode protocol.Mode) (func(m, n int) float64, error) {
		d, err := e.NumericThirdPartyInt(s.Int, jt, protocol.DefaultIntParams, mode)
		return func(m, n int) float64 { return float64(d.At(m, n)) }, err
	},
	tpChunk: func(e *protocol.Engine, c protocol.NumericChunk, lo, hi int, jt rng.Stream, mode protocol.Mode) (protocol.RowFunc, error) {
		return e.NumericThirdPartyIntChunk(c, lo, hi, jt, protocol.DefaultIntParams, mode, protocol.InitiatorCols)
	},
	advance: func(e *protocol.Engine, jt rng.Stream, rows, cols int, mode protocol.Mode) {
		e.AdvanceThirdPartyInt(jt, rows, cols, protocol.DefaultIntParams, mode, protocol.InitiatorCols)
	},
}, {
	variant: ModPVariant,
	initiate: func(e *protocol.Engine, xs []int64, jk, jt rng.Stream, mode protocol.Mode, rows int) (b numSBody, err error) {
		b.ModP, err = e.NumericInitiatorModP(xs, jk, jt, mode, rows)
		return b, err
	},
	respondWhole: func(e *protocol.Engine, disg numSBody, ys []int64, jk rng.Stream, mode protocol.Mode) (b numSBody, err error) {
		b.ModP, err = e.NumericResponderModP(disg.ModP, ys, jk, mode)
		return b, err
	},
	respondRows: func(e *protocol.Engine, s *numSBody, disg numSBody, ys []int64, lo int, jk rng.Stream, mode protocol.Mode) error {
		if s.ModP == nil {
			s.ModP = &protocol.ElementMatrix{}
		}
		return e.NumericResponderModPRows(s.ModP, disg.ModP, ys, lo, jk, mode)
	},
	tpWhole: func(e *protocol.Engine, s numSBody, jt rng.Stream, mode protocol.Mode) (func(m, n int) float64, error) {
		d, err := e.NumericThirdPartyModP(s.ModP, jt, mode)
		return func(m, n int) float64 { return float64(d.At(m, n)) }, err
	},
	tpChunk: func(e *protocol.Engine, c protocol.NumericChunk, lo, hi int, jt rng.Stream, mode protocol.Mode) (protocol.RowFunc, error) {
		return e.NumericThirdPartyModPChunk(c, lo, hi, jt, mode, protocol.InitiatorCols)
	},
	advance: func(e *protocol.Engine, jt rng.Stream, rows, cols int, mode protocol.Mode) {
		e.AdvanceThirdPartyModP(jt, rows, cols, mode, protocol.InitiatorCols)
	},
}}

// TestRowFormsMatchWholeMatrixOracles drives one pair's comparison traffic
// the way the session does — local triangles built a row range at a time,
// the responder's S rows produced per chunk into reused storage, every
// chunk through its body's codec, local cells read out of the payload and
// pair chunks unmasked out of it straight into the assembler — and requires
// the assembled rows to be, bit for bit, what the whole-matrix forms
// produce: FromLocalPar, NumericResponder*, NumericThirdParty*, installed
// whole. Every variant, mode, chunk budget and worker count; the whole
// triangle, and a slice whose first row is in the middle of the responder's
// block — where a per-pair keystream must be entered mid-stream on both
// the jk and the jt side.
func TestRowFormsMatchWholeMatrixOracles(t *testing.T) {
	const n, m = 13, 9 // initiator and responder counts
	src := rng.NewXoshiro(rng.SeedFromUint64(2727))
	xs, ys := make([]int64, n), make([]int64, m)
	for i := range xs {
		xs[i] = rng.Int64Range(src, -500, 500)
	}
	for i := range ys {
		ys[i] = rng.Int64Range(src, -500, 500)
	}
	values := [][]int64{xs, ys}
	localDist := func(p int) func(int) func(i, j int) float64 {
		dist := func(i, j int) float64 { return math.Abs(float64(values[p][i] - values[p][j])) }
		return func(int) func(i, j int) float64 { return dist }
	}
	seedJK, seedJT := rng.SeedFromUint64(71), rng.SeedFromUint64(72)
	numeric := dataset.Numeric

	for _, f := range allNumericForms {
		for _, mode := range []protocol.Mode{protocol.Batch, protocol.PerPair} {
			for _, workers := range []int{1, 2} {
				e := protocol.NewEngine(workers)
				disg, err := f.initiate(e, xs, rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT), mode, m)
				if err != nil {
					t.Fatal(err)
				}
				// The oracle: everything whole.
				whole, err := dissim.NewAssemblerPar([]int{n, m}, workers)
				if err != nil {
					t.Fatal(err)
				}
				for p, size := range []int{n, m} {
					if err := whole.SetLocal(p, dissim.FromLocalPar(size, workers, localDist(p))); err != nil {
						t.Fatal(err)
					}
				}
				s, err := f.respondWhole(e, disg, ys, rng.NewAESCTR(seedJK), mode)
				if err != nil {
					t.Fatal(err)
				}
				at, err := f.tpWhole(e, s, rng.NewAESCTR(seedJT), mode)
				if err != nil {
					t.Fatal(err)
				}
				if err := whole.SetCross(0, 1, at); err != nil {
					t.Fatal(err)
				}
				want, err := whole.Done()
				if err != nil {
					t.Fatal(err)
				}

				for _, chunkBytes := range []int{1, 200, 0} {
					for _, start := range []int{0, 4} { // the slice's first responder row
						name := fmt.Sprintf("%v %v workers=%d chunk=%d start=%d", f.variant, mode, workers, chunkBytes, start)
						cfg := Config{Variant: f.variant, LocalChunkBytes: chunkBytes}
						lo := 0
						if start > 0 {
							lo = n + start
						}
						asm, err := dissim.NewSliceAssembler([]int{n, m}, lo, n+m, workers)
						if err != nil {
							t.Fatal(err)
						}
						var cells []float64
						for p := range values {
							plo, phi := asm.PartyRows(p)
							if plo == phi {
								continue
							}
							for _, ch := range cfg.localChunksRange(plo, phi) {
								cells = dissim.FromLocalRowsPar(cells, ch[0], ch[1], workers, localDist(p))
								enc, err := wire.EncodeBody(localBody{N: len(values[p]), Lo: ch[0], Hi: ch[1], Cells: cells})
								if err != nil {
									t.Fatal(err)
								}
								var body localBody
								if err := wire.DecodeBody(enc, &body); err != nil {
									t.Fatal(err)
								}
								if err := asm.SetLocalRowsLE(p, body.Lo, body.Hi, body.wire); err != nil {
									t.Fatalf("%s: %v", name, err)
								}
							}
						}
						jk, jt := rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT)
						if mode == protocol.PerPair {
							rng.FillUint64(jk, make([]uint64, start*n))
						}
						f.advance(e, jt, start, n, mode)
						chunk := numSBody{Rows: m}
						for _, ch := range cfg.pairChunksRange(numeric, start, m, n) {
							chunk.Lo, chunk.Hi = ch[0], ch[1]
							if err := f.respondRows(e, &chunk, disg, ys[ch[0]:ch[1]], ch[0], jk, mode); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							enc, err := wire.EncodeBody(chunk)
							if err != nil {
								t.Fatal(err)
							}
							var body numSBody
							if err := wire.DecodeBody(enc, &body); err != nil {
								t.Fatal(err)
							}
							row, err := f.tpChunk(e, body.wire, body.Lo, body.Hi, jt, mode)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if err := asm.SetCrossRowsInto(0, 1, body.Lo, body.Hi, row); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
						}
						got, max, err := asm.Done()
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						wantCells := want.PackedRowsView(lo, n+m)
						if !slices.Equal(got, wantCells) {
							t.Fatalf("%s: assembled rows differ from the whole-matrix forms'", name)
						}
						if wantMax := slices.Max(slices.Concat(wantCells, []float64{0})); max != wantMax {
							t.Fatalf("%s: running max %v, want %v", name, max, wantMax)
						}
					}
				}
			}
		}
	}
}
