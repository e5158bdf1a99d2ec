package party

// The phase-serial reference engine — formerly Config.SerialTP, now the
// in-package oracle every differential test pins the session pipeline
// against. It shares the wire and nothing of the assembly: attributes are
// received, assembled and normalized strictly one after the other, in
// schema order, with blocking endpoint reads from one goroutine (no lane
// readers, no compute tokens);
// every chunk stream is reassembled into the monolithic pre-streaming
// payload, evaluated in one pass by references that share nothing with the
// engine but the generators — the per-cell Figure 6 (unmaskSerial) and the
// three-pass Figure 10 (alphaThreePass) — and installed with the
// monolithic SetLocal / SetCross, which is what pins chunking, pipelining
// and sharding as pure framing and scheduling. It reads comparison traffic
// off the control conduits, so it serves one-range (TPShards ≤ 1) sessions
// only.

import (
	"context"
	"encoding/binary"
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
	core := tp.core()
	matrices := make([]*dissim.Matrix, len(tp.cfg.Schema.Attrs))
	scales := make([]float64, len(tp.cfg.Schema.Attrs))
	for attr, a := range tp.cfg.Schema.Attrs {
		var m *dissim.Matrix
		var err error
		if tagBased(a.Type) {
			m, err = tp.assembleTagsSerial(attr)
		} else {
			m, err = tp.assembleComparisonSerial(core, attr)
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
func (tp *ThirdParty) assembleComparisonSerial(core *shardCore, attr int) (*dissim.Matrix, error) {
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
		top, err := tp.recvShareSerial(core, attr, pairShare{p: p, j: ji, k: ki, lo: 0, hi: split})
		if err != nil {
			return nil, err
		}
		bottom, err := tp.recvShareSerial(core, attr, pairShare{p: p, j: ji, k: ki, lo: split, hi: rows, byInitiator: true})
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
// reassembled into the monolithic payload and evaluated in one pass by
// the references, returning the share's block, rows counted from the
// share's first.
func (tp *ThirdParty) recvShareSerial(core *shardCore, attr int, sh pairShare) (func(m, n int) float64, error) {
	a := tp.cfg.Schema.Attrs[attr]
	j, k, from := tp.holders[sh.j], tp.holders[sh.k], tp.holders[sh.sender()]
	rows, cols := tp.counts[sh.k], tp.counts[sh.j]
	if sh.lo == sh.hi {
		return nil, nil
	}
	chunks := tp.cfg.pairChunksRange(tp.num, a.Type, sh.lo, sh.hi, cols)
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
		// The chunks' cells, reassembled — the columns checked before the
		// payload is presized — and decoded into the variant's matrix.
		var cells []byte
		for ci, ch := range chunks {
			var body numSBody
			if _, err := expectMsg(tp.ep(sh.sender()), kindNumS, &body); err != nil {
				return nil, err
			}
			if err := checkPairChunk(from, j, k, ci, ch, body.Rows, body.Lo, body.Hi, rows); err != nil {
				return nil, err
			}
			if c := body.cells; c.Rows != ch[1]-ch[0] || (c.Rows > 0 && c.Cols != cols) {
				return nil, fmt.Errorf("party: %s pair (%s,%s) chunk %d has %dx%d cells, census says %d columns", from, j, k, ci, c.Rows, c.Cols, cols)
			}
			if cells == nil {
				cells = make([]byte, 0, tp.num.CellBytes()*(sh.hi-sh.lo)*cols)
			}
			cells = append(cells, body.cells.Cells...)
		}
		axis := protocol.InitiatorCols
		if sh.byInitiator {
			axis = protocol.InitiatorRows
		}
		var err error
		bRows, bCols = sh.hi-sh.lo, cols
		if block, err = unmaskSerial(tp.cfg, bRows, bCols, cells, jt, axis); err != nil {
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

// unmaskSerial is the reference Figure 6 over a reassembled share of a
// pair block's S, rows×cols cells in the variant's layout: it draws the
// masks itself — with the initiator on the columns one per column in
// batch mode, re-read by every row, and on the rows one per row; one per
// cell in per-pair mode, row-major — and strips them, sharing nothing with
// the engine but the generators.
func unmaskSerial(cfg Config, rows, cols int, cells []byte, jt rng.Stream, axis protocol.Axis) (func(m, n int) float64, error) {
	draws, at := rows*cols, func(i int) int { return i }
	switch {
	case cfg.Mode == protocol.PerPair:
	case axis == protocol.InitiatorCols:
		draws, at = cols, func(i int) int { return i % cols }
	default:
		draws, at = rows, func(i int) int { return i / cols }
	}
	out := make([]float64, rows*cols)
	switch cfg.Variant {
	case Float64Variant:
		masks := make([]float64, draws)
		rng.FillFloat64(jt, masks)
		for i, v := range float64s(cells) {
			out[i] = math.Abs(v - masks[at(i)]*protocol.DefaultFloatParams.MaskRange)
		}
	case Int64Variant:
		masks := make([]int64, draws)
		rng.FillInt64n(jt, masks, protocol.Int64MaskRange)
		for i := range out {
			out[i] = math.Abs(float64(int64(binary.LittleEndian.Uint64(cells[8*i:])) - masks[at(i)]))
		}
	case ModPVariant:
		masks := make([]modp.Element, draws)
		for i := range masks {
			masks[i] = modp.Random(jt)
		}
		for i := range out {
			v, err := modp.FromBytes([32]byte(cells[32*i:]))
			if err != nil {
				return nil, err
			}
			d, err := v.Sub(masks[at(i)]).AbsInt64()
			if err != nil {
				return nil, err
			}
			out[i] = float64(d)
		}
	}
	return func(m, n int) float64 { return out[m*cols+n] }, nil
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
		cells, err := chunkCells(&c)
		if err != nil {
			return nil, err
		}
		shapes := c.Shapes
		for _, n := range c.Counts {
			var row []pair
			for _, sh := range shapes[:n] {
				p := pair{rows: sh.Rows, cols: sh.Cols, cell: cells[0]}
				cells = cells[1:]
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

// wholeBlock is a pair block of the responder values ys and the
// initiator values xs by the paper's per-cell formula: S = R + σx − σy,
// with one mask and one parity σ per column in batch mode and per cell in
// per-pair mode, then Figure 6 by unmaskSerial. It shares nothing with the
// engine but the generators, and returns the distance at (m, n).
func wholeBlock(t *testing.T, v Variant, mode protocol.Mode, xs, ys []int64) func(m, n int) float64 {
	t.Helper()
	rows, cols := len(ys), len(xs)
	draws, at := rows*cols, func(m, n int) int { return m*cols + n }
	if mode == protocol.Batch {
		draws, at = cols, func(_, n int) int { return n }
	}
	jk, jt := rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT)
	sigma := make([]int64, draws) // DHJ negates on an odd draw, DHK on an even one
	fm, im, em := make([]float64, draws), make([]int64, draws), make([]modp.Element, draws)
	for k := range draws {
		sigma[k] = 1 - 2*int64(jk.Next()&1)
		switch v {
		case Float64Variant:
			fm[k] = rng.Float64(jt) * protocol.DefaultFloatParams.MaskRange
		case Int64Variant:
			im[k] = rng.Int64n(jt, protocol.Int64MaskRange)
		default:
			em[k] = modp.Random(jt)
		}
	}
	var cells []byte
	for m, y := range ys {
		for n, x := range xs {
			k := at(m, n)
			sx, sy := sigma[k]*x, sigma[k]*y
			switch v {
			case Float64Variant:
				cells = binary.LittleEndian.AppendUint64(cells, math.Float64bits(fm[k]+float64(sx)-float64(sy)))
			case Int64Variant:
				cells = binary.LittleEndian.AppendUint64(cells, uint64(im[k]+sx-sy))
			default:
				b := em[k].Add(modp.FromInt64(sx)).Add(modp.FromInt64(-sy)).Bytes()
				cells = append(cells, b[:]...)
			}
		}
	}
	block, err := unmaskSerial(Config{Variant: v, Mode: mode}, rows, cols, cells, rng.NewAESCTR(seedJT), protocol.InitiatorCols)
	if err != nil {
		t.Fatal(err)
	}
	return block
}

var seedJK, seedJT = rng.SeedFromUint64(71), rng.SeedFromUint64(72)

func floats(vs []int64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = float64(v)
	}
	return out
}

// TestRowFormsMatchWholeMatrixOracles drives one pair's comparison traffic
// the way the session does — local triangles built a row range at a time,
// the initiator's disguise and the responder's S rows computed by the
// numeric protocol into the frame that carries each chunk, every chunk
// through its body's codec, the disguise combined where it arrived, local
// cells read out of the payload and pair chunks unmasked out of it
// straight into the assembler — and requires the assembled rows to be, bit
// for bit, what the whole forms produce: FromLocalPar and the per-cell
// formula's block (wholeBlock), installed whole. Every variant, mode, chunk budget and worker count; the whole
// triangle, and a slice whose first row is in the middle of the responder's
// block — where a per-pair keystream must be entered mid-stream on both
// the jk and the jt side. (protocol's TestRowAxisRecoversDistances covers
// the initiator on the rows against the same formula.)
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
	numeric := dataset.Numeric
	// codec sends a numeric chunk through its body's layout.
	codec := func(body numSBody) numSBody {
		enc, err := wire.EncodeBody(body)
		if err != nil {
			t.Fatal(err)
		}
		if n := body.BodySize(); n != len(enc) {
			t.Fatalf("a numeric chunk body declares %d bytes and encodes to %d", n, len(enc))
		}
		var got numSBody
		if err := wire.DecodeBody(enc, &got); err != nil {
			t.Fatal(err)
		}
		return got
	}

	for _, v := range []Variant{Float64Variant, Int64Variant, ModPVariant} {
		for _, mode := range []protocol.Mode{protocol.Batch, protocol.PerPair} {
			for _, workers := range []int{1, 2} {
				e := protocol.NewEngine(workers)
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
				if err := whole.SetCross(0, 1, wholeBlock(t, v, mode, xs, ys)); err != nil {
					t.Fatal(err)
				}
				want, err := whole.Done()
				if err != nil {
					t.Fatal(err)
				}

				for _, chunkBytes := range []int{1, 200, 0} {
					for _, start := range []int{0, 4} { // the slice's first responder row
						name := fmt.Sprintf("%v %v workers=%d chunk=%d start=%d", v, mode, workers, chunkBytes, start)
						cfg := Config{Variant: v, Mode: mode, LocalChunkBytes: chunkBytes}
						num, err := protocol.NewNumeric(v, mode)
						if err != nil {
							t.Fatal(err)
						}
						xCol, err := num.Column(floats(xs))
						if err != nil {
							t.Fatal(err)
						}
						yCol, err := num.Column(floats(ys))
						if err != nil {
							t.Fatal(err)
						}
						lo := 0
						if start > 0 {
							lo = n + start
						}
						asm, err := dissim.NewSliceAssembler([]int{n, m}, lo, n+m, workers)
						if err != nil {
							t.Fatal(err)
						}
						for p := range values {
							plo, phi := asm.PartyRows(p)
							if plo == phi {
								continue
							}
							for _, ch := range cfg.localChunksRange(plo, phi) {
								local := localBody{N: len(values[p]), Lo: ch[0], Hi: ch[1], fill: func(dst []byte) []byte {
									return dissim.AppendLocalRowsLE(dst, ch[0], ch[1], workers, localDist(p))
								}}
								enc, err := wire.EncodeBody(local)
								if err != nil {
									t.Fatal(err)
								}
								if n := local.BodySize(); n != len(enc) {
									t.Fatalf("a local chunk body declares %d bytes and encodes to %d", n, len(enc))
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
						dRows := disguisedRows(mode, m)
						var disg []protocol.NumericChunk
						for _, ch := range cfg.pairChunksRange(num, numeric, 0, dRows, n) {
							disg = append(disg, codec(chunkBody(num, dRows, n, ch, func(dst []byte, lo, hi int) ([]byte, error) {
								return num.Disguise(e, dst, xCol, lo, hi, m, jk, jt, protocol.InitiatorCols)
							})).cells)
						}
						jk, jt = rng.NewAESCTR(seedJK), rng.NewAESCTR(seedJT)
						if mode == protocol.PerPair {
							rng.FillUint64(jk, make([]uint64, start*n))
						}
						num.Advance(e, jt, start, n, protocol.InitiatorCols)
						for _, ch := range cfg.pairChunksRange(num, numeric, start, m, n) {
							body := codec(chunkBody(num, m, n, ch, func(dst []byte, lo, hi int) ([]byte, error) {
								return num.Combine(e, dst, disg, yCol, lo, hi, jk, protocol.InitiatorCols)
							}))
							row, err := num.Strip(e, body.cells, body.Lo, body.Hi, jt, protocol.InitiatorCols)
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
