package protocol

import (
	"encoding/binary"
	"fmt"
	"slices"

	"ppclust/internal/alphabet"
	"ppclust/internal/editdist"
	"ppclust/internal/parallel"
	"ppclust/internal/rng"
)

// Alphanumeric comparison protocol (paper Section 4.2, Figures 8–10).
//
// The initiator DHJ disguises each of its strings by adding a shared random
// symbol vector modulo the alphabet size, re-initializing the generator
// after every string so that all strings are masked by the same stream
// prefix R. The responder DHK forms, for every (own, disguised) string
// pair, the matrix of symbol differences s′[p] − t[q]. The third party,
// which shares R's seed with the initiator, subtracts R and flattens the
// result into the 0/1 character comparison matrix (CCM), from which
// internal/editdist computes the edit distance.
//
// Faithfulness note: as published, the third party observes the full
// difference s[p] − t[q] (mod |A|) before flattening it to 0/1 — a leak the
// paper defers to future work ("we plan to expand our privacy analysis for
// the comparison protocol of alphanumeric attributes"). internal/attack
// demonstrates the resulting string-recovery-up-to-rotation inference. The
// engine compares each received cell with its mask instead of subtracting
// the mask and testing for zero — for cell, mask ∈ [0, |A|) the two say the
// same thing — so it holds exactly the masked differences and the masks it
// held before, and observes nothing it did not.
//
// One implementation per figure: the Figure 9 arithmetic is alphaDiffRows
// and the Figure 10 per-pair evaluation is editdist.FromMasked. The session
// runs both over an AlphaChunk — one cell slab per chunk of responder rows,
// in the layout the wire carries; the per-pair forms (AlphaResponder,
// AlphaThirdParty, AlphaThirdPartyRows, AlphaThirdPartyCCMs over
// SymbolMatrix) are containers over the same two kernels.

// SymbolString is one attribute value as alphabet symbol indices.
type SymbolString []alphabet.Symbol

// SymbolMatrix is the intermediary matrix the responder sends for one
// string pair: Rows indexes the responder string's characters, Cols the
// initiator string's. Cell values are symbol differences modulo the
// alphabet size.
type SymbolMatrix struct {
	Rows, Cols int
	Cell       []alphabet.Symbol
}

// NewSymbolMatrix allocates a zeroed rows×cols matrix.
func NewSymbolMatrix(rows, cols int) *SymbolMatrix {
	checkDims(rows, cols)
	return &SymbolMatrix{Rows: rows, Cols: cols, Cell: make([]alphabet.Symbol, rows*cols)}
}

// At returns the cell at row q, column p.
func (m *SymbolMatrix) At(q, p int) alphabet.Symbol { return m.Cell[q*m.Cols+p] }

// Set assigns the cell at row q, column p.
func (m *SymbolMatrix) Set(q, p int, v alphabet.Symbol) { m.Cell[q*m.Cols+p] = v }

// validShape checks dimension/storage consistency alone.
func (m *SymbolMatrix) validShape() error {
	if m.Rows < 0 || m.Cols < 0 || len(m.Cell) != m.Rows*m.Cols {
		return fmt.Errorf("protocol: inconsistent SymbolMatrix %dx%d with %d cells", m.Rows, m.Cols, len(m.Cell))
	}
	return nil
}

// Validate checks storage consistency and symbol range.
func (m *SymbolMatrix) Validate(a *alphabet.Alphabet) error {
	if err := m.validShape(); err != nil {
		return err
	}
	return alphabet.InRange(a, m.Cell)
}

// AlphaShape is the shape of one string pair's intermediary matrix.
type AlphaShape struct{ Rows, Cols int }

// AlphaChunk is the intermediary matrices of a run of responder rows the
// way the responder→TP frame carries them: the number of matrices in each
// row, every matrix's shape row after row, and one slab holding every
// matrix's cells back to back in that order, row-major within a matrix.
// The slab is Narrow, a byte a cell, unless a cell may need two (an
// alphabet of more than 256 symbols, a two-byte frame) — then it is Wide
// and Narrow is nil. A responder fills one chunk per frame and reuses its
// storage for the next; a decoded chunk's Narrow is the received payload
// itself, which nothing here writes.
type AlphaChunk struct {
	Counts []int
	Shapes []AlphaShape
	Narrow []byte
	Wide   []alphabet.Symbol
}

// Cells returns the length of the slab in use.
func (c *AlphaChunk) Cells() int { return len(c.Narrow) + len(c.Wide) }

// Validate checks that the counts account for the shapes and the shapes
// for the slab, so that an evaluation cannot index outside either.
func (c *AlphaChunk) Validate() error {
	mats, cells := 0, 0
	for _, n := range c.Counts {
		if n < 0 || n > len(c.Shapes)-mats {
			return fmt.Errorf("protocol: chunk rows claim more than its %d matrices", len(c.Shapes))
		}
		mats += n
	}
	for i, sh := range c.Shapes {
		if sh.Rows < 0 || sh.Cols < 0 || (sh.Cols != 0 && sh.Rows > (c.Cells()-cells)/sh.Cols) {
			return fmt.Errorf("protocol: chunk matrix %d is %dx%d with %d of %d cells left", i, sh.Rows, sh.Cols, c.Cells()-cells, c.Cells())
		}
		cells += sh.Rows * sh.Cols
	}
	if mats != len(c.Shapes) || cells != c.Cells() || (c.Narrow != nil && c.Wide != nil) {
		return fmt.Errorf("protocol: inconsistent chunk: %d of %d matrices in rows, %d of %d cells in matrices",
			mats, len(c.Shapes), cells, c.Cells())
	}
	return nil
}

// AlphaInitiator is Figure 8, run at site DHJ: disguise every string with
// the shared mask stream, re-initializing jt after each string so all
// strings share the mask prefix. jt must be freshly seeded.
func AlphaInitiator(strings []SymbolString, a *alphabet.Alphabet, jt rng.Stream) []SymbolString {
	return NewEngine(1).AlphaInitiator(strings, a, jt)
}

// AlphaInitiator is Figure 8 on the engine. Because every string is
// masked by the same stream prefix (the paper's per-string
// re-initialization), the engine draws the prefix once — up to the
// longest string — and disguises all strings from it in parallel, leaving
// jt rewound exactly as the serial per-string Reseed discipline does.
func (e *Engine) AlphaInitiator(strings []SymbolString, a *alphabet.Alphabet, jt rng.Stream) []SymbolString {
	out := make([]SymbolString, len(strings))
	if len(strings) == 0 {
		return out
	}
	maxLen := 0
	for _, s := range strings {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	prefix := e.symbuf(maxLen)
	rng.FillIntn(jt, prefix, a.Size())
	parallel.Range(e.workers, len(strings), func(_, lo, hi int) {
		for m := lo; m < hi; m++ {
			s := strings[m]
			d := make(SymbolString, len(s))
			for p, sym := range s {
				d[p] = a.Add(sym, alphabet.Symbol(prefix[p]))
			}
			out[m] = d
		}
	})
	jt.Reseed()
	return out
}

// AlphaResponder is Figure 9, run at site DHK: build the intermediary
// difference matrix for every (own, disguised) string pair. The result is
// indexed result[m][n] for own string m versus disguised string n; each
// matrix has the own string's characters as rows.
func AlphaResponder(own []SymbolString, disguised []SymbolString, a *alphabet.Alphabet) [][]*SymbolMatrix {
	return NewEngine(1).AlphaResponder(own, disguised, a)
}

// AlphaResponder is Figure 9 in per-pair form: the whole block as one wide
// chunk, with a SymbolMatrix view cut out of its slab for every pair.
func (e *Engine) AlphaResponder(own []SymbolString, disguised []SymbolString, a *alphabet.Alphabet) [][]*SymbolMatrix {
	var c AlphaChunk
	e.alphaResponder(&c, own, disguised, a, false)
	mats := make([]SymbolMatrix, len(c.Shapes))
	ptrs := make([]*SymbolMatrix, len(c.Shapes))
	cells := c.Wide
	for i, sh := range c.Shapes {
		n := sh.Rows * sh.Cols
		mats[i] = SymbolMatrix{Rows: sh.Rows, Cols: sh.Cols, Cell: cells[:n:n]}
		ptrs[i], cells = &mats[i], cells[n:]
	}
	out := make([][]*SymbolMatrix, len(own))
	for m := range out {
		out[m], ptrs = ptrs[:len(disguised):len(disguised)], ptrs[len(disguised):]
	}
	return out
}

// AlphaResponderChunk is Figure 9 for one chunk: own holds the responder
// strings of the chunk's rows, and c — whose storage is reused — comes back
// holding their intermediary matrices against every disguised string, one
// byte a cell whenever the alphabet allows. Symbols on both sides must
// belong to the alphabet.
func (e *Engine) AlphaResponderChunk(c *AlphaChunk, own, disguised []SymbolString, a *alphabet.Alphabet) {
	e.alphaResponder(c, own, disguised, a, a.Size() <= 1<<8)
}

func (e *Engine) alphaResponder(c *AlphaChunk, own, disguised []SymbolString, a *alphabet.Alphabet, narrow bool) {
	width := 0 // cells one own character contributes: one per disguised character
	for _, sp := range disguised {
		width += len(sp)
	}
	c.Counts, c.Shapes = c.Counts[:0], c.Shapes[:0]
	cells := 0
	for _, t := range own {
		c.Counts = append(c.Counts, len(disguised))
		for _, sp := range disguised {
			c.Shapes = append(c.Shapes, AlphaShape{Rows: len(t), Cols: len(sp)})
		}
		cells += len(t) * width
	}
	if !narrow {
		c.Narrow, c.Wide = nil, slices.Grow(c.Wide[:0], cells)[:cells]
		alphaDiffRows(e.workers, c.Wide, own, disguised, nil, width, a.Size())
		return
	}
	c.Narrow, c.Wide = slices.Grow(c.Narrow[:0], cells)[:cells], nil
	packed := slices.Grow(e.b8[:0], width)
	for _, sp := range disguised {
		for _, sym := range sp {
			packed = append(packed, byte(sym))
		}
	}
	e.b8 = packed
	alphaDiffRows(e.workers, c.Narrow, own, disguised, packed, width, a.Size())
}

// alphaDiffRows is the Figure 9 arithmetic: for every own string t, every
// disguised string sp and every character pair, dst gets sp[p] − t[q]
// modulo the alphabet size n, laid out as AlphaChunk describes. A byte slab
// is filled eight cells per word from packed, the disguised strings back to
// back a byte a symbol, wherever sp has at least eight. Pure per-cell
// arithmetic at fixed positions: parallel over own strings and
// bit-identical at any worker count.
func alphaDiffRows[T ~uint8 | ~uint16](workers int, dst []T, own, disguised []SymbolString, packed []byte, width, n int) {
	parallel.Range(workers, len(own), func(_, lo, hi int) {
		off := 0
		for _, t := range own[:lo] {
			off += len(t) * width
		}
		for _, t := range own[lo:hi] {
			from := 0
			for _, sp := range disguised {
				block := dst[off : off+len(t)*len(sp)]
				if b, ok := any(block).([]byte); ok && len(sp) >= 8 {
					diffWords(b, t, packed[from:from+len(sp)], n)
				} else {
					diffBlock(block, t, sp, n)
				}
				off, from = off+len(block), from+len(sp)
			}
		}
	})
}

// diffBlock is one pair's cells, one at a time. Operands are symbols, so
// one conditional add reduces the difference.
func diffBlock[T ~uint8 | ~uint16](dst []T, t, sp SymbolString, n int) {
	for _, tq := range t {
		row := dst[:len(sp)]
		for p, spp := range sp {
			d := int(spp) - int(tq)
			if d < 0 {
				d += n
			}
			row[p] = T(d)
		}
		dst = dst[len(sp):]
	}
}

// diffWords is one pair's byte cells eight at a time, for a disguised
// string sp of at least eight symbols, a byte each: each word of sp is
// loaded once and differenced with every own character by a per-byte
// subtract, the last word ending at sp's end and overlapping the one before.
// A byte that borrowed holds x − y + 256, at least 257 − n, so taking 256 − n
// off it wraps it to x − y + n without borrowing from its neighbour; for
// n = 256 the byte arithmetic is already modulo n.
func diffWords(dst []byte, t SymbolString, sp []byte, n int) {
	const ones, low7, high = 0x0101010101010101, 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	cols, wrap := len(sp), uint64(256-n)
	for p := 0; p < cols; p += 8 {
		k := min(p, cols-8)
		x := binary.LittleEndian.Uint64(sp[k:])
		for q, tq := range t {
			y := uint64(tq) * ones
			e := ^(x ^ y)
			d := (x | high) - (y & low7) ^ e&high
			borrow := (^x&y | e&d) & high
			binary.LittleEndian.PutUint64(dst[q*cols+k:], d-borrow>>7*wrap)
		}
	}
}

// AlphaThirdParty is Figure 10, run at site TP: regenerate the mask prefix
// and compute the edit distance from each intermediary matrix compared
// with it. The returned block has out[m][n] = editdist(own string m, initiator
// string n). jt must be freshly seeded with the initiator-TP shared seed.
func AlphaThirdParty(m [][]*SymbolMatrix, a *alphabet.Alphabet, jt rng.Stream) (*Int64Matrix, error) {
	return NewEngine(1).AlphaThirdParty(m, a, jt)
}

// alphaPair is one string pair's intermediary matrix, wherever its cells
// live: a SymbolMatrix's or a wide chunk's symbols, or a narrow chunk's
// bytes.
type alphaPair struct {
	AlphaShape
	narrow []byte
	wide   []alphabet.Symbol
}

// matrixPairs lists per-pair matrices row after row in the engine's pair
// buffer, refusing a nil or inconsistent one.
func (e *Engine) matrixPairs(m [][]*SymbolMatrix) ([]alphaPair, error) {
	e.pairs = e.pairs[:0]
	for i, row := range m {
		for j, mat := range row {
			if mat == nil {
				return nil, fmt.Errorf("protocol: nil intermediary matrix at (%d,%d)", i, j)
			}
			if err := mat.validShape(); err != nil {
				return nil, fmt.Errorf("protocol: intermediary (%d,%d): %w", i, j, err)
			}
			e.pairs = append(e.pairs, alphaPair{AlphaShape: AlphaShape{Rows: mat.Rows, Cols: mat.Cols}, wide: mat.Cell})
		}
	}
	return e.pairs, nil
}

// alphaPrefix regenerates the shared mask prefix once, as long as the
// widest matrix with at least one row. Every CCM row of the serial Figure
// 10 evaluation re-initializes rngJT and consumes the same prefix the
// initiator used per string, so a single draw of the longest prefix
// reproduces every mask; jt is left rewound exactly as the per-row Reseed
// discipline leaves it.
func (e *Engine) alphaPrefix(pairs []alphaPair, a *alphabet.Alphabet, jt rng.Stream) []int {
	maxCols, anyRows := 0, false
	for _, p := range pairs {
		if p.Rows > 0 {
			anyRows = true
			maxCols = max(maxCols, p.Cols)
		}
	}
	prefix := e.symbuf(maxCols)
	if maxCols > 0 {
		rng.FillIntn(jt, prefix, a.Size())
	}
	if anyRows {
		jt.Reseed()
	}
	return prefix
}

// pairDist is Figure 10 for one pair: the fused kernel over its cells, and
// the shared range check's account of the cell that failed it.
func pairDist[T ~uint8 | ~uint16, M ~uint8 | ~int](sc *editdist.Scratch, cells []T, sh AlphaShape, mask []M, a *alphabet.Alphabet) (int, error) {
	dist, ok := editdist.FromMasked(sc, cells, sh.Rows, sh.Cols, mask, a.Size())
	if !ok {
		return 0, alphabet.InRange(a, cells)
	}
	return dist, nil
}

// alphaThirdParty is Figure 10 over a rows×cols block of string pairs: one
// mask-prefix regeneration, packed into bytes once for byte cells, then the
// per-pair kernel across the engine's workers, each with its own scratch —
// the n²/2 evaluations allocate nothing. A cell outside the alphabet fails
// the whole block, naming its pair.
func (e *Engine) alphaThirdParty(rows, cols int, pairs []alphaPair, a *alphabet.Alphabet, jt rng.Stream) (*Int64Matrix, error) {
	defer clear(pairs) // the buffer outlives the call; the caller's cells need not
	prefix := e.alphaPrefix(pairs, a, jt)
	packed := slices.Grow(e.b8[:0], len(prefix)) // byte cells' mask, when every mask fits a byte
	for _, m := range prefix {
		packed = append(packed, byte(m))
	}
	e.b8 = packed
	out := NewInt64Matrix(rows, cols)
	scratch := e.tpScratch()
	err := parallel.RangeErr(e.workers, len(pairs), func(w, lo, hi int) error {
		for idx, p := range pairs[lo:hi] {
			var dist int
			var err error
			switch {
			case p.narrow == nil:
				dist, err = pairDist(scratch[w], p.wide, p.AlphaShape, prefix, a)
			case a.Size() > 1<<8:
				dist, err = pairDist(scratch[w], p.narrow, p.AlphaShape, prefix, a)
			default:
				dist, err = pairDist(scratch[w], p.narrow, p.AlphaShape, packed, a)
			}
			if err != nil {
				return fmt.Errorf("protocol: intermediary (%d,%d): %w", (lo+idx)/cols, (lo+idx)%cols, err)
			}
			out.Cell[lo+idx] = int64(dist)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AlphaThirdParty is Figure 10 in per-pair form.
func (e *Engine) AlphaThirdParty(m [][]*SymbolMatrix, a *alphabet.Alphabet, jt rng.Stream) (*Int64Matrix, error) {
	cols := 0
	if len(m) > 0 {
		cols = len(m[0])
	}
	for i, row := range m {
		if len(row) != cols {
			return nil, fmt.Errorf("protocol: ragged intermediary matrix row %d", i)
		}
	}
	pairs, err := e.matrixPairs(m)
	if err != nil {
		return nil, err
	}
	return e.alphaThirdParty(len(m), cols, pairs, a, jt)
}

// AlphaThirdPartyChunk is Figure 10 for one received chunk — the
// responder's rows [lo, hi) — evaluated where its cells lie. The mask
// prefix drawn per chunk is a prefix of the whole block's, so the edit
// distances are bit-identical to evaluating the block at once; jt is left
// rewound either way.
func (e *Engine) AlphaThirdPartyChunk(c *AlphaChunk, lo, hi int, a *alphabet.Alphabet, jt rng.Stream) (*Int64Matrix, error) {
	if err := chunkShape(len(c.Counts), lo, hi); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	cols := 0
	for i, n := range c.Counts {
		if i == 0 {
			cols = n
		} else if n != cols {
			return nil, fmt.Errorf("protocol: ragged intermediary matrix row %d", i)
		}
	}
	e.pairs = slices.Grow(e.pairs[:0], len(c.Shapes))
	off := 0
	for _, sh := range c.Shapes {
		p, end := alphaPair{AlphaShape: sh}, off+sh.Rows*sh.Cols
		if c.Wide != nil {
			p.wide = c.Wide[off:end]
		} else {
			p.narrow = c.Narrow[off:end]
		}
		e.pairs, off = append(e.pairs, p), end
	}
	return e.alphaThirdParty(len(c.Counts), cols, e.pairs, a, jt)
}

// AlphaThirdPartyCCMs performs only the mask-stripping half of Figure 10,
// returning the decoded CCM for every pair. Exposed separately so that the
// attack experiments can inspect exactly what the third party sees.
func AlphaThirdPartyCCMs(m [][]*SymbolMatrix, a *alphabet.Alphabet, jt rng.Stream) ([][]editdist.CCM, error) {
	return NewEngine(1).AlphaThirdPartyCCMs(m, a, jt)
}

// AlphaThirdPartyCCMs is the mask-stripping half of Figure 10 on the
// engine: one prefix regeneration, then every pair's CCM, freshly
// allocated (callers keep them). A CCM cell is the edit distance between
// one character of each string, so each is the per-pair kernel's answer
// for a 1×1 matrix — there is no second comparison to keep in step.
func (e *Engine) AlphaThirdPartyCCMs(m [][]*SymbolMatrix, a *alphabet.Alphabet, jt rng.Stream) ([][]editdist.CCM, error) {
	pairs, err := e.matrixPairs(m)
	if err != nil {
		return nil, err
	}
	defer clear(pairs)
	prefix := e.alphaPrefix(pairs, a, jt)
	sc := e.tpScratch()[0]
	out := make([][]editdist.CCM, len(m))
	for i, row := range m {
		out[i] = make([]editdist.CCM, len(row))
		for j, mat := range row {
			if err := alphabet.InRange(a, mat.Cell); err != nil {
				return nil, fmt.Errorf("protocol: intermediary (%d,%d): %w", i, j, err)
			}
			ccm := editdist.NewCCM(mat.Rows, mat.Cols)
			for c := range ccm.Cell {
				d, _ := editdist.FromMasked(sc, mat.Cell[c:c+1], 1, 1, prefix[c%mat.Cols:], a.Size())
				ccm.Cell[c] = uint8(d)
			}
			out[i][j] = ccm
		}
	}
	return out, nil
}
