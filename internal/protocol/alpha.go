package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"unsafe"

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
// One implementation per figure, parameterised by the cell width: the
// Figure 9 arithmetic is diffPacked (diffWide above 256 symbols) and the
// Figure 10 per-pair evaluation is editdist.FromMasked (FromMaskedSymbols).
// The session runs both over an AlphaChunk — one cell slab per chunk of
// responder rows, packed at the alphabet's width in the layout the wire
// carries — and the responder reads the initiator's disguised strings in
// the same layout (AlphaStrings). The per-pair forms over SymbolMatrix
// (AlphaResponder, AlphaThirdParty, AlphaThirdPartyRows), kept for the
// benchmark's replay of a session and for the paper experiments that print
// one pair's matrix, keep one symbol a cell, the 16-bit case of the same
// two kernels.

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

// AlphaCellBits is the width of one intermediary cell, and of one
// disguised symbol, for alphabet a: the smallest of 2, 4 and 8 bits whose
// range holds every symbol, or 16 bits above 256 symbols. It is a property
// of the public alphabet, never of the data.
func AlphaCellBits(a *alphabet.Alphabet) int {
	for _, bits := range []int{2, 4, 8} {
		if a.Size() <= 1<<bits {
			return bits
		}
	}
	return 16
}

// AlphaRowBytes is the length of one row of cols cells of the given width:
// ⌈cols·bits/8⌉ bytes, the fields padded with zero bits to a whole byte.
// Every slab length — a chunk's, the disguised strings', the cost model's —
// is a sum of these.
func AlphaRowBytes(cols, bits int) int { return (cols*bits + 7) / 8 }

// AlphaChunk is the intermediary matrices of a run of responder rows the
// way the responder→TP frame carries them: the number of matrices in each
// row, every matrix's shape row after row, and one slab holding every
// matrix's cells. In the slab the matrices lie back to back, a matrix's
// rows back to back, and a row is its cells as little-endian Bits-wide
// fields, padded with zero bits to a whole byte (AlphaRowBytes). Bits is
// AlphaCellBits of the alphabet: 2, 4 or 8 with the slab in Packed, or 16
// with one symbol a cell in Wide and Packed nil. A responder fills one
// chunk per frame and reuses its storage for the next; a decoded chunk's
// Packed is the received payload itself, which nothing here writes.
type AlphaChunk struct {
	Counts []int
	Shapes []AlphaShape
	Bits   int
	Packed []byte
	Wide   []alphabet.Symbol
}

// Validate checks that the counts account for the shapes and the shapes
// for the slab at the chunk's width, so that an evaluation cannot index
// outside either.
func (c *AlphaChunk) Validate() error {
	mats := 0
	for _, n := range c.Counts {
		if n < 0 || n > len(c.Shapes)-mats {
			return fmt.Errorf("protocol: chunk rows claim more than its %d matrices", len(c.Shapes))
		}
		mats += n
	}
	if mats != len(c.Shapes) {
		return fmt.Errorf("protocol: inconsistent chunk: %d of %d matrices in rows", mats, len(c.Shapes))
	}
	if wide := c.Bits == 16; !validBits(c.Bits) || wide && c.Packed != nil || !wide && c.Wide != nil {
		return fmt.Errorf("protocol: chunk of %d-bit cells with %d packed bytes and %d wide symbols", c.Bits, len(c.Packed), len(c.Wide))
	}
	return slabHolds(len(c.Packed)+2*len(c.Wide), c.Bits, len(c.Shapes), func(i int) (int, int) {
		return c.Shapes[i].Rows, c.Shapes[i].Cols
	})
}

func validBits(bits int) bool { return bits == 2 || bits == 4 || bits == 8 || bits == 16 }

// slabHolds checks that n matrices of the given shapes, at bits a cell,
// account for exactly size bytes, without overflowing on a shape a peer
// claimed.
func slabHolds(size, bits, n int, shape func(i int) (rows, cols int)) error {
	left := size
	for i := range n {
		rows, cols := shape(i)
		if rows < 0 || cols < 0 || rows > 0 && cols > 0 && (cols > left*8/bits || rows > left/AlphaRowBytes(cols, bits)) {
			return fmt.Errorf("protocol: matrix %d is %dx%d cells of %d bits with %d of %d bytes left", i, rows, cols, bits, left, size)
		}
		left -= rows * AlphaRowBytes(cols, bits)
	}
	if left != 0 {
		return fmt.Errorf("protocol: %d of %d slab bytes in no matrix", left, size)
	}
	return nil
}

// AppendSlab appends the slab as the wire carries it: packed bytes as they
// lie, a wide slab two little-endian bytes a symbol.
func (c *AlphaChunk) AppendSlab(dst []byte) []byte {
	if c.Wide == nil {
		return append(dst, c.Packed...)
	}
	dst = slices.Grow(dst, 2*len(c.Wide))
	for _, s := range c.Wide {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(s))
	}
	return dst
}

// SetSlab installs a received slab of bits-wide cells and validates the
// chunk against it. A packed slab is p itself, capped at its length so no
// evaluation reads past it; a 16-bit slab is decoded into a Wide slab of
// its own.
func (c *AlphaChunk) SetSlab(bits int, p []byte) error {
	c.Bits, c.Packed, c.Wide = bits, nil, nil
	switch {
	case bits != 16:
		c.Packed = p[:len(p):len(p)]
	case len(p)%2 != 0:
		return fmt.Errorf("protocol: %d bytes of 16-bit cells", len(p))
	default:
		c.Wide = make([]alphabet.Symbol, len(p)/2)
		for i := range c.Wide {
			c.Wide[i] = alphabet.Symbol(binary.LittleEndian.Uint16(p[2*i:]))
		}
	}
	return c.Validate()
}

// ErrCellWidth classifies alphanumeric cells or disguised symbols whose
// width is not their alphabet's AlphaCellBits.
var ErrCellWidth = errors.New("protocol: cell width is not the alphabet's")

// AlphaStrings is a run of strings the way the initiator→responder frame
// carries them: every string's length, and one slab holding every string
// as one row of AlphaChunk's layout at Bits bits a symbol (16: two
// little-endian bytes), back to back — the words the Figure 9 kernel
// reads.
type AlphaStrings struct {
	Bits int
	Lens []int
	Slab []byte
}

// PackAlphaStrings lays strings out at bits bits a symbol.
func PackAlphaStrings(strs []SymbolString, bits int) AlphaStrings {
	s := AlphaStrings{Bits: bits, Lens: make([]int, len(strs))}
	size := 0
	for i, t := range strs {
		s.Lens[i] = len(t)
		size += AlphaRowBytes(len(t), bits)
	}
	s.Slab = make([]byte, size)
	off := 0
	for _, t := range strs {
		for j, sym := range t {
			setField(s.Slab[off:], j, bits, int(sym))
		}
		off += AlphaRowBytes(len(t), bits)
	}
	return s
}

// Validate checks that the lengths account for exactly the slab at the
// strings' width.
func (s *AlphaStrings) Validate() error {
	if !validBits(s.Bits) {
		return fmt.Errorf("protocol: strings of %d-bit symbols", s.Bits)
	}
	return slabHolds(len(s.Slab), s.Bits, len(s.Lens), func(i int) (int, int) { return 1, s.Lens[i] })
}

// InAlphabet checks that the strings are laid out at a's width, every
// symbol belongs to a and every padding bit is zero.
func (s *AlphaStrings) InAlphabet(a *alphabet.Alphabet) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if want := AlphaCellBits(a); s.Bits != want {
		return fmt.Errorf("%w: strings of %d-bit symbols, %s takes %d", ErrCellWidth, s.Bits, a, want)
	}
	off := 0
	for i, n := range s.Lens {
		rb := AlphaRowBytes(n, s.Bits)
		if err := rowsInRange(a, s.Slab[off:off+rb], s.Bits, 1, n); err != nil {
			return fmt.Errorf("protocol: disguised string %d: %w", i, err)
		}
		off += rb
	}
	return nil
}

// field returns field j of a row of bits-wide fields.
func field(row []byte, j, bits int) int {
	if bits == 16 {
		return int(binary.LittleEndian.Uint16(row[2*j:]))
	}
	return int(row[j*bits/8] >> (j * bits % 8) & (1<<bits - 1))
}

// setField sets field j of a row of bits-wide fields, zero until now, to v.
func setField(row []byte, j, bits, v int) {
	if bits == 16 {
		binary.LittleEndian.PutUint16(row[2*j:], uint16(v))
		return
	}
	row[j*bits/8] |= byte(v << (j * bits % 8))
}

// rowsInRange reports, as alphabet.InRange does, the first field of
// rows×cols bits-wide cells that is outside a, numbering the cells row
// after row; or the first row whose padding is not zero.
func rowsInRange(a *alphabet.Alphabet, p []byte, bits, rows, cols int) error {
	rb := AlphaRowBytes(cols, bits)
	for i := range rows {
		row := p[i*rb : (i+1)*rb]
		for j := range cols {
			if s := field(row, j, bits); s >= a.Size() {
				return &alphabet.RangeError{Alphabet: a, Value: s, Position: i*cols + j}
			}
		}
		if used := cols*bits - 8*(rb-1); rb > 0 && row[rb-1]>>used != 0 {
			return &alphabet.RangeError{Alphabet: a, Value: int(row[rb-1] >> used), Position: (i+1)*cols - 1, Padding: true}
		}
	}
	return nil
}

// AlphaInitiator is Figure 8, run at site DHJ: disguise every string with
// the shared mask stream, re-initializing jt after each string so all
// strings share the mask prefix; jt must be freshly seeded. Because every
// string is masked by the same stream prefix, the engine draws the prefix
// once — up to the longest string — and disguises all strings from it in
// parallel, leaving jt rewound exactly as the per-string Reseed discipline
// does.
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

// AlphaResponder is Figure 9 in per-pair form: the intermediary difference
// matrix of every (own, disguised) string pair, result[m][n] for own
// string m versus disguised string n, each with the own string's
// characters as rows. It is the whole block as one chunk of one symbol a
// cell, with a SymbolMatrix view cut out of its slab for every pair.
// Sessions run AlphaResponderChunk; this form serves benchmark/replay.go
// and the paper experiments in cmd/ppc-bench (Figure 7, E16).
func (e *Engine) AlphaResponder(own []SymbolString, disguised []SymbolString, a *alphabet.Alphabet) [][]*SymbolMatrix {
	var c AlphaChunk
	d := PackAlphaStrings(disguised, 16)
	e.AlphaResponderChunk(&c, own, &d, a)
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
// strings of the chunk's rows, disguised the initiator's disguised strings
// as they arrived, and c — whose storage is reused — comes back holding
// their intermediary matrices at the strings' width. Symbols on both sides
// must belong to the alphabet (AlphaStrings.InAlphabet).
//
// Every cell is sp[p] − t[q] modulo the alphabet size, for own string t,
// disguised string sp and every character pair: pure per-cell arithmetic
// at fixed positions, parallel over own strings and bit-identical at any
// worker count.
func (e *Engine) AlphaResponderChunk(c *AlphaChunk, own []SymbolString, disguised *AlphaStrings, a *alphabet.Alphabet) {
	bits, n := disguised.Bits, a.Size()
	width := 0 // bytes one own character contributes: a row against every disguised string
	for _, cols := range disguised.Lens {
		width += AlphaRowBytes(cols, bits)
	}
	c.Counts, c.Shapes, c.Bits = c.Counts[:0], c.Shapes[:0], bits
	size := 0
	for _, t := range own {
		c.Counts = append(c.Counts, len(disguised.Lens))
		for _, cols := range disguised.Lens {
			c.Shapes = append(c.Shapes, AlphaShape{Rows: len(t), Cols: cols})
		}
		size += len(t) * width
	}
	if bits == 16 {
		c.Packed, c.Wide = nil, slices.Grow(c.Wide[:0], size/2)[:size/2]
	} else {
		c.Packed, c.Wide = slices.Grow(c.Packed[:0], size)[:size], nil
	}
	diff := diffPacked[uint32]
	switch bits {
	case 2:
		diff = diffPacked[uint8]
	case 4:
		diff = diffPacked[uint16]
	}
	var wide []alphabet.Symbol // 16-bit strings, a symbol each
	if bits == 16 {
		wide = make([]alphabet.Symbol, len(disguised.Slab)/2)
		for i := range wide {
			wide[i] = alphabet.Symbol(field(disguised.Slab, i, 16))
		}
	}
	parallel.Range(e.workers, len(own), func(_, lo, hi int) {
		off, end := 0, 0
		for i, t := range own[:hi] {
			if i < lo {
				off += len(t) * width
			}
			end += len(t) * width
		}
		for _, t := range own[lo:hi] {
			from := 0
			for _, cols := range disguised.Lens {
				rb := AlphaRowBytes(cols, bits)
				sp := disguised.Slab[from:]
				if bits == 16 {
					diffWide(c.Wide[off/2:(off+len(t)*rb)/2], t, wide[from/2:(from+rb)/2], n)
				} else {
					diff(c.Packed[off:end:end], t, sp, cols, n)
				}
				off, from = off+len(t)*rb, from+rb
			}
		}
	})
}

// width tags a kernel with its field width at compile time: instantiated
// for W, it works on fields of 2·Sizeof(W) bits — 2 for uint8, 4 for
// uint16, 8 for uint32 — so every field mask and shift in it is a constant.
type width interface{ uint8 | uint16 | uint32 }

func fieldBits[W width]() int {
	var w W
	return 2 * int(unsafe.Sizeof(w))
}

// diffPacked is one pair's rows for the disguised string at the start of
// sp, cols symbols long, against own string t, modulo n: each word of sp
// is loaded once and differenced with every own character broadcast to
// every field. The rows' last words, with their padding fields masked to
// zero — unmasked they would hold −t[q], the responder's own character —
// go first: stored whole, each runs into the next row's first word, which
// the later passes (or, for one-word rows, the next row's own last word)
// overwrite; dst ends where the worker's rows do, and a store that would
// cross its end is cut to the row's bytes.
//
// The subtraction is per field with the borrows kept inside their fields,
// then 2^bits − n taken off each field that borrowed. Such a field holds
// x − y + 2^bits, at least 2^bits − n + 1, so the fix-up wraps it to x − y
// + n without borrowing from its neighbour; for n = 2^bits the field
// arithmetic is already modulo n.
func diffPacked[W width](dst []byte, t SymbolString, sp []byte, cols, n int) {
	bits := fieldBits[W]()
	rb := AlphaRowBytes(cols, bits)
	if rb == 0 {
		return
	}
	ones := ^uint64(0) / (1<<bits - 1)
	high, wrap := ones<<(bits-1), uint64(1<<bits-n)
	sub := func(x, y uint64) uint64 {
		e := ^(x ^ y)
		d := (x | high) - (y &^ high) ^ e&high
		borrow := (^x&y | e&d) & high
		return d - borrow>>(bits-1)*wrap
	}
	last := (rb - 1) / 8
	keep := ^uint64(0) >> (64 - (cols*bits - 64*last))
	x := load(sp, 8*last) & keep
	for q, tq := range t {
		d, at := sub(x, uint64(tq)*ones)&keep, q*rb+8*last
		if at+8 <= len(dst) {
			binary.LittleEndian.PutUint64(dst[at:], d)
			continue
		}
		for k := at; k < q*rb+rb; k++ {
			dst[k] = byte(d)
			d >>= 8
		}
	}
	for i := range last {
		x := binary.LittleEndian.Uint64(sp[8*i:])
		for q, tq := range t {
			binary.LittleEndian.PutUint64(dst[q*rb+8*i:], sub(x, uint64(tq)*ones))
		}
	}
}

// load returns the little-endian word at p[off:], read up to p's capacity
// or, within 8 bytes of it, from the bytes p's length has left.
func load(p []byte, off int) uint64 {
	if off+8 <= cap(p) {
		return binary.LittleEndian.Uint64(p[off : off+8])
	}
	var x uint64
	for i := len(p) - 1; i >= off; i-- {
		x = x<<8 | uint64(p[i])
	}
	return x
}

// diffWide is one pair's cells one symbol at a time. Operands are
// symbols, so one conditional add reduces the difference.
func diffWide(dst []alphabet.Symbol, t, sp SymbolString, n int) {
	for _, tq := range t {
		row := dst[:len(sp)]
		for p, spp := range sp {
			d := int(spp) - int(tq)
			if d < 0 {
				d += n
			}
			row[p] = alphabet.Symbol(d)
		}
		dst = dst[len(sp):]
	}
}

// alphaPair is one string pair's intermediary matrix, wherever its cells
// live: a SymbolMatrix's or a wide chunk's symbols, or a packed chunk's
// rows.
type alphaPair struct {
	AlphaShape
	packed []byte
	wide   []alphabet.Symbol
}

// outside is the InRange-class account of the cell or padding bit that
// failed the pair's evaluation.
func (p alphaPair) outside(a *alphabet.Alphabet, bits int) error {
	var err error
	if bits == 16 {
		err = alphabet.InRange(a, p.wide)
	} else {
		err = rowsInRange(a, p.packed, bits, p.Rows, p.Cols)
	}
	if err == nil {
		err = fmt.Errorf("a cell outside %s", a)
	}
	return err
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

// alphaThirdParty is Figure 10 over a rows×cols block of string pairs of
// bits-wide cells: one mask-prefix regeneration, packed at the cells' width
// once, then the per-pair kernel across the engine's workers, each with its
// own scratch — the n²/2 evaluations allocate nothing. A cell outside the
// alphabet, or a padding bit, fails the whole block, naming its pair.
func (e *Engine) alphaThirdParty(rows, cols, bits int, pairs []alphaPair, a *alphabet.Alphabet, jt rng.Stream) (*Int64Matrix, error) {
	defer clear(pairs) // the buffer outlives the call; the caller's cells need not
	prefix := e.alphaPrefix(pairs, a, jt)
	var mask []byte // the prefix in the cells' layout, for packed cells
	if bits != 16 {
		mask = slices.Grow(e.b8[:0], AlphaRowBytes(len(prefix), bits))[:AlphaRowBytes(len(prefix), bits)]
		clear(mask)
		for j, m := range prefix {
			setField(mask, j, bits, m)
		}
		e.b8 = mask
	}
	out := NewInt64Matrix(rows, cols)
	scratch := e.tpScratch()
	n := a.Size()
	err := parallel.RangeErr(e.workers, len(pairs), func(w, lo, hi int) error {
		for idx, p := range pairs[lo:hi] {
			var dist int
			var ok bool
			if bits == 16 {
				dist, ok = editdist.FromMaskedSymbols(scratch[w], p.wide, p.Rows, p.Cols, prefix, n)
			} else {
				dist, ok = editdist.FromMasked(scratch[w], p.packed, bits, p.Rows, p.Cols, mask, n)
			}
			if !ok {
				return fmt.Errorf("protocol: intermediary (%d,%d): %w", (lo+idx)/cols, (lo+idx)%cols, p.outside(a, bits))
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

// AlphaThirdParty is Figure 10 in per-pair form: regenerate the mask
// prefix and compute the edit distance from each intermediary matrix,
// out[m][n] = editdist(own string m, initiator string n). jt must be
// freshly seeded with the initiator–TP shared seed. Sessions run
// AlphaThirdPartyChunk; this form serves AlphaThirdPartyRows and Figure 7's
// worked example in cmd/ppc-bench.
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
	return e.alphaThirdParty(len(m), cols, 16, pairs, a, jt)
}

// AlphaThirdPartyChunk is Figure 10 for one received chunk — the
// responder's rows [lo, hi) — evaluated where its cells lie. A chunk whose
// cells are not the alphabet's width is refused. The mask prefix drawn per
// chunk is a prefix of the whole block's, so the edit distances are
// bit-identical to evaluating the block at once; jt is left rewound either
// way.
func (e *Engine) AlphaThirdPartyChunk(c *AlphaChunk, lo, hi int, a *alphabet.Alphabet, jt rng.Stream) (*Int64Matrix, error) {
	if err := chunkShape(len(c.Counts), lo, hi); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if want := AlphaCellBits(a); c.Bits != want {
		return nil, fmt.Errorf("%w: chunk of %d-bit cells, %s takes %d", ErrCellWidth, c.Bits, a, want)
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
		p := alphaPair{AlphaShape: sh}
		if c.Wide != nil {
			p.wide = c.Wide[off/2 : off/2+sh.Rows*sh.Cols]
		} else {
			p.packed = c.Packed[off : off+sh.Rows*AlphaRowBytes(sh.Cols, c.Bits)]
		}
		e.pairs, off = append(e.pairs, p), off+sh.Rows*AlphaRowBytes(sh.Cols, c.Bits)
	}
	return e.alphaThirdParty(len(c.Counts), cols, c.Bits, e.pairs, a, jt)
}
