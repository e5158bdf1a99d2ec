package protocol

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"ppclust/internal/modp"
	"ppclust/internal/parallel"
	"ppclust/internal/rng"
)

// The numeric protocol.
//
// Numeric is the one implementation of Figures 4–6: sessions, the paper
// experiments and the attack simulations all run it. It runs a row range
// at a time over the cells a frame carries: a holder disguises its column
// and combines a peer's disguise straight into the frame being built, and
// the third party strips each chunk where it arrived. Which arithmetic the
// cells are in — int64, float64 or Z_p — and which masking mode the
// keystreams are read in are fixed by one Numeric value, so its four
// operations are the only place either is decided. Its tests compare it
// with the paper's per-cell formula (numeric_oracle_test.go), which shares
// nothing with it but the generators.

// Variant selects the arithmetic of the numeric comparison protocol.
type Variant int

const (
	// Float64Variant runs the protocol over IEEE-754 doubles (the paper's
	// "real values" remark). Distances are recovered to ≈1e-9 of the
	// plaintext value at unit scale.
	Float64Variant Variant = iota
	// Int64Variant runs the protocol over integers; values must be
	// integral and within ±2^40. Exact.
	Int64Variant
	// ModPVariant runs the protocol in Z_p with perfectly hiding masks;
	// values must be integral and below 2^62 in magnitude, so that every
	// distance |x − y| < 2^63 decodes. Exact.
	ModPVariant
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case Float64Variant:
		return "float64"
	case Int64Variant:
		return "int64"
	case ModPVariant:
		return "modp"
	default:
		return "unknown"
	}
}

// Numeric is a session's numeric comparison protocol: the arithmetic its
// cells are in and the masking mode its keystreams are read in, vetted once
// by NewNumeric. Its operations run on one pair's block with the initiator
// on either axis (Axis), a row range at a time: Disguise (Figure 4),
// Combine (Figure 5), Strip (Figure 6), and Advance, which positions the
// third party's stream for a share that starts mid-block. The zero value
// is not usable.
type Numeric struct {
	mode  Mode
	arith arith
}

// NewNumeric returns the numeric protocol of the given arithmetic and
// masking mode, refusing either when it is unknown.
func NewNumeric(v Variant, mode Mode) (Numeric, error) {
	if mode != Batch && mode != PerPair {
		return Numeric{}, fmt.Errorf("protocol: unknown masking mode %d", mode)
	}
	if v < Float64Variant || v > ModPVariant {
		return Numeric{}, fmt.Errorf("protocol: unknown numeric variant %d", v)
	}
	return Numeric{mode: mode, arith: ariths[v]}, nil
}

// ariths holds each variant's arithmetic.
var ariths = [...]arith{Float64Variant: float64Words, Int64Variant: int64Words, ModPVariant: modPCells{}}

// CellBytes is the size of one cell on the wire: 8 bytes of int64 or
// float64 bits, or a 32-byte field element.
func (n Numeric) CellBytes() int { return n.arith.cellBytes() }

// NumericChunk is a row range of a numeric payload as its frame carries it
// — a disguise one holder sends the other, or rows of the masked
// comparison matrix S for the third party: Rows×Cols cells, row-major, 8
// little-endian bytes of int64 or float64 bits each or a 32-byte
// big-endian field element. Cells aliases the received payload and is
// only read.
//
// On the wire a chunk is a block: the variant's byte (1 int64, 2 float64,
// 3 mod-p), Rows and Cols as zigzag varints, then the cells, running to
// the end of the payload. Disguise and Combine append blocks;
// DecodeNumericChunk reads one.
type NumericChunk struct {
	Rows, Cols int
	Cells      []byte
	tag        byte // the variant byte the block carried
}

// DecodeNumericChunk reads a block, refusing an unknown variant byte and a
// shape its cells do not account for exactly, so nothing is ever sized by
// a claim alone. The chunk's cells alias p.
func DecodeNumericChunk(p []byte) (NumericChunk, error) {
	if len(p) == 0 {
		return NumericChunk{}, fmt.Errorf("protocol: numeric block ends before its variant byte")
	}
	c := NumericChunk{tag: p[0]}
	a := arithOf(c.tag)
	if a == nil {
		return NumericChunk{}, fmt.Errorf("protocol: unknown numeric variant byte %d", c.tag)
	}
	p = p[1:]
	for _, dim := range []*int{&c.Rows, &c.Cols} {
		v, w := binary.Varint(p)
		if w <= 0 || v < 0 || int64(int(v)) != v {
			return NumericChunk{}, fmt.Errorf("protocol: bad numeric block dimension with %d bytes left", len(p))
		}
		*dim, p = int(v), p[w:]
	}
	size, cells := a.cellBytes(), len(p)/a.cellBytes()
	holds := cells == 0
	if c.Rows > 0 && c.Cols > 0 {
		holds = c.Rows <= cells/c.Cols && c.Rows*c.Cols == cells
	}
	if len(p)%size != 0 || !holds {
		return NumericChunk{}, fmt.Errorf("protocol: %dx%d cells of %d bytes do not account for the %d bytes left", c.Rows, c.Cols, size, len(p))
	}
	c.Cells = p[:len(p):len(p)]
	return c, nil
}

// arithOf is the arithmetic whose blocks carry the variant byte tag.
func arithOf(tag byte) arith {
	for _, a := range ariths {
		if a.tag() == tag {
			return a
		}
	}
	return nil
}

// appendBlock appends the header of a rows×cols block to dst and room for
// its cells, returning the extended dst and the cells to fill.
func (n Numeric) appendBlock(dst []byte, rows, cols int) (all, cells []byte) {
	dst = append(dst, n.arith.tag())
	dst = binary.AppendVarint(binary.AppendVarint(dst, int64(rows)), int64(cols))
	size := n.arith.cellBytes() * rows * cols
	all = slices.Grow(dst, size)[:len(dst)+size]
	return all, all[len(dst):]
}

// holds validates that c is a consistent block of this arithmetic.
func (n Numeric) holds(c NumericChunk) error {
	if c.tag != n.arith.tag() {
		return fmt.Errorf("protocol: chunk of variant byte %d, the session's is %d", c.tag, n.arith.tag())
	}
	if c.Rows < 0 || c.Cols < 0 || len(c.Cells) != n.arith.cellBytes()*c.Rows*c.Cols {
		return fmt.Errorf("protocol: inconsistent chunk %dx%d with %d bytes of %d-byte cells", c.Rows, c.Cols, len(c.Cells), n.arith.cellBytes())
	}
	return nil
}

// row returns row r's cells, size bytes each, for the destination dst.
func (c NumericChunk) row(r, size int, dst []float64) []byte {
	if len(dst) != c.Cols {
		panic(fmt.Sprintf("protocol: destination row of %d cells for a chunk of %d columns", len(dst), c.Cols))
	}
	return c.Cells[size*r*c.Cols : size*(r+1)*c.Cols]
}

// Int64s returns the cells of an int64 block, row-major, refusing a block
// of another arithmetic and cells that do not account for its shape.
func (c NumericChunk) Int64s() ([]int64, error) {
	if err := (Numeric{arith: int64Words}).holds(c); err != nil {
		return nil, err
	}
	out := make([]int64, c.Rows*c.Cols)
	for i := range out {
		out[i] = getWord[int64](c.Cells[8*i:])
	}
	return out, nil
}

// Column is a holder's values of one attribute, checked once for the
// session's arithmetic by Numeric.Column: Disguise and Combine take them
// as they are.
type Column struct {
	values []float64
	tag    byte // the variant byte of the arithmetic that checked them
}

// Column checks values for the arithmetic — integral and within its bound
// for int64 and mod-p, finite for float64 — on the float, before any
// conversion, so a column the arithmetic cannot carry is refused before
// anything is drawn, with an error that names the row.
func (n Numeric) Column(values []float64) (Column, error) {
	if err := n.arith.check(values); err != nil {
		return Column{}, err
	}
	return Column{values: values, tag: n.arith.tag()}, nil
}

// values returns col's values, refusing a column another arithmetic
// checked.
func (n Numeric) values(col Column) ([]float64, error) {
	if col.tag != n.arith.tag() {
		return nil, fmt.Errorf("protocol: a column checked for variant byte %d, the session's is %d", col.tag, n.arith.tag())
	}
	return col.values, nil
}

// RowFunc writes row r of an evaluated chunk — the distances between the
// responder's object lo+r and every initiator object — into dst, one
// element per chunk column: the shape dissim.SliceAssembler.SetCrossRowsInto
// installs from, so a distance is written once, where it stays. Calls for
// distinct rows may run concurrently; the function reads the engine's mask
// buffer and is dead once the engine is used again.
type RowFunc = func(r int, dst []float64) error

// Disguise is Figure 4: it appends rows [lo, hi) of this holder's disguise
// of its column to dst as a block — out(r, c) = R + v·σ, a mask from jt
// and a parity from jk per cell, both streams read on from one call to the
// next. With the initiator on the columns (the paper's figure) every row
// disguises the whole column, and the disguise has one row in batch mode
// and one per peer object in per-pair mode; with the initiator on the
// rows, row r disguises the column's r-th value in RowWidth(peer, mode)
// cells. peer is the other holder's object count.
func (n Numeric) Disguise(e *Engine, dst []byte, col Column, lo, hi, peer int, jk, jt rng.Stream, axis Axis) ([]byte, error) {
	values, err := n.values(col)
	if err != nil {
		return nil, err
	}
	w, rows := len(values), 1
	if n.mode == PerPair {
		rows = peer
	}
	if axis == InitiatorRows {
		w, rows = RowWidth(peer, n.mode), len(values)
	}
	if lo < 0 || lo > hi || hi > rows {
		return nil, fmt.Errorf("protocol: disguise rows [%d,%d) outside its %d rows", lo, hi, rows)
	}
	dst, cells := n.appendBlock(dst, hi-lo, w)
	n.arith.disguise(e, cells, values, lo, hi-lo, w, jk, jt, axis)
	return dst, nil
}

// Combine is Figure 5: it appends rows [lo, hi) of the block's masked
// comparison matrix S to dst as a block, combining the peer's disguise —
// held as the chunks it arrived in, its rows counted from its first — with
// this holder's column: s(m, n) = disguise + x·σ̄. With the initiator on
// the columns its values lie on the rows (row m's is its m-th; the batch
// disguise is one row every row re-reads, the per-pair one a row per row);
// with the initiator on the rows they lie on the columns, and
// disguise row m holds row m's RowWidth cells. jk is the share's parity
// stream: re-read by every call with the initiator on the columns in batch
// mode (it is left rewound), read on from one call to the next otherwise.
func (n Numeric) Combine(e *Engine, dst []byte, disguise []NumericChunk, col Column, lo, hi int, jk rng.Stream, axis Axis) ([]byte, error) {
	values, err := n.values(col)
	if err != nil {
		return nil, err
	}
	d, err := n.disguised(disguise)
	if err != nil {
		return nil, err
	}
	cols, held := d.width, d.rows
	switch {
	case axis == InitiatorRows:
		cols = len(values)
		if w := RowWidth(cols, n.mode); d.rows > 0 && d.width != w {
			return nil, fmt.Errorf("protocol: disguised rows of %d cells, want %d", d.width, w)
		}
	case n.mode == Batch:
		if d.rows != 1 {
			return nil, fmt.Errorf("protocol: batch mode expects a 1-row disguised vector, got %d rows", d.rows)
		}
		held = len(values)
	default:
		held = min(d.rows, len(values))
	}
	if lo < 0 || lo > hi || hi > held {
		return nil, fmt.Errorf("protocol: rows [%d,%d) outside the %d rows the disguise and values hold", lo, hi, held)
	}
	signs := keystream(jk, func(k int) []uint64 { return e.parities(jk, k) }, hi-lo, cols, n.mode, axis)
	dst, cells := n.appendBlock(dst, hi-lo, cols)
	if err := n.arith.combine(e, cells, d, values, lo, hi-lo, cols, signs, n.mode, axis); err != nil {
		return nil, err
	}
	return dst, nil
}

// Strip is Figure 6 over rows [lo, hi) of a block's S where they arrived:
// the masks are regenerated at once (rows.go's alignment contract applies)
// and the returned function strips them a row at a time, from the chunk's
// cells straight into the caller's destination.
func (n Numeric) Strip(e *Engine, c NumericChunk, lo, hi int, jt rng.Stream, axis Axis) (RowFunc, error) {
	if err := chunkShape(c.Rows, lo, hi); err != nil {
		return nil, err
	}
	if err := n.holds(c); err != nil {
		return nil, err
	}
	return n.arith.strip(e, c, jt, n.mode, axis), nil
}

// Advance positions jt for a third party that evaluates only rows
// [rows, ·) of a block of cols columns: it draws and discards what the
// first rows rows take of the stream — rows·cols masks in per-pair mode,
// one per row in batch mode with the initiator on the rows, through the
// draws the evaluation uses, so rejection-sampled word consumption is
// identical — leaving jt where a pass over the whole block would be.
// Batch evaluation with the initiator on the columns rewinds jt per chunk
// and needs no positioning: the call is a no-op, as it is at row 0. This
// is the entry point for TP shards whose row range starts mid-block, and
// for the share of a block that starts at its split row.
func (n Numeric) Advance(e *Engine, jt rng.Stream, rows, cols int, axis Axis) {
	if k := advanceDraws(rows, cols, n.mode, axis); k > 0 {
		n.arith.advance(e, jt, k)
	}
}

// advanceDraws is how many masks the first rows rows of a block take from
// a stream the evaluation reads on from one chunk to the next: none when it
// rewinds per chunk.
func advanceDraws(rows, cols int, mode Mode, axis Axis) int {
	if rows <= 0 || (mode == Batch && axis == InitiatorCols) {
		return 0
	}
	if axis == InitiatorRows {
		return rows * RowWidth(cols, mode)
	}
	return rows * cols
}

// disguised is a peer's disguise as the chunks it arrived in.
type disguised struct {
	chunks      []NumericChunk
	rows, width int
}

// disguised validates a disguise's chunks: blocks of this arithmetic, all
// of one width (a chunk without rows has none).
func (n Numeric) disguised(chunks []NumericChunk) (disguised, error) {
	d := disguised{chunks: chunks}
	for i, c := range chunks {
		if err := n.holds(c); err != nil {
			return d, fmt.Errorf("protocol: disguised chunk %d: %w", i, err)
		}
		if c.Rows == 0 {
			continue
		}
		if d.rows > 0 && c.Cols != d.width {
			return d, fmt.Errorf("protocol: disguised chunk %d has %d columns, the first %d", i, c.Cols, d.width)
		}
		d.rows, d.width = d.rows+c.Rows, c.Cols
	}
	return d, nil
}

// cursor walks d's rows in ascending order; size is the cell size.
func (d disguised) cursor(size int) *rowCursor { return &rowCursor{chunks: d.chunks, size: size} }

type rowCursor struct {
	chunks      []NumericChunk
	size, first int
}

// row returns disguise row r's cells; r must not decrease from call to call.
func (c *rowCursor) row(r int) []byte {
	for r >= c.first+c.chunks[0].Rows {
		c.first += c.chunks[0].Rows
		c.chunks = c.chunks[1:]
	}
	k, b := r-c.first, c.size*c.chunks[0].Cols
	return c.chunks[0].Cells[k*b : (k+1)*b]
}

// arith is one variant's arithmetic behind the four operations: its cell
// layout, its value checks, and the kernels of Figures 4–6.
type arith interface {
	tag() byte
	cellBytes() int
	// check refuses a column the arithmetic cannot carry, naming the row.
	check(values []float64) error
	// disguise writes rows×w disguised cells into out (Disguise).
	disguise(e *Engine, out []byte, values []float64, lo, rows, w int, jk, jt rng.Stream, axis Axis)
	// combine writes rows×cols cells of S into out (Combine).
	combine(e *Engine, out []byte, d disguised, values []float64, lo, rows, cols int, signs []uint64, mode Mode, axis Axis) error
	// strip regenerates c's masks and returns its row function (Strip).
	strip(e *Engine, c NumericChunk, jt rng.Stream, mode Mode, axis Axis) RowFunc
	// advance draws and discards n masks (Advance).
	advance(e *Engine, jt rng.Stream, n int)
}

// word is a machine-word arithmetic's cell type. Its cell is the word's
// own bits, little-endian — two's complement or IEEE-754 — so one kernel
// per figure serves both.
type word interface{ int64 | float64 }

func getWord[T word](b []byte) T {
	u := binary.LittleEndian.Uint64(b)
	return *(*T)(unsafe.Pointer(&u))
}

func putWord[T word](b []byte, v T) {
	binary.LittleEndian.PutUint64(b, *(*uint64)(unsafe.Pointer(&v)))
}

// words is the int64 or float64 arithmetic: draw fills n masks from jt
// into an engine buffer, check vets a column.
type words[T word] struct {
	variantByte byte
	draw        func(e *Engine, jt rng.Stream, n int) []T
	vet         func(values []float64) error
}

var (
	int64Words = words[int64]{
		variantByte: 1,
		draw:        func(e *Engine, jt rng.Stream, n int) []int64 { return e.intDraws(jt, n, Int64MaskRange) },
		vet:         func(values []float64) error { return integers(values, intMaxMagnitude) },
	}
	float64Words = words[float64]{
		variantByte: 2,
		draw: func(e *Engine, jt rng.Stream, n int) []float64 {
			return e.floatDraws(jt, n, DefaultFloatParams.MaskRange)
		},
		vet: func(values []float64) error {
			for i, v := range values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("protocol: value %v at row %d is not finite", v, i)
				}
			}
			return nil
		},
	}
)

func (a words[T]) tag() byte                    { return a.variantByte }
func (words[T]) cellBytes() int                 { return 8 }
func (a words[T]) check(values []float64) error { return a.vet(values) }

func (a words[T]) disguise(e *Engine, out []byte, values []float64, lo, rows, w int, jk, jt rng.Stream, axis Axis) {
	masks := a.draw(e, jt, rows*w)
	signs := e.parities(jk, rows*w)
	parallel.Range(e.workers, rows, func(_, from, to int) {
		for m := from; m < to; m++ {
			row := values // the initiator on the columns: every row disguises the column
			if axis == InitiatorRows {
				row = values[lo+m : lo+m+1]
			}
			disguiseRow(out[8*m*w:8*(m+1)*w], row, masks[m*w:(m+1)*w], signs[m*w:(m+1)*w])
		}
	})
}

func (words[T]) combine(e *Engine, out []byte, d disguised, values []float64, lo, rows, cols int, signs []uint64, mode Mode, axis Axis) error {
	parallel.Range(e.workers, rows, func(_, from, to int) {
		src := d.cursor(8)
		for m := from; m < to; m++ {
			dst := out[8*m*cols : 8*(m+1)*cols]
			if axis == InitiatorCols {
				combineRow(dst, src.row(drawIndex(lo+m, mode)), T(values[lo+m]), drawRow(signs, m, cols, mode))
				continue
			}
			w := RowWidth(cols, mode)
			combineCols[T](dst, src.row(lo+m), values, signs[m*w:(m+1)*w])
		}
	})
	return nil
}

func (a words[T]) strip(e *Engine, c NumericChunk, jt rng.Stream, mode Mode, axis Axis) RowFunc {
	masks := keystream(jt, func(k int) []T { return a.draw(e, jt, k) }, c.Rows, c.Cols, mode, axis)
	return func(r int, dst []float64) error {
		stripRow(dst, c.row(r, 8, dst), maskRow(masks, r, c.Cols, mode, axis))
		return nil
	}
}

func (a words[T]) advance(e *Engine, jt rng.Stream, n int) { a.draw(e, jt, n) }

// The per-row kernels of Figures 4–6 are functions of their own: written
// out in the closures parallel.Range and Strip run, getWord, putWord and
// the parity helpers compiled to a call per cell (go1.24, amd64), which
// more than doubled the time of a 600×600 Combine.

// disguiseRow writes a disguise row, out(c) = R(c) + v·σ(c): v is the
// column's c-th value, or the one value given in every cell.
func disguiseRow[T word](out []byte, values []float64, masks []T, signs []uint64) {
	for c, g := range signs {
		putWord(out[8*c:], masks[c]+T(values[min(c, len(values)-1)])*T(negSignInitiator(g)))
	}
}

// combineRow writes a row of S with the initiator on the columns:
// s(n) = disguise(n) + y·σ̄(n).
func combineRow[T word](dst, disguise []byte, y T, signs []uint64) {
	for n, g := range signs {
		putWord(dst[8*n:], getWord[T](disguise[8*n:])+y*T(negSignResponder(g)))
	}
}

// combineCols writes a row of S with the initiator on the rows:
// s(n) = disguise(n) + x_n·σ̄(n), the disguise and its parity one cell in
// batch mode.
func combineCols[T word](dst, disguise []byte, values []float64, signs []uint64) {
	if len(signs) == 1 {
		d, sg := getWord[T](disguise), T(negSignResponder(signs[0]))
		for n, x := range values {
			putWord(dst[8*n:], d+T(x)*sg)
		}
		return
	}
	for n, x := range values {
		putWord(dst[8*n:], getWord[T](disguise[8*n:])+T(x)*T(negSignResponder(signs[n])))
	}
}

// stripRow writes |s(n) − R(n)| into dst, the mask one cell when it
// serves the whole row.
func stripRow[T word](dst []float64, s []byte, masks []T) {
	if len(masks) == 1 {
		for n := range dst {
			dst[n] = math.Abs(float64(getWord[T](s[8*n:]) - masks[0]))
		}
		return
	}
	for n := range dst {
		dst[n] = math.Abs(float64(getWord[T](s[8*n:]) - masks[n]))
	}
}

// integers refuses a value that is not an integer of magnitude at most
// max. Both checks are made on the float, before any conversion: Go leaves
// the conversion of an out-of-range float to int64 to the implementation.
func integers(values []float64, max float64) error {
	for i, v := range values {
		if v != math.Trunc(v) {
			return fmt.Errorf("protocol: value %v at row %d is not integral (required by the int64/modp variants)", v, i)
		}
		if math.Abs(v) > max {
			return fmt.Errorf("protocol: value %v at row %d exceeds magnitude bound %.0f", v, i, max)
		}
	}
	return nil
}

// modPMax is the largest magnitude the mod-p arithmetic takes: the
// largest float64 below 2^62, so every distance |x − y| < 2^63 decodes.
const modPMax = 1<<62 - 512

// modPCells is the Z_p arithmetic (p = 2^255 − 19): 32-byte big-endian
// residues, masks drawn uniformly from the whole field, big-integer
// arithmetic. A uniform additive mask over Z_p is a one-time pad, so a
// disguised value R + σx carries no information about x, where the int64
// arithmetic's bounded masks hide it only statistically.
type modPCells struct{}

func (modPCells) tag() byte                    { return 3 }
func (modPCells) cellBytes() int               { return 32 }
func (modPCells) check(values []float64) error { return integers(values, modPMax) }

func (modPCells) disguise(e *Engine, out []byte, values []float64, lo, rows, w int, jk, jt rng.Stream, axis Axis) {
	masks := e.modpDraws(jt, rows*w)
	signs := e.parities(jk, rows*w)
	parallel.Range(e.workers, rows, func(_, from, to int) {
		for m := from; m < to; m++ {
			row := values // as words.disguise
			if axis == InitiatorRows {
				row = values[lo+m : lo+m+1]
			}
			for c := m * w; c < (m+1)*w; c++ {
				y := modp.FromInt64(int64(row[min(c-m*w, len(row)-1)]))
				if negSignInitiator(signs[c]) < 0 {
					y = y.Neg()
				}
				cell := masks[c].Add(y).Bytes()
				copy(out[32*c:], cell[:])
			}
		}
	})
}

func (modPCells) combine(e *Engine, out []byte, d disguised, values []float64, lo, rows, cols int, signs []uint64, mode Mode, axis Axis) error {
	return parallel.RangeErr(e.workers, rows, func(_, from, to int) error {
		src := d.cursor(32)
		for m := from; m < to; m++ {
			// Row m's disguise row and parities, and its value with the
			// initiator on the columns.
			r, w, sign, x := lo+m, RowWidth(cols, mode), signs, 0.0
			if axis == InitiatorCols {
				r, w, sign, x = drawIndex(lo+m, mode), cols, drawRow(signs, m, cols, mode), values[lo+m]
			} else {
				sign = signs[m*w : (m+1)*w]
			}
			s := src.row(r)
			for n := range cols {
				if axis == InitiatorRows {
					x = values[n]
				}
				c := min(n, w-1)
				dd, err := modp.FromBytes([32]byte(s[32*c:]))
				if err != nil {
					return fmt.Errorf("protocol: disguised(%d,%d): %w", r, c, err)
				}
				v := modp.FromInt64(int64(x))
				if negSignResponder(sign[c]) < 0 {
					v = v.Neg()
				}
				cell := dd.Add(v).Bytes()
				copy(out[32*(m*cols+n):], cell[:])
			}
		}
		return nil
	})
}

func (modPCells) strip(e *Engine, c NumericChunk, jt rng.Stream, mode Mode, axis Axis) RowFunc {
	masks := e.modpMasks(jt, c.Rows, c.Cols, mode, axis)
	return func(r int, dst []float64) error {
		src, mask := c.row(r, 32, dst), maskRow(masks, r, c.Cols, mode, axis)
		for n := range dst {
			abs, err := unmaskModP([32]byte(src[32*n:]), mask[min(n, len(mask)-1)], r, n)
			if err != nil {
				return err
			}
			dst[n] = float64(abs)
		}
		return nil
	}
}

func (modPCells) advance(_ *Engine, jt rng.Stream, n int) {
	for ; n > 0; n-- {
		modp.Random(jt)
	}
}

// modpMasks is the Z_p form of keystream's mask draw.
func (eng *Engine) modpMasks(jt rng.Stream, rows, cols int, mode Mode, axis Axis) []modp.Element {
	return keystream(jt, func(n int) []modp.Element { return eng.modpDraws(jt, n) }, rows, cols, mode, axis)
}

// modpDraws is the Z_p form of intDraws.
func (eng *Engine) modpDraws(jt rng.Stream, n int) []modp.Element {
	m := eng.elembuf(n)
	for i := range m {
		m[i] = modp.Random(jt)
	}
	return m
}

// unmaskModP strips the mask from the cell at chunk position (m, n) and
// decodes |x−y| from the signed embedding.
func unmaskModP(cell [32]byte, mask modp.Element, m, n int) (int64, error) {
	v, err := modp.FromBytes(cell)
	if err != nil {
		return 0, fmt.Errorf("protocol: s(%d,%d): %w", m, n, err)
	}
	abs, err := v.Sub(mask).AbsInt64()
	if err != nil {
		return 0, fmt.Errorf("protocol: decoding distance (%d,%d): %w", m, n, err)
	}
	return abs, nil
}
