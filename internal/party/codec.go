package party

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"ppclust/internal/protocol"
)

// Fixed binary layouts of the six partition-quadratic bodies
// (wire.BodyAppender / wire.BodyDecoder; every other body stays gob).
// Integers are zigzag varints; cells are little-endian 8-byte int64 or
// float64 bit patterns, 32-byte mod-p elements, or alphanumeric symbols in
// protocol.AlphaChunk's layout. Each layout ends in a cell block that runs
// to the end of the payload, so a decoder sizes its allocations from the
// bytes actually present.
//
//	localBody         N Lo Hi | float64 cells
//	numSBody          Rows Lo Hi | variant byte | rows cols | cells
//	                  (a protocol.NumericChunk block; the disguise a
//	                  holder sends its peer has the same layout)
//	alphaDisguisedBody
//	                  bits byte | strings | per string: length | slab
//	                  (a protocol.AlphaStrings: each string one row)
//	alphaMBody        Rows Lo Hi | bits byte | rows matrices |
//	                  per row: count, per matrix: rows cols | slab
//	                  (a protocol.AlphaChunk, slab and all)
//	shardSliceBody    Attr | float64 Max | float64 cells
//	shardFrameBody    the relayed frame, byte for byte
//
// The bits byte is the alphabet's cell width, protocol.AlphaCellBits: 2, 4
// or 8 for an alphabet of at most 4, 16 or 256 symbols, 16 above. A slab
// is rows back to back, a row its cells as little-endian bits-wide fields
// padded with zero bits to a whole byte (16-bit cells: two little-endian
// bytes each). The codec copies the slab as it lies and leaves its
// accounting to the protocol types' Validate; the receiver refuses a width
// that is not its schema's, and a padding bit that is set.

func appendInts(dst []byte, vs ...int) []byte {
	for _, v := range vs {
		dst = binary.AppendVarint(dst, int64(v))
	}
	return dst
}

// extend grows dst by n bytes and returns it with the new tail to fill.
func extend(dst []byte, n int) (all, tail []byte) {
	all = slices.Grow(dst, n)[:len(dst)+n]
	return all, all[len(dst):]
}

func appendFloat64s(dst []byte, cells []float64) []byte {
	dst, tail := extend(dst, 8*len(cells))
	for i, v := range cells {
		binary.LittleEndian.PutUint64(tail[8*i:], math.Float64bits(v))
	}
	return dst
}

// bodyReader walks a payload with a sticky error, so a decoder reads its
// header fields unconditionally and checks once.
type bodyReader struct {
	p   []byte
	err error
}

func (r *bodyReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *bodyReader) int() int {
	v, w := binary.Varint(r.p)
	if w <= 0 || int64(int(v)) != v {
		r.fail("bad integer with %d bytes left", len(r.p))
		r.p = nil
		return 0
	}
	r.p = r.p[w:]
	return int(v)
}

// count reads a non-negative integer — a dimension or an element count.
func (r *bodyReader) count() int {
	v := r.int()
	if v < 0 {
		r.fail("negative count %d", v)
		return 0
	}
	return v
}

func (r *bodyReader) tag() byte {
	if len(r.p) == 0 {
		r.fail("payload ends before a tag byte")
		return 0
	}
	b := r.p[0]
	r.p = r.p[1:]
	return b
}

func float64s(p []byte) []float64 {
	out := make([]float64, len(p)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

func (b localBody) AppendBody(dst []byte) ([]byte, error) {
	return appendFloat64s(appendInts(dst, b.N, b.Lo, b.Hi), b.Cells), nil
}

// DecodeBody keeps the cell block where it is: the received Message owns
// its payload, and the assembler reads the cells out of it.
func (b *localBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	*b = localBody{N: r.int(), Lo: r.int(), Hi: r.int()}
	if r.err == nil && len(r.p)%8 != 0 {
		r.fail("%d trailing bytes after the last cell", len(r.p)%8)
	}
	b.wire = r.p
	return r.err
}

func (b shardSliceBody) AppendBody(dst []byte) ([]byte, error) {
	dst = appendFloat64s(appendInts(dst, b.Attr), []float64{b.Max})
	return appendFloat64s(dst, b.Cells), nil
}

func (b *shardSliceBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	b.Attr = r.int()
	if r.err == nil && (len(r.p) < 8 || len(r.p)%8 != 0) {
		r.fail("%d bytes left do not hold a maximum and whole cells", len(r.p))
	}
	if r.err != nil {
		return r.err
	}
	b.Max = math.Float64frombits(binary.LittleEndian.Uint64(r.p))
	b.Cells = float64s(r.p[8:])
	return nil
}

func (b shardFrameBody) AppendBody(dst []byte) ([]byte, error) {
	return append(dst, b.Frame...), nil
}

// DecodeBody keeps the payload itself: the received Message owns it.
func (b *shardFrameBody) DecodeBody(p []byte) error {
	b.Frame = p
	return nil
}

// AppendBody writes the header and then has the sender's fill compute the
// cell block straight into the frame.
func (b numSBody) AppendBody(dst []byte) ([]byte, error) {
	return b.fill(appendInts(dst, b.Rows, b.Lo, b.Hi))
}

// DecodeBody keeps the cell block where it is, its shape checked against
// the bytes present: the received Message owns its payload, and the
// protocol reads the cells out of it.
func (b *numSBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	*b = numSBody{Rows: r.int(), Lo: r.int(), Hi: r.int()}
	if r.err != nil {
		return r.err
	}
	var err error
	b.cells, err = protocol.DecodeNumericChunk(r.p)
	return err
}

// AppendBody writes the header and then the chunk's slab as it lies: the
// cell block is the in-memory layout.
func (b alphaMBody) AppendBody(dst []byte) ([]byte, error) {
	c := &b.M
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("party: intermediary chunk: %w", err)
	}
	dst = appendInts(dst, b.Rows, b.Lo, b.Hi)
	dst = appendInts(append(dst, byte(c.Bits)), len(c.Counts), len(c.Shapes))
	shapes := c.Shapes
	for _, n := range c.Counts {
		dst = appendInts(dst, n)
		for _, sh := range shapes[:n] {
			dst = appendInts(dst, sh.Rows, sh.Cols)
		}
		shapes = shapes[n:]
	}
	return c.AppendSlab(dst), nil
}

// DecodeBody makes two allocations per chunk however many string pairs it
// carries — the counts and the shapes — and keeps a packed cell block
// where it arrived: the chunk's slab is the payload's tail, which the
// received Message owns and the evaluation only reads. A 16-bit block is
// decoded into a Wide slab of its own.
func (b *alphaMBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	*b = alphaMBody{Rows: r.int(), Lo: r.int(), Hi: r.int()}
	bits := int(r.tag())
	nRows, nMats := r.count(), r.count()
	if r.err != nil {
		return r.err
	}
	// Every row costs at least its count byte and every matrix its two
	// shape bytes, which bounds both claims by the bytes left.
	if nRows > len(r.p) || nMats > len(r.p)/2 {
		return fmt.Errorf("%d rows of %d matrices claimed with %d bytes left", nRows, nMats, len(r.p))
	}
	c := &b.M
	if nRows > 0 {
		c.Counts = make([]int, nRows)
	}
	c.Shapes = make([]protocol.AlphaShape, nMats)
	next := 0
	for i := range c.Counts {
		n := r.count()
		if n > nMats-next {
			return fmt.Errorf("row %d claims %d matrices, %d left of the %d announced", i, n, nMats-next, nMats)
		}
		c.Counts[i] = n
		for ; n > 0; n-- {
			c.Shapes[next] = protocol.AlphaShape{Rows: r.count(), Cols: r.count()}
			next++
		}
	}
	if r.err != nil {
		return r.err
	}
	if next != nMats {
		return fmt.Errorf("rows hold %d matrices, %d announced", next, nMats)
	}
	return c.SetSlab(bits, r.p)
}

func (b alphaDisguisedBody) AppendBody(dst []byte) ([]byte, error) {
	s := &b.S
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("party: disguised strings: %w", err)
	}
	dst = appendInts(append(dst, byte(s.Bits)), len(s.Lens))
	return append(appendInts(dst, s.Lens...), s.Slab...), nil
}

// DecodeBody makes one allocation — the lengths — and keeps the slab where
// it arrived, capped at the payload's end.
func (b *alphaDisguisedBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	bits := int(r.tag())
	n := r.count()
	if r.err == nil && n > len(r.p) { // every length costs at least a byte
		r.fail("%d strings claimed with %d bytes left", n, len(r.p))
	}
	if r.err != nil {
		return r.err
	}
	s := &b.S
	*s = protocol.AlphaStrings{Bits: bits, Lens: make([]int, n)}
	for i := range s.Lens {
		s.Lens[i] = r.count()
	}
	if r.err != nil {
		return r.err
	}
	s.Slab = r.p[:len(r.p):len(r.p)]
	return s.Validate()
}
