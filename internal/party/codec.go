package party

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"ppclust/internal/hcluster"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
)

// Fixed binary layouts of every session body (wire.BodyAppender /
// wire.BodyDecoder): nothing a session sends goes through wire's gob
// fallback. Integers are zigzag varints; bytes and a string are an integer
// length and that many bytes; a list is an integer count and that many
// items; a float64 is its 8-byte little-endian bit pattern (NaN payloads,
// ±Inf and −0 survive), a tag or seed its raw 32 bytes. A decoder checks
// every count against the bytes left before it allocates — an item costs
// at least one byte, a float64 eight, a tag 32 — and a zero count decodes
// as a nil list.
//
// The control bodies are O(1) or O(n) in one partition; each is its
// fields in declaration order, and a byte past the last is malformed:
//
//	helloBody         bytes Public | string Fingerprint
//	countBody         Count
//	censusBody        strings Holders | ints Counts
//	groupKeyBody      bytes Box
//	catTagsBody       tags Tags
//	pathTagsBody      list of tags Paths
//	requestBody       float64s Weights | Method Linkage K
//	resultBody        list of strings ClusterSites |
//	                  list of ints ClusterIndices |
//	                  list of (Size | float64 AvgSquaredDistance |
//	                  float64 Diameter) Quality |
//	                  float64 Silhouette | Method Linkage K
//	shardOfferBody    Shard Lo Hi | strings Holders | ints Counts |
//	                  string Fingerprint | Mode Variant RNG LocalChunkBytes |
//	                  list of seeds Seeds | list of seeds RowSeeds
//	shardBeatBody,
//	shardDoneBody     nothing
//	abortBody         string Reason
//
// The six partition-quadratic bodies end in a cell block that runs to the
// end of the payload — little-endian 8-byte int64 or float64 bit patterns,
// 32-byte mod-p elements, or alphanumeric symbols in protocol.AlphaChunk's
// layout — so a decoder sizes its allocations from the bytes actually
// present:
//
//	localBody         N Lo Hi | float64 cells
//	numSBody          Rows Lo Hi | variant byte | rows cols | cells
//	                  (a protocol.NumericChunk block; the disguise a
//	                  holder sends its peer has the same layout)
//	alphaDisguisedBody
//	                  bits byte | ints lengths | slab
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

func appendInt(dst []byte, v int) []byte { return binary.AppendVarint(dst, int64(v)) }

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

func appendFloat64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendBytes(dst, b []byte) []byte { return append(appendInt(dst, len(b)), b...) }

func appendString(dst []byte, s string) []byte { return append(appendInt(dst, len(s)), s...) }

func appendTag[T ~[32]byte](dst []byte, t T) []byte { return append(dst, t[:]...) }

// appendList writes a list: its count, then each item.
func appendList[T any](dst []byte, items []T, item func([]byte, T) []byte) []byte {
	dst = appendInt(dst, len(items))
	for _, v := range items {
		dst = item(dst, v)
	}
	return dst
}

func appendStrings(dst []byte, ss []string) []byte { return appendList(dst, ss, appendString) }

func appendIntList(dst []byte, vs []int) []byte { return appendList(dst, vs, appendInt) }

func appendTags[T ~[32]byte](dst []byte, tags []T) []byte { return appendList(dst, tags, appendTag) }

// bodyReader walks a payload with a sticky error, so a decoder reads its
// fields unconditionally and checks once.
type bodyReader struct {
	p   []byte
	err error
}

func (r *bodyReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.p = nil
}

func (r *bodyReader) int() int {
	v, w := binary.Varint(r.p)
	if w <= 0 || int64(int(v)) != v {
		r.fail("bad integer with %d bytes left", len(r.p))
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

// length reads the count of a list whose items take at least size bytes
// each, refusing one the bytes left cannot hold.
func (r *bodyReader) length(size int) int {
	n := r.count()
	if n > len(r.p)/size {
		r.fail("%d items of at least %d bytes claimed with %d bytes left", n, size, len(r.p))
		return 0
	}
	return n
}

// next takes the next n bytes, which the caller has bounded.
func (r *bodyReader) next(n int) []byte {
	b := r.p[:n:n]
	r.p = r.p[n:]
	return b
}

// width reads the one-byte cell width of an alphanumeric block.
func (r *bodyReader) width() int {
	if len(r.p) == 0 {
		r.fail("payload ends before a width byte")
		return 0
	}
	return int(r.next(1)[0])
}

// bytes keeps the bytes where they are: the received Message owns its
// payload.
func (r *bodyReader) bytes() []byte {
	if n := r.length(1); n > 0 {
		return r.next(n)
	}
	return nil
}

func (r *bodyReader) string() string { return string(r.bytes()) }

func (r *bodyReader) float64() float64 {
	if len(r.p) < 8 {
		r.fail("payload ends %d bytes into a float64", len(r.p))
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(r.next(8)))
}

func (r *bodyReader) tag() (t [32]byte) {
	if len(r.p) < len(t) {
		r.fail("payload ends %d bytes into a 32-byte tag", len(r.p))
		return t
	}
	return [32]byte(r.next(len(t)))
}

func (r *bodyReader) strings() []string { return list(r, 1, r.string) }

func (r *bodyReader) ints() []int { return list(r, 1, r.int) }

// end is the decoder's verdict: the first failure, or a byte left over.
func (r *bodyReader) end() error {
	if len(r.p) != 0 {
		r.fail("%d trailing bytes", len(r.p))
	}
	return r.err
}

// list reads a list whose items take at least size bytes each.
func list[T any](r *bodyReader, size int, item func() T) []T {
	n := r.length(size)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = item()
	}
	return out
}

func tags[T ~[32]byte](r *bodyReader) []T {
	return list(r, 32, func() T { return r.tag() })
}

func float64s(p []byte) []float64 {
	out := make([]float64, len(p)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

func (b helloBody) AppendBody(dst []byte) ([]byte, error) {
	return appendString(appendBytes(dst, b.Public), b.Fingerprint), nil
}

func (b *helloBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	*b = helloBody{Public: r.bytes(), Fingerprint: r.string()}
	return r.end()
}

func (b countBody) AppendBody(dst []byte) ([]byte, error) { return appendInt(dst, b.Count), nil }

func (b *countBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	b.Count = r.int()
	return r.end()
}

func (b censusBody) AppendBody(dst []byte) ([]byte, error) {
	return appendIntList(appendStrings(dst, b.Holders), b.Counts), nil
}

func (b *censusBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	*b = censusBody{Holders: r.strings(), Counts: r.ints()}
	return r.end()
}

func (b groupKeyBody) AppendBody(dst []byte) ([]byte, error) { return appendBytes(dst, b.Box), nil }

func (b *groupKeyBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	b.Box = r.bytes()
	return r.end()
}

func (b catTagsBody) AppendBody(dst []byte) ([]byte, error) { return appendTags(dst, b.Tags), nil }

func (b *catTagsBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	b.Tags = tags[[32]byte](&r)
	return r.end()
}

func (b pathTagsBody) AppendBody(dst []byte) ([]byte, error) {
	return appendList(dst, b.Paths, appendTags[[32]byte]), nil
}

func (b *pathTagsBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	b.Paths = list(&r, 1, func() [][32]byte { return tags[[32]byte](&r) })
	return r.end()
}

func (b requestBody) AppendBody(dst []byte) ([]byte, error) {
	return appendInts(appendList(dst, b.Weights, appendFloat64), b.Method, b.Linkage, b.K), nil
}

func (b *requestBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	*b = requestBody{Weights: list(&r, 8, r.float64), Method: r.int(), Linkage: r.int(), K: r.int()}
	return r.end()
}

func (b resultBody) AppendBody(dst []byte) ([]byte, error) {
	dst = appendList(dst, b.ClusterSites, appendStrings)
	dst = appendList(dst, b.ClusterIndices, appendIntList)
	dst = appendList(dst, b.Quality, func(dst []byte, q hcluster.ClusterQuality) []byte {
		return appendFloat64(appendFloat64(appendInt(dst, q.Size), q.AvgSquaredDistance), q.Diameter)
	})
	return appendInts(appendFloat64(dst, b.Silhouette), b.Method, b.Linkage, b.K), nil
}

func (b *resultBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	*b = resultBody{
		ClusterSites:   list(&r, 1, r.strings),
		ClusterIndices: list(&r, 1, r.ints),
		Quality: list(&r, 17, func() hcluster.ClusterQuality {
			return hcluster.ClusterQuality{Size: r.int(), AvgSquaredDistance: r.float64(), Diameter: r.float64()}
		}),
		Silhouette: r.float64(),
		Method:     r.int(), Linkage: r.int(), K: r.int(),
	}
	return r.end()
}

func (b shardOfferBody) AppendBody(dst []byte) ([]byte, error) {
	dst = appendStrings(appendInts(dst, b.Shard, b.Lo, b.Hi), b.Holders)
	dst = appendString(appendIntList(dst, b.Counts), b.Fingerprint)
	dst = appendInts(dst, int(b.Mode), int(b.Variant), int(b.RNG), b.LocalChunkBytes)
	dst = appendList(dst, b.Seeds, appendTags[rng.Seed])
	return appendList(dst, b.RowSeeds, appendTags[rng.Seed]), nil
}

func (b *shardOfferBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	seeds := func() []rng.Seed { return tags[rng.Seed](&r) }
	*b = shardOfferBody{
		Shard: r.int(), Lo: r.int(), Hi: r.int(),
		Holders: r.strings(), Counts: r.ints(), Fingerprint: r.string(),
		Mode: protocol.Mode(r.int()), Variant: Variant(r.int()), RNG: rng.Kind(r.int()),
		LocalChunkBytes: r.int(),
		Seeds:           list(&r, 1, seeds),
		RowSeeds:        list(&r, 1, seeds),
	}
	return r.end()
}

func (shardBeatBody) AppendBody(dst []byte) ([]byte, error) { return dst, nil }

func (*shardBeatBody) DecodeBody(p []byte) error { return (&bodyReader{p: p}).end() }

func (shardDoneBody) AppendBody(dst []byte) ([]byte, error) { return dst, nil }

func (*shardDoneBody) DecodeBody(p []byte) error { return (&bodyReader{p: p}).end() }

func (b abortBody) AppendBody(dst []byte) ([]byte, error) { return appendString(dst, b.Reason), nil }

func (b *abortBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	b.Reason = r.string()
	return r.end()
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
	return appendFloat64s(appendFloat64(appendInt(dst, b.Attr), b.Max), b.Cells), nil
}

func (b *shardSliceBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	b.Attr, b.Max = r.int(), r.float64()
	if r.err == nil && len(r.p)%8 != 0 {
		r.fail("%d trailing bytes after the last cell", len(r.p)%8)
	}
	if r.err != nil {
		return r.err
	}
	b.Cells = float64s(r.p)
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
	// Every row costs at least its count byte and every matrix its two
	// shape bytes, which bounds both claims by the bytes left.
	bits, nRows, nMats := r.width(), r.length(1), r.length(2)
	if r.err != nil {
		return r.err
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
	return append(appendIntList(append(dst, byte(s.Bits)), s.Lens), s.Slab...), nil
}

// DecodeBody makes one allocation — the lengths — and keeps the slab where
// it arrived, capped at the payload's end.
func (b *alphaDisguisedBody) DecodeBody(p []byte) error {
	r := bodyReader{p: p}
	b.S = protocol.AlphaStrings{Bits: r.width(), Lens: r.ints()}
	if r.err != nil {
		return r.err
	}
	b.S.Slab = r.next(len(r.p))
	return b.S.Validate()
}
