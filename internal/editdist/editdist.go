// Package editdist implements the edit (Levenshtein) distance used to
// compare alphanumeric attributes, including the character-comparison-matrix
// form that the third party evaluates in the İnan et al. protocol.
//
// The paper (Section 2.3) observes that the edit-distance DP does not need
// the input strings themselves: an equality matrix over all character pairs
// — the "character comparison matrix" (CCM) — is equally expressive. Data
// holders compute distances directly from strings; the third party, which
// must never see the strings, computes them from privately constructed CCMs
// (Figure 10).
//
// One row of the CCM, read as a bit vector over the columns, is exactly the
// match word of Myers' bit-parallel algorithm (G. Myers, JACM 1999), here
// in Hyyrö's global-distance form (2003): when the pattern side — the CCM's
// columns, or the shorter of two strings — has at most 64 symbols, the
// distance costs one word step per row instead of a DP row. The third party
// builds each row's word from its masked cells, packed 2, 4 or 8 bits a
// cell: a word load at a time, folded to one bit a cell and range-checked in
// the same pass; holders look their words up in a per-symbol table of the
// pattern. Longer patterns fall back to the two-row DP.
package editdist

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"

	"ppclust/internal/alphabet"
)

// Distance returns the edit distance between symbol vectors a and b: the
// number of single-symbol insertions, deletions and substitutions that
// turn one into the other.
func Distance(a, b []alphabet.Symbol) int {
	return MustUnitScratch().Distance(a, b)
}

// Scratch is a reusable edit-distance evaluator: the pattern table of the
// bit-parallel kernel and the two rows of the DP fallback are grown on
// demand and reused, so repeated Distance/FromCCM/FromMasked calls allocate
// nothing. Not safe for concurrent use — parallel evaluators hold one
// Scratch per worker.
type Scratch struct {
	peq       []uint64 // symbol → its pattern positions; all zero between calls
	prev, cur []int
	m         []byte // packedDP's mask, a field a byte
	zero      []byte // FromCCM's mask
}

// MustUnitScratch returns an evaluator of the paper's unit-cost edit
// distance.
func MustUnitScratch() *Scratch { return new(Scratch) }

// grow sizes the two DP rows for a column count of cols.
func (s *Scratch) grow(cols int) {
	if cap(s.prev) < cols+1 {
		s.prev = make([]int, cols+1)
		s.cur = make([]int, cols+1)
		s.m = make([]byte, cols)
	}
	s.prev = s.prev[:cols+1]
	s.cur = s.cur[:cols+1]
}

// word is one column of the edit-distance DP in Myers' bit-vector form, for
// a pattern of at most 64 symbols: bit i of pv (mv) says D[i+1][j] − D[i][j]
// is +1 (−1). Bits above the pattern hold garbage that never reaches it.
type word struct{ pv, mv uint64 }

// step advances past one text symbol whose matches in the pattern are the
// bits of eq.
func (w word) step(eq uint64) word {
	xv := eq | w.mv
	xh := ((eq & w.pv) + w.pv) ^ w.pv | eq
	ph := w.mv | ^(xh | w.pv)
	mh := w.pv & xh
	ph = ph<<1 | 1 // D[0][j] = j: the top row always climbs
	return word{pv: mh<<1 | ^(xv | ph), mv: ph & xv}
}

// dist is D[m][n] after n steps over a pattern of m symbols: the top row's
// D[0][n] = n plus the column's vertical deltas.
func (w word) dist(m, n int) int {
	below := ^uint64(0) >> (64 - m)
	return n + bits.OnesCount64(w.pv&below) - bits.OnesCount64(w.mv&below)
}

// Distance returns the edit distance between symbol vectors a and b,
// without allocating once the scratch has seen the largest symbol.
func (s *Scratch) Distance(a, b []alphabet.Symbol) int {
	if len(a) < len(b) {
		a, b = b, a // the shorter string is the pattern
	}
	if len(b) > 64 {
		return s.stringDP(a, b)
	}
	for i, c := range b {
		if int(c) >= len(s.peq) {
			s.peq = append(s.peq, make([]uint64, int(c)+1-len(s.peq))...)
		}
		s.peq[c] |= 1 << i
	}
	w := word{pv: ^uint64(0)}
	for _, c := range a {
		var eq uint64
		if int(c) < len(s.peq) {
			eq = s.peq[c]
		}
		w = w.step(eq)
	}
	for _, c := range b {
		s.peq[c] = 0
	}
	return w.dist(len(b), len(a))
}

// stringDP is the two-row edit-distance DP between a and b.
func (s *Scratch) stringDP(a, b []alphabet.Symbol) int {
	s.grow(len(b))
	prev, cur := s.prev, s.cur
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		ai := a[i-1]
		for j := 1; j <= len(b); j++ {
			sub := prev[j-1]
			if ai != b[j-1] {
				sub++
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, sub)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// FromCCM returns the edit distance implied by a CCM without allocating: a
// CCM is a matrix of byte-wide differences from an all-zero mask, whose
// cells cannot leave their range.
func (s *Scratch) FromCCM(m CCM) int {
	if len(s.zero) < m.Cols {
		s.zero = make([]byte, m.Cols)
	}
	dist, _ := FromMasked(s, m.Cell, 8, m.Rows, m.Cols, s.zero, 1<<8)
	return dist
}

// FromMasked is the third party's per-pair evaluation (Figure 10), called
// n²/2 times per alphanumeric attribute: the edit distance over the
// rows×cols matrix of masked symbol differences a responder sends, without
// allocating. Each row holds its cols cells as little-endian fields of bits
// = 2, 4 or 8 bits, padded with zero bits to a whole byte, and the rows lie
// back to back; mask holds the mask prefix in the same layout. Character i
// of the row string equals character j of the column string iff field j of
// row i equals field j of the mask — for cell and mask in [0, limit) that is
// (cell − mask) mod limit == 0 — so the CCM is never written out: a word of
// fields at a time is range-checked, compared with its mask and folded to
// one bit a field, and each row's bits feed the kernel. cells is read up to
// its capacity, never written; the bits past a row's end are discarded. ok
// is false, and the distance meaningless, when some field is not below
// limit or some row's padding is not zero.
func FromMasked(s *Scratch, cells []byte, bits, rows, cols int, mask []byte, limit int) (dist int, ok bool) {
	if rows == 0 || cols == 0 {
		return rows + cols, true
	}
	switch {
	case bits == 2 && cols > 64:
		return packedDP[uint8](s, cells, rows, cols, mask, limit)
	case bits == 4 && cols > 64:
		return packedDP[uint16](s, cells, rows, cols, mask, limit)
	case cols > 64:
		return packedDP[uint32](s, cells, rows, cols, mask, limit)
	case bits == 2:
		return fromPacked[uint8](cells, rows, cols, mask, limit)
	case bits == 4:
		return fromPacked[uint16](cells, rows, cols, mask, limit)
	}
	return fromPacked[uint32](cells, rows, cols, mask, limit)
}

// width tags a kernel with its field width at compile time: instantiated
// for W, it works on fields of 2·Sizeof(W) bits — 2 for uint8, 4 for
// uint16, 8 for uint32 — so every field mask, shift and gather in it is a
// constant.
type width interface{ uint8 | uint16 | uint32 }

func fieldBits[W width]() int {
	var w W
	return 2 * int(unsafe.Sizeof(w))
}

// fromPacked is FromMasked's word kernel for rows of at most 64 cells.
func fromPacked[W width](cells []byte, rows, cols int, mask []byte, limit int) (int, bool) {
	bits := fieldBits[W]()
	rb := (cols*bits + 7) / 8
	high, add, above := lanes(bits, limit)
	gather := func(h uint64) uint64 {
		switch bits {
		case 2:
			return gather2(h)
		case 4:
			return gather4(h)
		}
		return gather8(h)
	}
	w, over, pad := word{pv: ^uint64(0)}, uint64(0), uint64(0)
	if rb <= 4 {
		// Rows of up to four bytes are read k to a word, the mask repeated
		// at every row's offset, so a word load, its checks and its gather
		// serve k rows; each row's bits are then its own word step.
		k, fields := 8/rb, 8*rb/bits // rows a word; fields a row, padding included
		keep := ^uint64(0) >> (64 - cols*bits)
		var m, keepAll uint64
		for j := range k {
			m |= load(mask, 0) & keep << (8 * rb * j)
			keepAll |= keep << (8 * rb * j)
		}
		for q := 0; q < rows; q += k {
			n := min(k, rows-q)
			x := load(cells, q*rb) & (^uint64(0) >> (64 - 8*rb*n))
			over |= carry(x, high, add, above)
			pad |= x &^ keepAll
			ne := gather(differ(x^m, high))
			for j := range n {
				w = w.step(^(ne >> (j * fields)))
			}
		}
		return w.dist(cols, rows), over&high == 0 && pad == 0
	}
	// Longer rows take words whole: word i of a row holds its fields
	// [64i/bits, 64(i+1)/bits). Of the last word only the live bytes lie
	// in the row, and only the kept bits of those are fields; the rest is
	// padding.
	last := (rb - 1) / 8
	live := ^uint64(0) >> (64 - 8*(rb-8*last))
	keep := ^uint64(0) >> (64 - (cols*bits - 64*last))
	var mw [8]uint64
	for i := range last + 1 {
		mw[i] = load(mask, 8*i)
	}
	mw[last] &= keep
	for off := 0; off < rows*rb; off += rb {
		// From the row's last word to its first, each word's bits shifted
		// in below those of the words after it.
		x := load(cells, off+8*last) & live
		over |= carry(x, high, add, above)
		pad |= x &^ keep
		ne := gather(differ(x^mw[last], high))
		for i := last - 1; i >= 0; i-- {
			x := binary.LittleEndian.Uint64(cells[off+8*i : off+8*i+8])
			over |= carry(x, high, add, above)
			ne = ne<<(64/bits) | gather(differ(x^mw[i], high))
		}
		w = w.step(^ne)
	}
	return w.dist(cols, rows), over&high == 0 && pad == 0
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

// lanes returns, for a word of bits-wide fields and cells below limit,
// the high bit of every field, the low bits of 2^bits − limit in every
// field, and whether limit is above 2^(bits−1).
func lanes(bits, limit int) (high, add uint64, above bool) {
	ones, half := ^uint64(0)/(1<<bits-1), 1<<(bits-1)
	return ones << (bits - 1), uint64((1<<bits-limit)&(half-1)) * ones, limit > half
}

// carry sets the high bit of each field of x that is at least the limit
// lanes was given: x + 2^bits − limit carries out of such a field, which
// for a limit up to half the field's range happens iff its high bit or
// that of (x & low bits) + add is set, and above it iff both are — never,
// for a limit of 2^bits, where add is zero. Other bits are garbage.
func carry(x, high, add uint64, above bool) uint64 {
	if above {
		return x & (x&^high + add)
	}
	return x | (x&^high + add)
}

// differ sets the high bit of each field of z that is not zero: (z & low
// bits) + low bits reaches it exactly when the low bits are not all zero.
func differ(z, high uint64) uint64 {
	return (z&^high + ^high | z) & high
}

// gather2, gather4 and gather8 pack the high bits of the 2-, 4- or 8-bit
// fields of h, every other bit zero, into its low 32, 16 or 8 bits, field
// order kept.
func gather2(h uint64) uint64 {
	h >>= 1
	h = (h | h>>1) & 0x3333333333333333
	h = (h | h>>2) & 0x0f0f0f0f0f0f0f0f
	h = (h | h>>4) & 0x00ff00ff00ff00ff
	h = (h | h>>8) & 0x0000ffff0000ffff
	return (h | h>>16) & 0x00000000ffffffff
}

func gather4(h uint64) uint64 {
	h >>= 3
	h = (h | h>>3) & 0x0303030303030303
	h = (h | h>>6) & 0x000f000f000f000f
	h = (h | h>>12) & 0x000000ff000000ff
	return (h | h>>24) & 0x000000000000ffff
}

func gather8(h uint64) uint64 { return h * 0x0002040810204081 >> 56 }

// packedDP is FromMasked's two-row DP, for patterns too long for one
// word, reading one field at a time.
func packedDP[W width](s *Scratch, cells []byte, rows, cols int, mask []byte, limit int) (int, bool) {
	bits := fieldBits[W]()
	per := uint(8 / bits) // fields a byte
	field := func(row []byte, j int) byte { return row[uint(j)/per] >> (uint(j) % per * uint(bits)) & (1<<bits - 1) }
	rb, used := (cols*bits+7)/8, cols*bits-8*((cols*bits-1)/8)
	s.grow(cols)
	prev, cur, m := s.prev, s.cur, s.m[:cols]
	for j := range m {
		m[j] = field(mask, j)
	}
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= rows; i++ {
		row := cells[(i-1)*rb : i*rb]
		if row[rb-1]>>used != 0 {
			return 0, false // padding
		}
		cur[0] = i
		for j, mj := range m {
			c := field(row, j)
			if int(c) >= limit {
				return 0, false
			}
			// Kept free of side effects so it compiles to a conditional
			// move: matches are data, and a branch here mispredicts.
			sub := prev[j]
			if c != mj {
				sub++
			}
			cur[j+1] = min(prev[j+1]+1, cur[j]+1, sub)
		}
		prev, cur = cur, prev
	}
	return prev[cols], true
}

// FromMaskedSymbols is FromMasked over one symbol a cell, against a mask
// of one int a column: the form of a per-pair SymbolMatrix and of a chunk
// whose alphabet has more than 256 symbols.
func FromMaskedSymbols(s *Scratch, cells []alphabet.Symbol, rows, cols int, mask []int, limit int) (dist int, ok bool) {
	if cols > 64 {
		return symbolDP(s, cells, rows, cols, mask, limit)
	}
	w := word{pv: ^uint64(0)}
	for i := range rows {
		mask := mask[:cols] // needed only where there is a row to compare
		var eq uint64
		for j, c := range cells[i*cols : (i+1)*cols] {
			if int(c) >= limit {
				return 0, false
			}
			if int(c) == mask[j] {
				eq |= 1 << j
			}
		}
		w = w.step(eq)
	}
	return w.dist(cols, rows), true
}

// symbolDP is FromMaskedSymbols' two-row DP, for patterns too long for one
// word.
func symbolDP(s *Scratch, cells []alphabet.Symbol, rows, cols int, mask []int, limit int) (int, bool) {
	s.grow(cols)
	prev, cur := s.prev, s.cur
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= rows; i++ {
		cur[0] = i
		mask := mask[:cols]
		for j, c := range cells[(i-1)*cols : i*cols] {
			if int(c) >= limit {
				return 0, false
			}
			sub := prev[j]
			if int(c) != mask[j] {
				sub++
			}
			cur[j+1] = min(prev[j+1]+1, cur[j]+1, sub)
		}
		prev, cur = cur, prev
	}
	return prev[cols], true
}

// CCM is a character comparison matrix: At(i, j) == 0 iff the ith character
// of the row string equals the jth character of the column string, 1
// otherwise (paper Section 2.3). Dimensions are carried explicitly so that
// empty strings — whose comparison matrix has a zero extent but a well
// defined edit distance — survive the round trip through the protocol.
type CCM struct {
	Rows, Cols int
	// Cell holds Rows×Cols entries in row-major order, each 0 or 1.
	Cell []uint8
}

// NewCCM allocates a zeroed rows×cols CCM.
func NewCCM(rows, cols int) CCM {
	if rows < 0 || cols < 0 {
		panic("editdist: negative CCM dimension")
	}
	return CCM{Rows: rows, Cols: cols, Cell: make([]uint8, rows*cols)}
}

// At returns the cell at row i, column j.
func (m CCM) At(i, j int) uint8 { return m.Cell[i*m.Cols+j] }

// Set assigns the cell at row i, column j.
func (m CCM) Set(i, j int, v uint8) { m.Cell[i*m.Cols+j] = v }

// BuildCCM constructs the plaintext CCM for rows-string r and cols-string c:
// At(i, j) = 0 iff r[i] == c[j]. The third party never calls this — it
// obtains CCMs through the privacy-preserving protocol — but local parties
// and tests use it as the reference.
func BuildCCM(r, c []alphabet.Symbol) CCM {
	m := NewCCM(len(r), len(c))
	for i := range r {
		for j := range c {
			if r[i] != c[j] {
				m.Set(i, j, 1)
			}
		}
	}
	return m
}

// Validate checks that the cell storage matches the dimensions and is
// strictly 0/1 valued.
func (m CCM) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("editdist: negative CCM dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.Cell) != m.Rows*m.Cols {
		return fmt.Errorf("editdist: CCM storage has %d cells, want %d", len(m.Cell), m.Rows*m.Cols)
	}
	for i, v := range m.Cell {
		if v > 1 {
			return fmt.Errorf("editdist: CCM cell %d = %d, want 0 or 1", i, v)
		}
	}
	return nil
}

// FromCCM returns the edit distance implied by a CCM: the third party's
// computation in Figure 10 of the paper.
func FromCCM(m CCM) int {
	return MustUnitScratch().FromCCM(m)
}
