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
// builds each row's word from its masked cells, eight byte cells per word
// load, range-checking them in the same pass; holders look their words up in
// a per-symbol table of the pattern. Longer patterns fall back to the
// two-row DP.
package editdist

import (
	"encoding/binary"
	"fmt"
	"math/bits"

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
// CCM is a matrix of differences from an all-zero mask, over byte cells
// that cannot leave their range.
func (s *Scratch) FromCCM(m CCM) int {
	if len(s.zero) < m.Cols {
		s.zero = make([]byte, m.Cols)
	}
	dist, _ := FromMasked(s, m.Cell, m.Rows, m.Cols, s.zero, 1<<8)
	return dist
}

// FromMasked is the third party's per-pair evaluation (Figure 10), called
// n²/2 times per alphanumeric attribute: the edit distance over the
// rows×cols matrix of masked symbol differences a responder sends,
// row-major in cells, without allocating. Character i of the row string
// equals character j of the column string iff cells[i*cols+j] == mask[j] —
// for cell and mask in [0, limit) that is (cell − mask) mod limit == 0 — so
// the CCM is never written out: each cell is range-checked and compared with
// its mask, and each row's comparisons feed the kernel. Byte cells against
// a mask packed into bytes are compared and checked eight per word. ok is
// false, and the distance meaningless, when some cell is not below limit.
func FromMasked[T ~uint8 | ~uint16, M ~uint8 | ~int](s *Scratch, cells []T, rows, cols int, mask []M, limit int) (dist int, ok bool) {
	if cols > 64 {
		return maskedDP(s, cells, rows, cols, mask, limit)
	}
	if c, ok := any(cells).([]byte); ok && cols >= 8 && rows > 0 && limit >= 1 {
		if m, ok := any(mask).([]byte); ok {
			return fromBytes(c, rows, cols, m, limit)
		}
	}
	w := word{pv: ^uint64(0)}
	for i := range rows {
		mask := mask[:cols] // needed only where there is a row to compare
		var eq uint64
		for j, c := range cells[i*cols : (i+1)*cols] {
			if int(c) >= limit {
				return 0, false
			}
			if int(c) == int(mask[j]) {
				eq |= 1 << j
			}
		}
		w = w.step(eq)
	}
	return w.dist(cols, rows), true
}

const (
	ones = 0x0101010101010101
	low7 = 0x7f7f7f7f7f7f7f7f
	high = 0x8080808080808080
)

// fromBytes is FromMasked's byte path, for a row of 8 to 64 cells: the
// last of a row's words ends at the row's end, overlapping the one before.
func fromBytes(cells []byte, rows, cols int, mask []byte, limit int) (dist int, ok bool) {
	last := cols - 8
	var mw [8]uint64 // the mask's words at 0, 8, … below last, and at last
	for k := 0; k < last; k += 8 {
		mw[k>>3] = binary.LittleEndian.Uint64(mask[k:])
	}
	mw[7] = binary.LittleEndian.Uint64(mask[last:])
	// A byte x is at least limit iff x + 256 − limit carries out of it: for
	// a limit up to 128 iff x or (x & 0x7f) + 256 − limit has its high bit
	// set, above 128 iff both have.
	add, both := uint64(max(0, 256-limit))*ones&low7, limit > 128
	w, over := word{pv: ^uint64(0)}, uint64(0)
	for cells = cells[:rows*cols]; len(cells) > 0; cells = cells[cols:] {
		var ne uint64
		for k := 0; k < last; k += 8 {
			x := binary.LittleEndian.Uint64(cells[k:])
			ne |= differ(x, mw[k>>3]) << (k & 63)
			over |= carry(x, add, both)
		}
		x := binary.LittleEndian.Uint64(cells[last:])
		ne |= differ(x, mw[7]) << (last & 63)
		over |= carry(x, add, both)
		w = w.step(^ne)
	}
	return w.dist(cols, rows), over&high == 0
}

// carry sets the high bit of each byte of x that is at least limit, given
// add = (256 − limit) & 0x7f in every byte and both = limit > 128.
func carry(x, add uint64, both bool) uint64 {
	if both {
		return x & (x&low7 + add)
	}
	return x | (x&low7 + add)
}

// differ returns bit k set iff bytes k of x and m differ: the high bit of
// (byte & 0x7f) + 0x7f, or of the byte itself, is set exactly in the bytes
// that are not zero, and the multiply gathers the eight high bits into the
// top byte.
func differ(x, m uint64) uint64 {
	z := x ^ m
	return (z&low7 + low7 | z) & high * 0x0002040810204081 >> 56
}

// maskedDP is FromMasked's two-row DP, for patterns too long for one word.
func maskedDP[T ~uint8 | ~uint16, M ~uint8 | ~int](s *Scratch, cells []T, rows, cols int, mask []M, limit int) (int, bool) {
	s.grow(cols)
	prev, cur := s.prev, s.cur
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= rows; i++ {
		cur[0] = i
		mask := mask[:cols] // needed only where there is a row to compare
		for j, c := range cells[(i-1)*cols : i*cols] {
			if int(c) >= limit {
				return 0, false
			}
			// Kept free of side effects so it compiles to a conditional
			// move: matches are data, and a branch here mispredicts.
			sub := prev[j]
			if int(c) != int(mask[j]) {
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
