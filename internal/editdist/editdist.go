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
package editdist

import (
	"fmt"

	"ppclust/internal/alphabet"
)

// Costs parameterizes the three edit operations. The paper uses unit costs
// ("the number of operations required to transform a source string into a
// target string"); UnitCosts reproduces that.
type Costs struct {
	Insert     int // cost of inserting a character
	Delete     int // cost of deleting a character
	Substitute int // cost of replacing a character by a different one
}

// UnitCosts is the paper's cost model: every operation costs 1.
var UnitCosts = Costs{Insert: 1, Delete: 1, Substitute: 1}

// valid reports whether the costs are usable (non-negative, substitution
// not free).
func (c Costs) valid() error {
	if c.Insert < 0 || c.Delete < 0 || c.Substitute < 0 {
		return fmt.Errorf("editdist: negative cost %+v", c)
	}
	return nil
}

// Distance returns the edit distance between symbol vectors a and b under
// unit costs.
func Distance(a, b []alphabet.Symbol) int {
	return DistanceCosts(a, b, UnitCosts)
}

// DistanceCosts returns the edit distance between a and b under the given
// cost model. The costs are validated on every call; hot loops that run
// the DP n²/2 times should construct a Scratch once instead, which
// validates at construction and reuses its two DP rows across calls.
func DistanceCosts(a, b []alphabet.Symbol, costs Costs) int {
	s, err := NewScratch(costs)
	if err != nil {
		panic(err)
	}
	return s.Distance(a, b)
}

// Scratch is a reusable edit-distance evaluator: the cost model is
// validated once at construction and the two DP rows are grown on demand
// and reused, so repeated Distance/FromCCM calls allocate nothing. Not
// safe for concurrent use — parallel evaluators hold one Scratch per
// worker.
type Scratch struct {
	costs     Costs
	prev, cur []int
	zero      []int // FromCCM's mask
}

// NewScratch validates the cost model once and returns a reusable
// evaluator over it.
func NewScratch(costs Costs) (*Scratch, error) {
	if err := costs.valid(); err != nil {
		return nil, err
	}
	return &Scratch{costs: costs}, nil
}

// MustUnitScratch returns a Scratch over the paper's unit costs, which
// are always valid.
func MustUnitScratch() *Scratch {
	s, err := NewScratch(UnitCosts)
	if err != nil {
		panic(err) // unreachable: UnitCosts is valid
	}
	return s
}

// Costs returns the validated cost model.
func (s *Scratch) Costs() Costs { return s.costs }

// grow sizes the two DP rows for a column count of cols.
func (s *Scratch) grow(cols int) {
	if cap(s.prev) < cols+1 {
		s.prev = make([]int, cols+1)
		s.cur = make([]int, cols+1)
	}
	s.prev = s.prev[:cols+1]
	s.cur = s.cur[:cols+1]
}

// Distance returns the edit distance between symbol vectors a and b under
// the scratch's cost model, without allocating.
func (s *Scratch) Distance(a, b []alphabet.Symbol) int {
	s.grow(len(b))
	prev, cur, costs := s.prev, s.cur, s.costs
	for j := range prev {
		prev[j] = j * costs.Insert
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i * costs.Delete
		ai := a[i-1]
		for j := 1; j <= len(b); j++ {
			sub := prev[j-1]
			if ai != b[j-1] {
				sub += costs.Substitute
			}
			cur[j] = min3(prev[j]+costs.Delete, cur[j-1]+costs.Insert, sub)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// FromCCM runs the edit-distance DP over a character comparison matrix
// without allocating: a CCM is a matrix of differences from an all-zero
// mask, over byte cells that cannot leave their range.
func (s *Scratch) FromCCM(m CCM) int {
	if cap(s.zero) < m.Cols {
		s.zero = make([]int, m.Cols)
	}
	dist, _ := FromMasked(s, m.Cell, m.Rows, m.Cols, s.zero[:m.Cols], 1<<8)
	return dist
}

// FromMasked is the third party's per-pair evaluation (Figure 10), called
// n²/2 times per alphanumeric attribute: the edit-distance DP over the
// rows×cols matrix of masked symbol differences a responder sends,
// row-major in cells, without allocating. Character i of the row string
// equals character j of the column string iff cells[i*cols+j] == mask[j] —
// for cell and mask in [0, limit) that is (cell − mask) mod limit == 0 — so
// the CCM is never written out: each cell is range-checked, compared with
// its mask and fed to the DP's match test in one pass. ok is false, and
// the distance meaningless, when some cell is not below limit.
func FromMasked[T ~uint8 | ~uint16](s *Scratch, cells []T, rows, cols int, mask []int, limit int) (dist int, ok bool) {
	s.grow(cols)
	prev, cur, costs := s.prev, s.cur, s.costs
	for j := range prev {
		prev[j] = j * costs.Insert
	}
	for i := 1; i <= rows; i++ {
		cur[0] = i * costs.Delete
		mask := mask[:cols] // needed only where there is a row to compare
		for j, c := range cells[(i-1)*cols : i*cols] {
			if int(c) >= limit {
				return 0, false
			}
			// Kept free of side effects so it compiles to a conditional
			// move: matches are data, and a branch here mispredicts.
			sub := prev[j]
			if int(c) != mask[j] {
				sub += costs.Substitute
			}
			cur[j+1] = min3(prev[j+1]+costs.Delete, cur[j]+costs.Insert, sub)
		}
		prev, cur = cur, prev
	}
	return prev[cols], true
}

// DistanceStrings encodes s and t over a and returns their edit distance
// under unit costs.
func DistanceStrings(a *alphabet.Alphabet, s, t string) (int, error) {
	sv, err := a.Encode(s)
	if err != nil {
		return 0, err
	}
	tv, err := a.Encode(t)
	if err != nil {
		return 0, err
	}
	return Distance(sv, tv), nil
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

// FromCCM returns the edit distance implied by a CCM under unit costs: the
// third party's computation in Figure 10 of the paper.
func FromCCM(m CCM) int {
	return FromCCMCosts(m, UnitCosts)
}

// FromCCMCosts runs the edit-distance DP over a CCM with the given costs.
// Rows of the CCM play the role of one string's positions, columns the
// other's; for symmetric cost models the orientation does not matter.
// Like DistanceCosts, this validates per call — batch evaluators use a
// Scratch.
func FromCCMCosts(m CCM, costs Costs) int {
	s, err := NewScratch(costs)
	if err != nil {
		panic(err)
	}
	return s.FromCCM(m)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
