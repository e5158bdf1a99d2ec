// Package attack implements the adversary simulations for the paper's
// security analysis (Section 4.1) and for the alphanumeric leak the paper
// defers to future work:
//
//   - FrequencyAttack: the third party's frequency-analysis attack on the
//     batch-mode numeric protocol ("if the range of values ... is limited
//     and there is enough statistics ... TP can infer input values of site
//     DHK"), together with its failure against per-pair masking;
//   - eavesdropping inference: the candidate sets an observer recovers from
//     the DHJ→DHK and DHK→TP channels when they are not secured, whose
//     traffic Transcript produces;
//   - RecoverStringsUpToShift: the third party's reconstruction of
//     alphanumeric attribute values up to a single additive shift from the
//     intermediary difference matrices.
//
// These are simulations for measurement, not tools: every function takes
// only data an adversary in the stated position would hold.
package attack

import (
	"fmt"
	"math"

	"ppclust/internal/alphabet"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
)

// FrequencyPrior is the attacker's side knowledge for the frequency attack:
// the approximate marginal distribution of the victim's attribute over a
// bounded integer domain [Lo, Hi].
type FrequencyPrior struct {
	Lo, Hi int64
	// Weight[v-Lo] is the (unnormalized) prior frequency of value v.
	Weight []float64
}

// Validate checks domain consistency.
func (p FrequencyPrior) Validate() error {
	if p.Hi < p.Lo {
		return fmt.Errorf("attack: empty domain [%d,%d]", p.Lo, p.Hi)
	}
	if int64(len(p.Weight)) != p.Hi-p.Lo+1 {
		return fmt.Errorf("attack: %d weights for domain [%d,%d]", len(p.Weight), p.Lo, p.Hi)
	}
	return nil
}

// UniformPrior is a flat prior over [lo, hi].
func UniformPrior(lo, hi int64) FrequencyPrior {
	w := make([]float64, hi-lo+1)
	for i := range w {
		w[i] = 1
	}
	return FrequencyPrior{Lo: lo, Hi: hi, Weight: w}
}

// Transcript runs DHJ and DHK through the int64 numeric protocol sessions
// run, over one block with DHJ's values xs on the columns and DHK's ys on
// the rows, each site's step one chunk, and returns what crosses the two
// channels: the disguise DHJ sends DHK and the S block DHK sends the third
// party. jk and jt are the shared streams. Each site reads them from their
// first word, as one seeded with the shared seed does, and they are left
// rewound for the third party.
func Transcript(xs, ys []int64, mode protocol.Mode, jk, jt rng.Stream) (d, s protocol.NumericChunk, err error) {
	num, err := protocol.NewNumeric(protocol.Int64Variant, mode)
	if err != nil {
		return
	}
	var cols [2]protocol.Column
	for i, vs := range [][]int64{xs, ys} {
		fs := make([]float64, len(vs))
		for k, v := range vs {
			fs[k] = float64(v)
		}
		if cols[i], err = num.Column(fs); err != nil {
			return
		}
	}
	e, rows := protocol.NewEngine(1), 1
	if mode == protocol.PerPair {
		rows = len(ys)
	}
	jk.Reseed()
	jt.Reseed()
	blk, err := num.Disguise(e, nil, cols[0], 0, rows, len(ys), jk, jt, protocol.InitiatorCols)
	if err == nil {
		d, err = protocol.DecodeNumericChunk(blk)
	}
	jk.Reseed()
	if err == nil {
		blk, err = num.Combine(e, nil, []protocol.NumericChunk{d}, cols[1], 0, len(ys), jk, protocol.InitiatorCols)
	}
	if err == nil {
		s, err = protocol.DecodeNumericChunk(blk)
	}
	jk.Reseed()
	jt.Reseed()
	return
}

// FrequencyAttack is the third party's batch-mode attack. The TP holds the
// block of the comparison matrix S it received from DHK, and regenerates
// the masks from its shared generator with DHJ, exactly as in the
// legitimate protocol. In batch mode the unmasked column n is
// σ_n·(x_n − y) for the whole private vector y of DHK with a single
// unknown shift x_n and sign σ_n, so the attacker scores every
// (shift, sign) hypothesis against the prior and reads y off the best one.
// The same procedure applied to per-pair traffic faces independent signs
// per cell and collapses.
//
// s is the S block as its frame carries it in the int64 arithmetic, jt a
// fresh stream seeded with the TP–DHJ shared seed, and mode the protocol
// mode. The return value is the attacker's best guess of DHK's vector.
func FrequencyAttack(s protocol.NumericChunk, jt rng.Stream, mode protocol.Mode, prior FrequencyPrior) ([]int64, error) {
	if err := prior.Validate(); err != nil {
		return nil, err
	}
	if s.Rows <= 0 || s.Cols <= 0 {
		return nil, fmt.Errorf("attack: empty matrix")
	}
	cells, err := s.Int64s()
	if err != nil {
		return nil, err
	}
	// Step 1: strip the masks the TP legitimately knows. v[m][n] = ±(x_n − y_m).
	v := protocol.Int64Matrix{Rows: s.Rows, Cols: s.Cols, Cell: cells}
	for i := range v.Cell {
		v.Cell[i] -= rng.Int64n(jt, protocol.Int64MaskRange)
		if mode == protocol.Batch && (i+1)%s.Cols == 0 {
			jt.Reseed()
		}
	}
	// Step 2: per column, hypothesize (shift x, sign σ) and score the
	// implied y vector against the prior. Keep the best column overall —
	// the attacker needs only one good column to read off all of y.
	bestScore := math.Inf(-1)
	var best []int64
	for n := 0; n < s.Cols; n++ {
		for _, sigma := range []int64{1, -1} {
			// y_m = x − σ·v[m][n]; try every x in the domain.
			for x := prior.Lo; x <= prior.Hi; x++ {
				score := 0.0
				ok := true
				for m := 0; m < s.Rows; m++ {
					y := x - sigma*v.At(m, n)
					if y < prior.Lo || y > prior.Hi {
						ok = false
						break
					}
					w := prior.Weight[y-prior.Lo]
					if w <= 0 {
						ok = false
						break
					}
					score += math.Log(w)
				}
				if ok && score > bestScore {
					bestScore = score
					cand := make([]int64, s.Rows)
					for m := 0; m < s.Rows; m++ {
						cand[m] = x - sigma*v.At(m, n)
					}
					best = cand
				}
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("attack: no hypothesis fit the domain")
	}
	return best, nil
}

// RecoveryRate scores an attack output against the truth: the fraction of
// exactly recovered positions, taking the better of the vector and its
// best single-shift/reflection alignment is NOT allowed — the attacker
// must commit to concrete values.
func RecoveryRate(guess, truth []int64) float64 {
	if len(guess) != len(truth) || len(truth) == 0 {
		return 0
	}
	hits := 0
	for i := range truth {
		if guess[i] == truth[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(truth))
}

// EavesdropXCandidates is the inference of Section 4.1's channel analysis:
// an observer of the *unsecured* DHJ→DHK channel who knows the mask R
// (the third party is exactly such an observer) narrows DHJ's input to two
// candidates: x ∈ {x″ − R, R − x″}.
func EavesdropXCandidates(xDoublePrime, mask int64) [2]int64 {
	return [2]int64{xDoublePrime - mask, mask - xDoublePrime}
}

// EavesdropYCandidates is the dual attack on the DHK→TP channel: DHJ knows
// both the mask R and its own x, so observing m = R ± (x − y) narrows
// DHK's input to two candidates per orientation; with the sign of its own
// contribution known to DHJ, the candidates are y ∈ {x − (m − R), x + (m − R)}.
func EavesdropYCandidates(m, mask, x int64) [2]int64 {
	d := m - mask
	return [2]int64{x - d, x + d}
}

// RecoverStringsUpToShift demonstrates the alphanumeric protocol's residual
// leak. The third party's legitimate view after mask removal is the full
// difference matrix D[q][p] = s[p] − t[q] (mod |A|) — strictly more than
// the 0/1 CCM the paper describes as the output. Fixing t[0] = c for each
// possible symbol c yields a consistent (s, t) reconstruction, so the
// attacker recovers both strings up to one of |A| additive shifts.
//
// diff is the mask-stripped difference matrix for one string pair. The
// return value contains |A| candidate (s, t) pairs, exactly one of which is
// the truth.
func RecoverStringsUpToShift(diff *protocol.SymbolMatrix, a *alphabet.Alphabet) (s, t [][]alphabet.Symbol, err error) {
	if err := diff.Validate(a); err != nil {
		return nil, nil, err
	}
	if diff.Rows == 0 || diff.Cols == 0 {
		return nil, nil, fmt.Errorf("attack: empty difference matrix")
	}
	for c := 0; c < a.Size(); c++ {
		t0 := alphabet.Symbol(c)
		// s[p] = D[0][p] + t[0].
		sc := make([]alphabet.Symbol, diff.Cols)
		for p := 0; p < diff.Cols; p++ {
			sc[p] = a.Add(diff.At(0, p), t0)
		}
		// t[q] = s[0] − D[q][0].
		tc := make([]alphabet.Symbol, diff.Rows)
		for q := 0; q < diff.Rows; q++ {
			tc[q] = a.Sub(sc[0], diff.At(q, 0))
		}
		s = append(s, sc)
		t = append(t, tc)
	}
	return s, t, nil
}

// StripAlphaMasks reproduces the third party's mask removal on an
// intermediary matrix, returning the raw difference matrix the TP observes
// before flattening to a CCM. jt must be freshly seeded with the
// initiator–TP seed.
func StripAlphaMasks(m *protocol.SymbolMatrix, a *alphabet.Alphabet, jt rng.Stream) (*protocol.SymbolMatrix, error) {
	if err := m.Validate(a); err != nil {
		return nil, err
	}
	out := protocol.NewSymbolMatrix(m.Rows, m.Cols)
	for q := 0; q < m.Rows; q++ {
		for p := 0; p < m.Cols; p++ {
			mask := alphabet.Symbol(rng.Symbol(jt, a.Size()))
			out.Set(q, p, a.Sub(m.At(q, p), mask))
		}
		jt.Reseed()
	}
	return out, nil
}
