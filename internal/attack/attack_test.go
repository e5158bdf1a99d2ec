package attack

import (
	"strings"
	"testing"

	"ppclust/internal/alphabet"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
)

// transcript is Transcript's blocks, failing the test on an error.
func transcript(t *testing.T, xs, ys []int64, mode protocol.Mode, jk, jt rng.Stream) (d, s protocol.NumericChunk) {
	t.Helper()
	d, s, err := Transcript(xs, ys, mode, jk, jt)
	if err != nil {
		t.Fatal(err)
	}
	return d, s
}

// aes is an AES-CTR stream of the given seed.
func aes(seed uint64) rng.Stream { return rng.NewAESCTR(rng.SeedFromUint64(seed)) }

// cell is the one int64 cell of a 1×1 block.
func cell(t *testing.T, c protocol.NumericChunk) int64 {
	t.Helper()
	v, err := c.Int64s()
	if err != nil || len(v) != 1 {
		t.Fatalf("a %dx%d block: %v", c.Rows, c.Cols, err)
	}
	return v[0]
}

// skewedAges draws from an asymmetric distribution over [20, 50] that gives
// the attacker usable frequency statistics. Asymmetry matters: under a
// symmetric prior the reflected hypothesis (σ flipped, shift adjusted)
// scores identically and the attacker recovers the vector only up to a
// mirror image.
func skewedAges(n int, seed uint64) ([]int64, FrequencyPrior) {
	gen := rng.NewAESCTR(rng.SeedFromUint64(seed))
	prior := FrequencyPrior{Lo: 20, Hi: 50, Weight: make([]float64, 31)}
	for i := range prior.Weight {
		// Monotone increasing: heavily skewed toward the top of the range.
		prior.Weight[i] = float64((i + 1) * (i + 1))
	}
	out := make([]int64, n)
	for i := range out {
		// Sample the triangular prior by inverse weight accumulation.
		total := 0.0
		for _, w := range prior.Weight {
			total += w
		}
		target := rng.Float64(gen) * total
		acc := 0.0
		for v, w := range prior.Weight {
			acc += w
			if acc >= target {
				out[i] = prior.Lo + int64(v)
				break
			}
		}
	}
	return out, prior
}

// TestFrequencyAttackBatchMode is experiment E11's first half: with batch
// masking, a bounded domain and a frequency prior, the third party recovers
// DHK's private values exactly.
func TestFrequencyAttackBatchMode(t *testing.T) {
	ys, prior := skewedAges(40, 1)
	xs := []int64{25, 33, 47} // DHJ's values: any in-domain values work
	jt := aes(200)
	_, s := transcript(t, xs, ys, protocol.Batch, aes(100), jt)
	guess, err := FrequencyAttack(s, jt, protocol.Batch, prior)
	if err != nil {
		t.Fatal(err)
	}
	rate := RecoveryRate(guess, ys)
	if rate != 1 {
		t.Fatalf("batch-mode recovery rate = %v, want 1.0 (guess %v truth %v)", rate, guess, ys)
	}
}

// TestFrequencyAttackDefeatedPerPair is the second half: per-pair masking
// (the paper's countermeasure) breaks the column structure and recovery
// collapses.
func TestFrequencyAttackDefeatedPerPair(t *testing.T) {
	ys, prior := skewedAges(40, 2)
	xs := []int64{25, 33, 47}
	jt := aes(201)
	_, s := transcript(t, xs, ys, protocol.PerPair, aes(101), jt)
	guess, err := FrequencyAttack(s, jt, protocol.PerPair, prior)
	if err != nil {
		// No consistent hypothesis at all is also a defeat.
		return
	}
	rate := RecoveryRate(guess, ys)
	if rate > 0.5 {
		t.Fatalf("per-pair recovery rate = %v, want ≤ 0.5", rate)
	}
}

func TestFrequencyAttackValidation(t *testing.T) {
	if _, err := FrequencyAttack(protocol.NumericChunk{}, rng.Scripted(1), protocol.Batch, UniformPrior(0, 1)); err == nil {
		t.Fatal("empty matrix accepted")
	}
	_, s := transcript(t, []int64{1}, []int64{2}, protocol.Batch, rng.Scripted(1), rng.Scripted(1))
	bad := FrequencyPrior{Lo: 5, Hi: 4}
	if _, err := FrequencyAttack(s, rng.Scripted(1), protocol.Batch, bad); err == nil {
		t.Fatal("bad prior accepted")
	}
	torn := s
	torn.Cells = s.Cells[:4]
	if _, err := FrequencyAttack(torn, rng.Scripted(1), protocol.Batch, UniformPrior(0, 1)); err == nil {
		t.Fatal("torn cells accepted")
	}
	num, err := protocol.NewNumeric(protocol.Float64Variant, protocol.Batch)
	if err != nil {
		t.Fatal(err)
	}
	col, err := num.Column([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := num.Disguise(protocol.NewEngine(1), nil, col, 0, 1, 1, rng.Scripted(1), rng.Scripted(1), protocol.InitiatorCols)
	if err != nil {
		t.Fatal(err)
	}
	float, err := protocol.DecodeNumericChunk(blk)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FrequencyAttack(float, rng.Scripted(1), protocol.Batch, UniformPrior(0, 1)); err == nil || !strings.Contains(err.Error(), "variant byte") {
		t.Fatalf("a float64 block read as int64 cells: %v", err)
	}

}

// TestEavesdropXCandidates is experiment E12: the paper's stated inference
// "the value of x is either (x″−r) or (r−x″)" holds for both parities.
func TestEavesdropXCandidates(t *testing.T) {
	for _, jkDraw := range []uint64{4, 5} { // even: no negation; odd: negation
		x := int64(37)
		d, _ := transcript(t, []int64{x}, []int64{0}, protocol.Batch, rng.Scripted(jkDraw), rng.Scripted(7))
		cands := EavesdropXCandidates(cell(t, d), 7)
		if cands[0] != x && cands[1] != x {
			t.Fatalf("true x=%d not in candidates %v (draw %d)", x, cands, jkDraw)
		}
	}
}

// TestEavesdropYCandidates: DHJ observing the unsecured DHK→TP channel
// narrows y to two candidates.
func TestEavesdropYCandidates(t *testing.T) {
	x, y := int64(37), int64(90)
	for _, jkDraw := range []uint64{4, 5} {
		_, s := transcript(t, []int64{x}, []int64{y}, protocol.Batch, rng.Scripted(jkDraw), rng.Scripted(7))
		cands := EavesdropYCandidates(cell(t, s), 7, x)
		if cands[0] != y && cands[1] != y {
			t.Fatalf("true y=%d not in candidates %v (draw %d)", y, cands, jkDraw)
		}
	}
}

// TestAlphaDifferenceLeak: the TP's view of the alphanumeric protocol
// reconstructs both strings up to an additive shift — the leak the paper
// leaves to future work. Exactly one of the |A| candidates is the truth.
func TestAlphaDifferenceLeak(t *testing.T) {
	a := alphabet.DNA
	sStr := protocol.SymbolString(a.MustEncode("ACGTAC"))
	tStr := protocol.SymbolString(a.MustEncode("GGTA"))
	seed := rng.SeedFromUint64(42)

	e := protocol.NewEngine(1)
	disguised := e.AlphaInitiator([]protocol.SymbolString{sStr}, a, rng.NewAESCTR(seed))
	inter := e.AlphaResponder([]protocol.SymbolString{tStr}, disguised, a)
	diff, err := StripAlphaMasks(inter[0][0], a, rng.NewAESCTR(seed))
	if err != nil {
		t.Fatal(err)
	}
	sCands, tCands, err := RecoverStringsUpToShift(diff, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(sCands) != a.Size() {
		t.Fatalf("%d candidates, want %d", len(sCands), a.Size())
	}
	hits := 0
	for c := range sCands {
		if symEq(sCands[c], []alphabet.Symbol(sStr)) && symEq(tCands[c], []alphabet.Symbol(tStr)) {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("truth appeared in %d of %d candidates", hits, len(sCands))
	}
}

func symEq(a, b []alphabet.Symbol) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRecoverStringsValidation(t *testing.T) {
	if _, _, err := RecoverStringsUpToShift(protocol.NewSymbolMatrix(0, 0), alphabet.DNA); err == nil {
		t.Fatal("empty matrix accepted")
	}
}

func TestRecoveryRateEdges(t *testing.T) {
	if RecoveryRate(nil, nil) != 0 {
		t.Fatal("empty rate should be 0")
	}
	if RecoveryRate([]int64{1}, []int64{1, 2}) != 0 {
		t.Fatal("length mismatch should be 0")
	}
	if RecoveryRate([]int64{1, 2}, []int64{1, 3}) != 0.5 {
		t.Fatal("half rate expected")
	}
}
