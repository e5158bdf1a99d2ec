package main

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"ppclust/internal/alphabet"
	"ppclust/internal/attack"
	"ppclust/internal/protocol"
	"ppclust/internal/rng"
	"ppclust/internal/wire"
)

// runAttackFrequency measures the Section 4.1 frequency attack in both
// masking modes: exact recovery under batch masks, collapse under per-pair
// masks.
func runAttackFrequency(w io.Writer) error {
	fmt.Fprintln(w, "third party attacks DHK's numeric vector; domain [20,50], skewed prior")
	fmt.Fprintln(w, "(paper 4.1: \"If the range of values ... is limited and there is enough")
	fmt.Fprintln(w, " statistics to realize a frequency attack, TP can infer input values\")")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%10s %8s %18s\n", "mode", "trials", "mean recovery")

	prior := attack.FrequencyPrior{Lo: 20, Hi: 50, Weight: make([]float64, 31)}
	for i := range prior.Weight {
		prior.Weight[i] = float64((i + 1) * (i + 1))
	}
	sample := func(s rng.Stream, n int) []int64 {
		out := make([]int64, n)
		total := 0.0
		for _, wt := range prior.Weight {
			total += wt
		}
		for i := range out {
			target := rng.Float64(s) * total
			acc := 0.0
			for v, wt := range prior.Weight {
				acc += wt
				if acc >= target {
					out[i] = prior.Lo + int64(v)
					break
				}
			}
		}
		return out
	}

	const trials = 20
	recovery := map[protocol.Mode]float64{}
	for _, mode := range []protocol.Mode{protocol.Batch, protocol.PerPair} {
		sum := 0.0
		for trial := 0; trial < trials; trial++ {
			gen := rng.NewAESCTR(rng.SeedFromUint64(uint64(1000 + trial)))
			ys := sample(gen, 30)
			xs := sample(gen, 3)
			jt := rng.NewAESCTR(rng.SeedFromUint64(uint64(6000 + trial)))
			_, s, err := attack.Transcript(xs, ys, mode, rng.NewAESCTR(rng.SeedFromUint64(uint64(5000+trial))), jt)
			if err != nil {
				return err
			}
			// The attack reads the S block as the third party receives it.
			guess, err := attack.FrequencyAttack(s, jt, mode, prior)
			if err != nil {
				continue // no consistent hypothesis: recovery 0
			}
			sum += attack.RecoveryRate(guess, ys)
		}
		recovery[mode] = sum / trials
		fmt.Fprintf(w, "%10s %8d %17.1f%%\n", mode, trials, recovery[mode]*100)
	}
	fmt.Fprintln(w)
	var broken []error
	if r := recovery[protocol.Batch]; r < 0.9 {
		broken = append(broken, fmt.Errorf("batch: the attack recovers only %.1f%%, want at least 90%%", r*100))
	}
	if r := recovery[protocol.PerPair]; r > 0.3 {
		broken = append(broken, fmt.Errorf("per-pair: the attack still recovers %.1f%%, want at most 30%%", r*100))
	}
	return verdict(w, "SHAPE: batch masking is broken under these conditions; the paper's per-pair countermeasure reduces the attack to near-chance", broken...)
}

// runAttackEavesdrop demonstrates the Section 4.1 channel analysis: what an
// observer of each unsecured channel infers, and that AES-GCM channels
// remove the inference.
func runAttackEavesdrop(w io.Writer) error {
	x, y := int64(37), int64(90)
	maskJT := int64(7)

	fmt.Fprintln(w, "scenario: x=37 at DHJ, y=90 at DHK, RJT=7, RJK odd")
	dc, sc, err := attack.Transcript([]int64{x}, []int64{y}, protocol.Batch, rng.Scripted(5), rng.Scripted(uint64(maskJT)))
	if err != nil {
		return err
	}
	cells, err := firstCells(dc, sc)
	if err != nil {
		return err
	}
	d, s := cells[0], cells[1]

	cx := attack.EavesdropXCandidates(d, maskJT)
	fmt.Fprintf(w, "\nTP eavesdropping the plaintext DHJ->DHK channel (sees x''=%d, knows R=%d):\n", d, maskJT)
	fmt.Fprintf(w, "  x candidates: {%d, %d}   (true x = %d is exposed up to 1 bit)\n", cx[0], cx[1], x)

	cy := attack.EavesdropYCandidates(s, maskJT, x)
	fmt.Fprintf(w, "DHJ eavesdropping the plaintext DHK->TP channel (sees m=%d, knows R and x):\n", s)
	fmt.Fprintf(w, "  y candidates: {%d, %d}   (true y = %d is exposed up to 1 bit)\n", cy[0], cy[1], y)

	// Now the secured channel: the observer sees AES-GCM ciphertext only.
	a, b := wire.Pipe()
	var observed []byte
	tapped := wire.Tap(a, func(dir string, frame []byte) {
		observed = append([]byte(nil), frame...)
	})
	var key [32]byte
	key[0] = 9
	sa, err := wire.Secure(tapped, key, true)
	if err != nil {
		return err
	}
	sb, err := wire.Secure(b, key, false)
	if err != nil {
		return err
	}
	payload := fmt.Sprintf("x''=%d", d)
	if err := sa.Send([]byte(payload)); err != nil {
		return err
	}
	if _, err := sb.Recv(); err != nil {
		return err
	}
	leaked := bytes.Contains(observed, []byte(payload))
	fmt.Fprintf(w, "\nwith the paper-mandated secured channel the observer sees %d ciphertext\n", len(observed))
	fmt.Fprintf(w, "bytes bearing no plaintext structure (contains \"%s\": %v)\n", payload, leaked)
	var broken []error
	if !slices.Contains(cx[:], x) {
		broken = append(broken, fmt.Errorf("x candidates %v miss x = %d", cx, x))
	}
	if !slices.Contains(cy[:], y) {
		broken = append(broken, fmt.Errorf("y candidates %v miss y = %d", cy, y))
	}
	if leaked {
		broken = append(broken, fmt.Errorf("the secured channel's ciphertext contains %q", payload))
	}
	return verdict(w, "SHAPE: each plaintext channel exposes a value up to one bit, the secured one nothing — the paper's requirement that both channels be secured", broken...)
}

// runAttackAlpha demonstrates the alphanumeric difference-matrix leak the
// paper defers to future work.
func runAttackAlpha(w io.Writer) error {
	a := alphabet.DNA
	sTrue := "ACGTAC"
	tTrue := "GGTA"
	seed := rng.SeedFromUint64(99)

	e := protocol.NewEngine(1)
	disguised := e.AlphaInitiator(
		[]protocol.SymbolString{protocol.SymbolString(a.MustEncode(sTrue))}, a, rng.NewAESCTR(seed))
	inter := e.AlphaResponder(
		[]protocol.SymbolString{protocol.SymbolString(a.MustEncode(tTrue))}, disguised, a)
	diff, err := attack.StripAlphaMasks(inter[0][0], a, rng.NewAESCTR(seed))
	if err != nil {
		return err
	}
	sC, tC, err := attack.RecoverStringsUpToShift(diff, a)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "the TP's pre-flattening view is the full difference matrix s[p]-t[q] mod |A|,")
	fmt.Fprintln(w, "which determines both strings up to one additive shift. candidates:")
	found := false
	for c := range sC {
		marker := ""
		if a.Decode(sC[c]) == sTrue && a.Decode(tC[c]) == tTrue {
			marker, found = "   <-- true strings", true
		}
		fmt.Fprintf(w, "  shift %d: s=%q t=%q%s\n", c, a.Decode(sC[c]), a.Decode(tC[c]), marker)
	}
	fmt.Fprintf(w, "\nresidual privacy of the pair: log2(|A|) = 2 bits for DNA\n")
	var broken error
	if !found {
		broken = fmt.Errorf("no shift yields s = %q, t = %q", sTrue, tTrue)
	}
	return verdict(w, "SHAPE: the true strings are among the shifts — why the paper flags alphanumeric privacy analysis as future work", broken)
}
