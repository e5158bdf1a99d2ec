package main

import (
	"fmt"
	"io"
	"math"

	"ppclust/internal/alphabet"
	"ppclust/internal/costmodel"
	"ppclust/internal/protocol"
)

// fitWithin fits measured = c·model and fails when a point deviates from
// the fit by more than bound; it returns c and the largest deviation.
func fitWithin(name string, measured, model []float64, bound float64) (c, dev float64, err error) {
	c, dev, err = costmodel.FitScale(measured, model)
	if err == nil && dev > bound {
		err = fmt.Errorf("%s deviates %.1f%% from one constant times the model, bound %.0f%%", name, dev*100, bound*100)
	}
	return c, dev, err
}

// growsAsModel fails unless the model fits measured at least twice as
// well as a linear one does: what tells quadratic growth from linear when
// fixed framing keeps a single constant from fitting the smallest row.
func growsAsModel(name string, sizes []int, measured, model []float64) error {
	linear := make([]float64, len(sizes))
	for i, n := range sizes {
		linear[i] = float64(n)
	}
	_, devModel, err := costmodel.FitScale(measured, model)
	if err != nil {
		return err
	}
	_, devLinear, err := costmodel.FitScale(measured, linear)
	if err != nil {
		return err
	}
	if devLinear < 2*devModel {
		return fmt.Errorf("%s: a linear model fits as well as the paper's (%.1f%% vs %.1f%%)", name, devLinear*100, devModel*100)
	}
	return nil
}

// runCostNumeric measures the numeric protocol's wire traffic against the
// paper's Section 4.1 analysis, initiator O(n²+n) and responder
// O(m²+m·n), with each pair block cut between its holders where the
// session cuts it.
func runCostNumeric(w io.Writer) error {
	fmt.Fprintln(w, "two holders, one numeric attribute, batch masking; n = m")
	fmt.Fprintln(w, "paper: DHJ sends O(n²+n), DHK sends O(m²+m·n); the session cuts the m·n block at")
	fmt.Fprintln(w, "row h, so J sends n²/2 + n + (m−h)·n cells and K m²/2 + (m−h) + h·n")
	fmt.Fprintln(w, "(each holder's own fixed session overhead — handshakes, census, key transport — subtracted)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%6s %14s %14s %14s %14s\n", "n", "J bytes", "model J", "K bytes", "model K")

	overhead, err := sessionOverhead(numericParts, 2)
	if err != nil {
		return err
	}
	sizes := []int{32, 64, 128, 256}
	var measJ, measK, modelJ, modelK []float64
	for _, n := range sizes {
		parts, err := numericParts([]int{n, n}, uint64(n))
		if err != nil {
			return err
		}
		t, err := runSession(parts, protocol.Batch)
		if err != nil {
			return err
		}
		j, k := t.beyond(overhead, "A"), t.beyond(overhead, "B")
		toTP, toPeer := costmodel.NumericLinkElems([]int{n, n}, false)
		mj := float64(costmodel.Bytes(toTP[0]+toPeer[0][1], costmodel.Float64Width))
		mk := float64(costmodel.Bytes(toTP[1]+toPeer[1][0], costmodel.Float64Width))
		measJ, measK = append(measJ, j), append(measK, k)
		modelJ, modelK = append(modelJ, mj), append(modelK, mk)
		fmt.Fprintf(w, "%6d %14.0f %14.0f %14.0f %14.0f\n", n, j, mj, k, mk)
	}
	cJ, devJ, errJ := fitWithin("J", measJ, modelJ, 0.15)
	cK, devK, errK := fitWithin("K", measK, modelK, 0.15)
	fmt.Fprintf(w, "\nfit: measured = c * model; J: c=%.3f maxdev=%.1f%%; K: c=%.3f maxdev=%.1f%%\n",
		cJ, devJ*100, cK, devK*100)
	var errC error
	if math.Abs(cJ-cK) > 0.05*math.Min(cJ, cK) {
		errC = fmt.Errorf("J fits at c = %.3f and K at c = %.3f, more than 5%% apart", cJ, cK)
	}
	err = verdict(w, "SHAPE: both holders follow the paper's O(n²+n) / O(m²+m·n) with one wire-format constant",
		errJ, errK, errC, growsAsModel("J", sizes, measJ, modelJ), growsAsModel("K", sizes, measK, modelK))
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "\nbatch vs per-pair masking on the J->K link (the countermeasure's price):")
	fmt.Fprintf(w, "%6s %14s %16s %12s %12s %8s\n", "n", "batch bytes", "per-pair bytes", "extra", "model extra", "model x")
	var broken []error
	for _, n := range []int{32, 64, 128} {
		parts, err := numericParts([]int{n, n}, uint64(n))
		if err != nil {
			return err
		}
		batch, err := runSession(parts, protocol.Batch)
		if err != nil {
			return err
		}
		perPair, err := runSession(parts, protocol.PerPair)
		if err != nil {
			return err
		}
		_, toPeerB := costmodel.NumericLinkElems([]int{n, n}, false)
		_, toPeerP := costmodel.NumericLinkElems([]int{n, n}, true)
		jkB, jkP := toPeerB[0][1], toPeerP[0][1]
		extra := perPair["A->B"] - batch["A->B"]
		model := float64(costmodel.Bytes(jkP-jkB, costmodel.Float64Width))
		fmt.Fprintf(w, "%6d %14.0f %16.0f %12.0f %12.0f %8d\n", n, batch["A->B"], perPair["A->B"], extra, model, jkP/jkB)
		if math.Abs(extra-model) > 0.01*model {
			broken = append(broken, fmt.Errorf("n = %d: per-pair adds %.0f bytes to J->K, the model %.0f", n, extra, model))
		}
	}
	return verdict(w, "SHAPE: per-pair masking multiplies J's disguise by h = m/2, the rows [0, h) it covers", broken...)
}

// runCostAlpha measures the alphanumeric protocol against Section 4.2:
// initiator O(n²+n·p), responder O(m²+m·q·n·p).
func runCostAlpha(w io.Writer) error {
	fmt.Fprintln(w, "two holders, one DNA attribute of fixed string length p = q = 16; n = m")
	fmt.Fprintln(w, "paper: DHJ sends O(n²+n·p), DHK sends O(m²+m·q·n·p)")
	fmt.Fprintln(w, "(each holder's own fixed session overhead subtracted)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%6s %14s %14s %14s %14s\n", "n", "J bytes", "model J", "K bytes", "model K")

	const p = 16
	overhead, err := sessionOverhead(alphaParts(p), 2)
	if err != nil {
		return err
	}
	// Local matrices ship as 8-byte float64 cells, protocol symbols at
	// DNA's two bits each, rows padded to a byte; the fit absorbs the
	// framing.
	modelK := func(n, m, p int) float64 {
		local, _ := costmodel.AlphaResponderElems(n, p, m, p)
		return float64(costmodel.Bytes(local, costmodel.Float64Width) + costmodel.AlphaResponderBytes(alphabet.DNA, n, p, m, p))
	}
	sizes := []int{8, 16, 32, 64}
	var measJ, measK, modJ, modK []float64
	for _, n := range sizes {
		parts, err := alphaParts(p)([]int{n, n}, uint64(n))
		if err != nil {
			return err
		}
		t, err := runSession(parts, protocol.Batch)
		if err != nil {
			return err
		}
		j, k := t.beyond(overhead, "A"), t.beyond(overhead, "B")
		lj, _ := costmodel.AlphaInitiatorElems(n, p)
		mj := float64(costmodel.Bytes(lj, costmodel.Float64Width) + costmodel.AlphaInitiatorBytes(alphabet.DNA, n, p))
		mk := modelK(n, n, p)
		measJ, measK = append(measJ, j), append(measK, k)
		modJ, modK = append(modJ, mj), append(modK, mk)
		fmt.Fprintf(w, "%6d %14.0f %14.0f %14.0f %14.0f\n", n, j, mj, k, mk)
	}
	_, devJ, _ := costmodel.FitScale(measJ, modJ)
	_, devK, errK := fitWithin("K over n", measK, modK, 0.15)
	fmt.Fprintf(w, "\nfit deviation: J %.1f%%, K %.1f%%\n", devJ*100, devK*100)

	fmt.Fprintln(w, "\nstring-length sweep at fixed n = m = 16:")
	fmt.Fprintf(w, "%6s %14s %14s\n", "p", "K bytes", "model K")
	var measP, modP []float64
	for _, pl := range []int{8, 16, 32, 64} {
		parts, err := alphaParts(pl)([]int{16, 16}, uint64(pl))
		if err != nil {
			return err
		}
		t, err := runSession(parts, protocol.Batch)
		if err != nil {
			return err
		}
		k, mk := t.beyond(overhead, "B"), modelK(16, 16, pl)
		measP, modP = append(measP, k), append(modP, mk)
		fmt.Fprintf(w, "%6d %14.0f %14.0f\n", pl, k, mk)
	}
	_, devP, errP := fitWithin("K over p", measP, modP, 0.15)
	fmt.Fprintf(w, "fit deviation over p sweep: %.1f%%\n", devP*100)
	return verdict(w, "SHAPE: responder traffic grows with m·q·n·p and initiator traffic with n², as the paper states",
		errK, errP, growsAsModel("J", sizes, measJ, modJ))
}

// runCostCategorical measures Section 4.3's O(n) per-holder cost.
func runCostCategorical(w io.Writer) error {
	fmt.Fprintln(w, "two holders, one categorical attribute")
	fmt.Fprintln(w, "paper: each holder sends O(n) encrypted values")
	fmt.Fprintln(w, "(the holder's own fixed session overhead subtracted)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%6s %14s %14s %14s\n", "n", "holder bytes", "model", "bytes/object")
	overhead, err := sessionOverhead(catParts, 2)
	if err != nil {
		return err
	}
	var meas, model []float64
	for _, n := range []int{64, 128, 256, 512} {
		parts, err := catParts([]int{n, n}, uint64(n))
		if err != nil {
			return err
		}
		t, err := runSession(parts, protocol.Batch)
		if err != nil {
			return err
		}
		j := t.beyond(overhead, "A")
		m := float64(costmodel.Bytes(costmodel.CategoricalElems(n), costmodel.TagWidth))
		meas, model = append(meas, j), append(model, m)
		fmt.Fprintf(w, "%6d %14.0f %14.0f %14.1f\n", n, j, m, j/float64(n))
	}
	_, dev, err := fitWithin("holder A", meas, model, 0.10)
	fmt.Fprintf(w, "\nfit deviation: %.1f%%\n", dev*100)
	return verdict(w, "SHAPE: each holder's traffic is linear in n, as analyzed", err)
}

// runCostAtallah compares this implementation's alphanumeric traffic with
// the homomorphic edit-distance model of Atallah et al. [8].
func runCostAtallah(w io.Writer) error {
	fmt.Fprintln(w, "total cross-site comparison traffic for n = m DNA strings of p = q = 20 symbols")
	fmt.Fprintln(w, "[8] modeled as 3 Paillier-1024 ciphertexts per DP cell (optimistic for [8])")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%6s %16s %18s %10s\n", "n=m", "ours (bytes)", "Atallah [8] (bytes)", "ratio")
	var broken []error
	for _, n := range []int{10, 50, 100, 500} {
		ours := costmodel.OursAlphaTotalBytes(alphabet.DNA, n, 20, n, 20)
		theirs := costmodel.DefaultAtallah.TotalBytes(n, 20, n, 20)
		ratio := float64(theirs) / float64(ours)
		fmt.Fprintf(w, "%6d %16d %18d %9.0fx\n", n, ours, theirs, ratio)
		if ratio < 100 {
			broken = append(broken, fmt.Errorf("n = %d: [8] costs only %.0fx ours", n, ratio))
		}
	}
	fmt.Fprintln(w, "\nthe paper: [8] is \"not feasible for clustering private data due to high")
	fmt.Fprintln(w, "communication costs\"; both grow as n²·p·q — the gap is the constant per compared cell")
	return verdict(w, "SHAPE: [8] needs at least 100x our traffic at every scale", broken...)
}
