package main

import (
	"fmt"
	"io"

	"ppclust/internal/costmodel"
	"ppclust/internal/dataset"
	"ppclust/internal/protocol"
)

// runCostNumeric measures the numeric protocol's wire traffic against the
// paper's Section 4.1 analysis: initiator O(n²+n), responder O(m²+m·n).
func runCostNumeric(w io.Writer) error {
	fmt.Fprintln(w, "two holders, one numeric attribute, batch masking; n = m")
	fmt.Fprintln(w, "paper: DHJ sends O(n²+n), DHK sends O(m²+m·n)")
	fmt.Fprintln(w, "(fixed session overhead — handshakes, census, key transport — subtracted)")
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
		out, err := runSession(parts, protocol.Batch)
		if err != nil {
			return err
		}
		j := minusOverhead(sentBy(out, "A", "B", "TP"), overhead)
		k := minusOverhead(sentBy(out, "B", "A", "TP"), overhead)
		lj, pj := costmodel.NumericInitiatorElems(n, n, false)
		lk, pk := costmodel.NumericResponderElems(n, n)
		mj := float64(costmodel.Bytes(lj+pj, costmodel.Float64Width))
		mk := float64(costmodel.Bytes(lk+pk, costmodel.Float64Width))
		measJ = append(measJ, j)
		measK = append(measK, k)
		modelJ = append(modelJ, mj)
		modelK = append(modelK, mk)
		fmt.Fprintf(w, "%6d %14.0f %14.0f %14.0f %14.0f\n", n, j, mj, k, mk)
	}
	scaleJ, devJ, err := costmodel.FitScale(measJ, modelJ)
	if err != nil {
		return err
	}
	scaleK, devK, err := costmodel.FitScale(measK, modelK)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfit: measured = c * model; J: c=%.3f maxdev=%.1f%%; K: c=%.3f maxdev=%.1f%%\n",
		scaleJ, devJ*100, scaleK, devK*100)
	fmt.Fprintln(w, "SHAPE: traffic follows the paper's O(n²+n) / O(m²+m·n) with a wire-format constant")

	fmt.Fprintln(w, "\nbatch vs per-pair masking at the initiator (the countermeasure's price):")
	fmt.Fprintf(w, "%6s %16s %16s %8s\n", "n", "batch J bytes", "per-pair J bytes", "ratio")
	for _, n := range []int{32, 64, 128} {
		parts, err := numericParts([]int{n, n}, uint64(n))
		if err != nil {
			return err
		}
		outB, err := runSession(parts, protocol.Batch)
		if err != nil {
			return err
		}
		parts2, err := numericParts([]int{n, n}, uint64(n))
		if err != nil {
			return err
		}
		outP, err := runSession(parts2, protocol.PerPair)
		if err != nil {
			return err
		}
		// Only the J->K link shows the difference (disguised vector vs
		// disguised matrix).
		jb, _ := outB.Traffic["A->B"].Sent()
		jp, _ := outP.Traffic["A->B"].Sent()
		fmt.Fprintf(w, "%6d %16d %16d %8.1f\n", n, jb, jp, float64(jp)/float64(jb))
	}
	fmt.Fprintln(w, "SHAPE: per-pair masking multiplies initiator protocol traffic by ~m, as analyzed")
	return nil
}

// runCostAlpha measures the alphanumeric protocol against Section 4.2:
// initiator O(n²+n·p), responder O(m²+m·q·n·p).
func runCostAlpha(w io.Writer) error {
	fmt.Fprintln(w, "two holders, one DNA attribute of fixed string length p = q = 16; n = m")
	fmt.Fprintln(w, "paper: DHJ sends O(n²+n·p), DHK sends O(m²+m·q·n·p)")
	fmt.Fprintln(w, "(fixed session overhead subtracted)")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%6s %14s %14s %14s %14s\n", "n", "J bytes", "model J", "K bytes", "model K")

	const p = 16
	overhead, err := sessionOverhead(func(c []int, s uint64) ([]dataset.Partition, error) {
		return alphaParts(c, p, s)
	}, 2)
	if err != nil {
		return err
	}
	sizes := []int{8, 16, 32, 64}
	var measJ, measK, modelJ, modelK []float64
	for _, n := range sizes {
		parts, err := alphaParts([]int{n, n}, p, uint64(n))
		if err != nil {
			return err
		}
		out, err := runSession(parts, protocol.Batch)
		if err != nil {
			return err
		}
		j := minusOverhead(sentBy(out, "A", "B", "TP"), overhead)
		k := minusOverhead(sentBy(out, "B", "A", "TP"), overhead)
		lj, _ := costmodel.AlphaInitiatorElems(n, p)
		lk, _ := costmodel.AlphaResponderElems(n, p, n, p)
		// Local matrices ship as 8-byte float64 cells, protocol symbols
		// at DNA's two bits each, rows padded to a byte; the fit absorbs
		// the framing.
		mj := float64(costmodel.Bytes(lj, costmodel.Float64Width) + costmodel.AlphaInitiatorBytes(dnaAlpha(), n, p))
		mk := float64(costmodel.Bytes(lk, costmodel.Float64Width) + costmodel.AlphaResponderBytes(dnaAlpha(), n, p, n, p))
		measJ = append(measJ, j)
		measK = append(measK, k)
		modelJ = append(modelJ, mj)
		modelK = append(modelK, mk)
		fmt.Fprintf(w, "%6d %14.0f %14.0f %14.0f %14.0f\n", n, j, mj, k, mk)
	}
	_, devJ, err := costmodel.FitScale(measJ, modelJ)
	if err != nil {
		return err
	}
	_, devK, err := costmodel.FitScale(measK, modelK)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfit deviation: J %.1f%%, K %.1f%%\n", devJ*100, devK*100)

	fmt.Fprintln(w, "\nstring-length sweep at fixed n = m = 16:")
	fmt.Fprintf(w, "%6s %14s %14s\n", "p", "K bytes", "model K")
	var measP, modelP []float64
	for _, pl := range []int{8, 16, 32, 64} {
		parts, err := alphaParts([]int{16, 16}, pl, uint64(pl))
		if err != nil {
			return err
		}
		out, err := runSession(parts, protocol.Batch)
		if err != nil {
			return err
		}
		k := minusOverhead(sentBy(out, "B", "A", "TP"), overhead)
		lk, _ := costmodel.AlphaResponderElems(16, pl, 16, pl)
		mk := float64(costmodel.Bytes(lk, costmodel.Float64Width) + costmodel.AlphaResponderBytes(dnaAlpha(), 16, pl, 16, pl))
		measP = append(measP, k)
		modelP = append(modelP, mk)
		fmt.Fprintf(w, "%6d %14.0f %14.0f\n", pl, k, mk)
	}
	_, devP, err := costmodel.FitScale(measP, modelP)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fit deviation over p sweep: %.1f%%\n", devP*100)
	fmt.Fprintln(w, "SHAPE: responder traffic grows with m·q·n·p as the paper states")
	return nil
}

// runCostCategorical measures Section 4.3's O(n) per-holder cost.
func runCostCategorical(w io.Writer) error {
	fmt.Fprintln(w, "two holders, one categorical attribute")
	fmt.Fprintln(w, "paper: each holder sends O(n) encrypted values")
	fmt.Fprintln(w, "(fixed session overhead subtracted)")
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
		out, err := runSession(parts, protocol.Batch)
		if err != nil {
			return err
		}
		j := minusOverhead(sentBy(out, "A", "B", "TP"), overhead)
		m := float64(costmodel.Bytes(costmodel.CategoricalElems(n), costmodel.TagWidth))
		meas = append(meas, j)
		model = append(model, m)
		fmt.Fprintf(w, "%6d %14.0f %14.0f %14.1f\n", n, j, m, j/float64(n))
	}
	_, dev, err := costmodel.FitScale(meas, model)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfit deviation: %.1f%% — linear in n, as analyzed\n", dev*100)
	return nil
}

// runCostAtallah compares this implementation's alphanumeric traffic with
// the homomorphic edit-distance model of Atallah et al. [8].
func runCostAtallah(w io.Writer) error {
	fmt.Fprintln(w, "total cross-site comparison traffic for n = m DNA strings of p = q = 20 symbols")
	fmt.Fprintln(w, "[8] modeled as 3 Paillier-1024 ciphertexts per DP cell (optimistic for [8])")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%6s %16s %18s %10s\n", "n=m", "ours (bytes)", "Atallah [8] (bytes)", "ratio")
	for _, n := range []int{10, 50, 100, 500} {
		ours := costmodel.OursAlphaTotalBytes(dnaAlpha(), n, 20, n, 20)
		theirs := costmodel.DefaultAtallah.TotalBytes(n, 20, n, 20)
		fmt.Fprintf(w, "%6d %16d %18d %9.0fx\n", n, ours, theirs, float64(theirs)/float64(ours))
	}
	fmt.Fprintln(w, "\nSHAPE: the paper's claim that [8] is \"not feasible for clustering private")
	fmt.Fprintln(w, "data due to high communication costs\" holds at every scale (over 1000x here);")
	fmt.Fprintln(w, "note both grow as n²·p·q — the gap is the constant per compared cell")
	return nil
}
