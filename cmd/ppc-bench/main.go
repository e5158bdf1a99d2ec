// ppc-bench regenerates every evaluation artifact of the İnan et al. paper
// (worked examples, communication-cost analyses, security analyses and
// accuracy claims) as reproducible tables, and checks each: an experiment
// whose rows break its MATCH or SHAPE verdict fails, and ppc-bench exits
// non-zero. `go test ./cmd/ppc-bench` runs every experiment and checks
// every verdict. The experiment list is the index of the evaluation: each
// title names its experiment id and the paper section it reproduces.
//
// Usage:
//
//	ppc-bench                     # run everything
//	ppc-bench -run cost           # run experiments whose id contains "cost"
//	ppc-bench -list               # list experiment ids and titles
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
)

// experiment is one regenerable artifact: run prints its table and returns
// an error naming the row that breaks its verdict.
type experiment struct {
	id    string
	title string
	run   func(w io.Writer) error
}

var experiments = []experiment{
	{"fig3", "E1: Figure 3 worked numeric example (Section 4.1)", runFig3},
	{"fig7", "E3: Figure 7 worked alphanumeric example (Section 4.2)", runFig7},
	{"accuracy", "E2/E4/E5/E9: private vs centralized accuracy (Sections 4-5)", runAccuracy},
	{"fig13", "E10: Figure 13 result publication (Section 5)", runFig13},
	{"cost-numeric", "E6: numeric protocol communication costs (Section 4.1)", runCostNumeric},
	{"cost-alpha", "E7: alphanumeric protocol communication costs (Section 4.2)", runCostAlpha},
	{"cost-cat", "E8: categorical protocol communication costs (Section 4.3)", runCostCategorical},
	{"cost-vs-atallah", "E14: CCM protocol vs Atallah et al. [8] model (Section 4.2)", runCostAtallah},
	{"attack-freq", "E11: frequency attack, batch vs per-pair (Section 4.1)", runAttackFrequency},
	{"attack-eaves", "E12: channel eavesdropping inference (Section 4.1)", runAttackEavesdrop},
	{"attack-alpha", "E16: alphanumeric difference-matrix leak (Section 4.2)", runAttackAlpha},
	{"shapes", "E13: hierarchical vs k-means on shapes and strings (Section 5)", runShapes},
	{"scale-k", "E15: scaling with the number of data holders (Section 4)", runScaleK},
	{"extension", "E17: ordered/hierarchical categorical attributes (Section 4.3, future work)", runExtension},
}

func main() {
	runFilter := flag.String("run", "", "only run experiments whose id contains this substring")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-16s %s\n", e.id, e.title)
		}
		return
	}
	ran := 0
	for _, e := range experiments {
		if *runFilter != "" && !strings.Contains(e.id, *runFilter) {
			continue
		}
		fmt.Printf("\n================================================================\n")
		fmt.Printf("%s — %s\n", e.id, e.title)
		fmt.Printf("================================================================\n")
		if err := e.run(os.Stdout); err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		ran++
	}
	if ran == 0 {
		log.Fatalf("no experiment matches -run %q", *runFilter)
	}
}
