package main

import (
	"io"
	"testing"
)

// TestExperiments runs every experiment at the sizes ppc-bench prints and
// fails on any broken verdict: each printed MATCH or SHAPE line is checked
// against the rows it summarizes.
func TestExperiments(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.id, func(t *testing.T) {
			if err := e.run(io.Discard); err != nil {
				t.Fatalf("%s: %v", e.title, err)
			}
		})
	}
}
