package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestExperimentsMatchCommittedFigures holds the experiment list and
// figures/ to one set: every experiment but table1, whose line counts move
// with each change, has a committed figure that scripts/fig-stability.sh
// regenerates byte for byte, and every committed figure names an experiment.
func TestExperimentsMatchCommittedFigures(t *testing.T) {
	files, err := filepath.Glob("../../figures/*.txt")
	if err != nil {
		t.Fatal(err)
	}
	committed := map[string]bool{}
	for _, f := range files {
		committed[strings.TrimSuffix(filepath.Base(f), ".txt")] = true
	}
	known := map[string]bool{}
	for _, e := range experiments {
		known[e.name] = true
		if e.name != "table1" && !committed[e.name] {
			t.Errorf("experiment %s has no figures/%s.txt", e.name, e.name)
		}
	}
	for name := range committed {
		if !known[name] {
			t.Errorf("figures/%s.txt names no experiment", name)
		}
	}
}
