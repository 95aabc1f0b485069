// Command radixbench regenerates the RadixVM paper's tables and figures.
//
// Usage:
//
//	radixbench -exp all                    # everything (several minutes)
//	radixbench -exp fig5 -cores 1,10,40,80 # one figure, custom sweep
//	radixbench -exp table2
//	radixbench -quick                      # fast smoke sweep (1,4,8 cores)
//
// Experiments: table1, fig4, fig5, fig6, fig7, fig8, fig9, mprotect,
// fork, spawn, clone, scale, fleet, filemap, table2, memory.
//
// The scale, fleet, and filemap experiments sweep 1..64 cores (1,8,64
// with -quick) across all three systems; fleet additionally sweeps the
// live-address-space axis 64..4096 (64,256 with -quick), and filemap the
// live-process axis 32..512 (32,128 with -quick). The other figure experiments
// keep the paper's 1,10,20,40,80 hardware-thread axis scaled to the
// default sweep.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"radixvm/internal/harness"
)

// sweep is what the flags choose: the figure and scale sweeps and the fleet
// and filemap live-process axes.
type sweep struct {
	o, so          harness.Options
	lives, fmLives []int
}

// experiments is every experiment, in -exp all order. Each prints its
// tables, or its text for table1, table2 and memory.
var experiments = []struct {
	name string
	run  func(s sweep)
}{
	{"table1", func(sweep) { fmt.Print(harness.Table1(".")) }},
	{"fig4", func(s sweep) { show(harness.Fig4(s.o)) }},
	{"fig5", func(s sweep) { show(harness.Fig5(s.o)...) }},
	{"fig6", func(s sweep) { show(harness.Fig6(s.o)) }},
	{"fig7", func(s sweep) { show(harness.Fig7(s.o)) }},
	{"fig8", func(s sweep) { show(harness.Fig8(s.o)) }},
	{"fig9", func(s sweep) { show(harness.Fig9(s.o)...) }},
	{"mprotect", func(s sweep) { show(harness.FigMprotect(s.o)) }},
	{"fork", func(s sweep) { show(harness.FigFork(s.o)) }},
	{"spawn", func(s sweep) { show(harness.FigSpawn(s.o)) }},
	{"clone", func(s sweep) { show(harness.FigClone(s.o)) }},
	{"scale", func(s sweep) { show(harness.FigScale(s.so)) }},
	{"fleet", func(s sweep) { show(harness.FigFleet(s.so, s.lives)...) }},
	{"filemap", func(s sweep) { show(harness.FigFileMap(s.so, s.fmLives)...) }},
	{"table2", func(sweep) { fmt.Print(harness.Table2()) }},
	// A laptop-sized point beside the paper's own 80-core measurement
	// (§5.4 cites 13x there).
	{"memory", func(sweep) { fmt.Print(harness.MetisMemory(20), harness.MetisMemory(80)) }},
}

func show(ts ...*harness.Table) {
	for _, t := range ts {
		t.Print(os.Stdout)
	}
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	exp := flag.String("exp", "all", "experiment: all|"+strings.Join(names, "|"))
	coresFlag := flag.String("cores", "", "comma-separated core counts (default 1,10,20,40,80; scale: 1,4,8,16,32,64)")
	iters := flag.Int("iters", 0, "per-core iterations (default per experiment)")
	quick := flag.Bool("quick", false, "fast smoke sweep (1,4,8 cores; scale: 1,8,64)")
	flag.Parse()

	s := sweep{harness.DefaultOptions(), harness.ScaleOptions(), harness.FleetLives, harness.FileMapLives}
	if *quick {
		s = sweep{harness.QuickOptions(), harness.ScaleQuickOptions(), harness.FleetQuickLives, harness.FileMapQuickLives}
	}
	if *coresFlag != "" {
		s.o.Cores = nil
		for _, part := range strings.Split(*coresFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "radixbench: bad core count %q\n", part)
				os.Exit(2)
			}
			s.o.Cores = append(s.o.Cores, n)
		}
		s.so.Cores = s.o.Cores
	}
	if *iters > 0 {
		s.o.Iters = *iters
		s.so.Iters = *iters
	}

	ran := false
	for _, e := range experiments {
		if *exp == "all" || *exp == e.name {
			e.run(s)
			fmt.Println()
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "radixbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
