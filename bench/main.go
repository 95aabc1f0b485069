// Command bench is the repo's two-clock benchmark. It drives four
// workloads through the real figure path (workload -> hw.Sched on the
// deterministic gang -> vm.System -> radix/refcache/pagetable/tlb/mem ->
// hw) and reports, by name and with units, what the modelled machine would
// do (virtual metrics, exact) and what the simulator costs to run (host
// metrics, medians over rounds). See README.md.
//
//	go run . [--seconds s] [-json out.json]               all workloads, both runs
//	go run . --workload fleet --seed 3 --seconds 15 --trace 0
//	go run . -smoke                                       8 cores, one round
//	go run . -compare a.json b.json                       judge two -json documents
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// procStart is as close to process start as a Go program can observe.
var procStart = time.Now()

// runSeconds is BENCHMARK.json's run_seconds, the default for --seconds.
const runSeconds = 15

// document is what -json writes and -compare reads: every workload's
// measured and traced results from one invocation.
type document struct {
	Seconds    int                     `json:"seconds"`
	GoMaxProcs int                     `json:"gomaxprocs"`
	GoVersion  string                  `json:"go"`
	Workloads  map[string]*docWorkload `json:"workloads"`
}

type docWorkload struct {
	Correct     bool               `json:"correct"`
	Attempted   uint64             `json:"attempted"`
	Failed      uint64             `json:"failed"`
	Fingerprint string             `json:"virtual_fingerprint"`
	Rounds      int                `json:"rounds"`
	EndToEnd    map[string]value   `json:"end_to_end"`
	RoundIQRPct map[string]float64 `json:"round_iqr_pct"`
	PerLayer    map[string]value   `json:"per_layer,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "run one workload (local, global, fleet, filemap) and end with its result line; default: all of them, measured then traced")
	seed := flag.Int64("seed", 1, "accepted because the benchmark driver passes one; every workload's input is fixed (see arrivalSeed), so it changes nothing")
	seconds := flag.Int("seconds", runSeconds, "how long a run repeats measured rounds")
	trace := flag.Int("trace", 0, "with --workload: 0 measures end-to-end metrics with tracing off, 1 does the traced run for the per-layer metrics")
	smoke := flag.Bool("smoke", false, "8 simulated cores, one round, no probes: a few seconds, for tests")
	jsonPath := flag.String("json", "", "also write every result to this file, for -compare")
	compare := flag.Bool("compare", false, "compare two -json documents: bench -compare a.json b.json")
	spec := flag.String("spec", "../BENCHMARK.json", "with -compare: where the bounds are")
	outDir := flag.String("out", "out", "directory for the traced runs' span files")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		worse, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace takes 0 or 1")
		os.Exit(2)
	}

	// Closed loop, one client: the det gang runs one goroutine at a time,
	// so the host clock measures a serial program plus the runtime's
	// hand-offs. Two Ps is what a figure regeneration gets on the
	// reference host.
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	fmt.Printf("bench: GOMAXPROCS=%d %s seconds=%d smoke=%v\n", procs, runtime.Version(), *seconds, *smoke)
	fmt.Printf("bench: --seed %d changes nothing: local and global take no random input, and the fleet and filemap arrival streams are fixed at seed %d\n", *seed, arrivalSeed)
	fmt.Println("bench:", modelNote)

	o := &options{seconds: *seconds, smoke: *smoke, outDir: *outDir, log: os.Stdout, start: procStart}
	if *workload != "" {
		w := workloadByName(*workload)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		res := runOne(w, o, *trace == 1)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		fmt.Println(string(line))
		return
	}

	// One process, every workload: host.peak_rss_mb reads 0 (see README.md).
	o.shared = true
	doc := &document{Seconds: *seconds, GoMaxProcs: procs, GoVersion: runtime.Version(), Workloads: map[string]*docWorkload{}}
	ok := true
	for _, w := range workloads {
		e2e := runOne(w, o, false)
		o.start = time.Now()
		layers := runOne(w, o, true)
		o.start = time.Now()
		doc.Workloads[w.name] = &docWorkload{
			Correct:     e2e.Correct && layers.Correct,
			Attempted:   e2e.Attempted + layers.Attempted,
			Failed:      e2e.Failed + layers.Failed,
			Fingerprint: e2e.fingerprint,
			Rounds:      e2e.rounds,
			EndToEnd:    e2e.Metrics,
			RoundIQRPct: e2e.iqrPct,
			PerLayer:    layers.Metrics,
		}
		ok = ok && e2e.Correct && layers.Correct
	}
	out, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	fmt.Println(string(out))
	if !ok {
		os.Exit(1)
	}
}

func runOne(w *workloadDef, o *options, traced bool) *result {
	if traced {
		return runTraced(w, o)
	}
	return runMeasured(w, o)
}
