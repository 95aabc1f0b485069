package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports: the last line of a
// --workload run's output, and one entry of the -json document.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// The fields below go to the -json document only.

	// fingerprint hashes every leg's virtual results; iqrPct is the spread
	// of each host metric over the run's measured rounds, which -compare
	// needs to tell a difference from noise.
	fingerprint string
	iqrPct      map[string]float64
	rounds      int
	why         []string
}

// options are one run's inputs.
type options struct {
	seconds int
	smoke   bool // 8 cores, one round, no probes
	outDir  string
	log     io.Writer // metric lines and notes, human-readable
	start   time.Time // when this run's set-up began
	// shared is set when one process runs every workload in turn: the
	// resident-set high-water mark then belongs to no single workload.
	shared bool
}

func (o *options) logf(format string, args ...any) { fmt.Fprintf(o.log, format, args...) }

// tally adds a round's attempts and failures to res.
func (res *result) tally(rd *round) {
	for l := range rd {
		res.Attempted += rd[l].attempted
		res.Failed += rd[l].failed
		if rd[l].why != "" {
			res.why = append(res.why, rd[l].why)
		}
	}
}

func fingerprint(rd *round) string {
	h := fnv.New64a()
	for l := range rd {
		io.WriteString(h, rd[l].print) // a hash.Hash never fails a write
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// runMeasured is the --trace 0 run: one untimed warm-up round, then
// measured rounds for o.seconds seconds with tracing off. Host metrics are
// medians over the measured rounds; virtual metrics are exact and checked
// to repeat in every round.
func runMeasured(w *workloadDef, o *options) *result {
	res := &result{Metrics: map[string]value{}, iqrPct: map[string]float64{}}
	warm := runRound(w, o.smoke, newSystem, nil)
	res.tally(warm)
	setup := time.Since(o.start)
	res.fingerprint = fingerprint(warm)

	var hostR, hostB, nsVop, allocMB, mallocsK []float64
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for {
		rd := runRound(w, o.smoke, newSystem, nil)
		rd.checkAgainst(warm, "the warm-up round")
		res.tally(rd)
		rx, an := &rd[legRadix], &rd[legAnchor]
		hostR = append(hostR, rd.radixHost().Seconds())
		hostB = append(hostB, rd.baseHost().Seconds())
		nsVop = append(nsVop, float64(rd.radixHost().Nanoseconds())/float64(rx.attempted+an.attempted))
		allocMB = append(allocMB, float64(rx.allocB+an.allocB)/1e6)
		mallocsK = append(mallocsK, float64(rx.mallocs+an.mallocs)/1e3)
		if o.smoke || !time.Now().Before(deadline) {
			break
		}
	}
	res.rounds = len(hostR)

	host := func(name string, xs []float64) {
		res.iqrPct[name] = iqrPct(xs)
		res.Metrics[name] = value{Value: median(xs)}
	}
	res.Metrics["setup_s"] = value{Value: setup.Seconds()}
	host("radix_host_s", hostR)
	host("base_host_s", hostB)
	host("radix_host_ns_per_vop", nsVop)
	host("radix_alloc_mb", allocMB)
	host("radix_mallocs_k", mallocsK)
	res.Metrics["v_radix_tput"] = value{Value: warm[legRadix].tput / 1e3}
	if a := warm[legAnchor].tput; a > 0 {
		res.Metrics["v_radix_scale_x"] = value{Value: warm[legRadix].tput / a}
	}
	res.finish(w, o, endToEnd)
	o.logf("%-8s %d measured rounds; spread over them (IQR/median): radix_host_s %.1f%%, base_host_s %.1f%%\n",
		w.name, res.rounds, res.iqrPct["radix_host_s"], res.iqrPct["base_host_s"])
	o.logf("%-8s rounds, sorted: radix_host_s %.3f, base_host_s %.3f\n", w.name, hostR, hostB)
	return res
}

// runTraced is the --trace 1 run: a warm-up round, one untraced round as
// the reference, one round with the tracing decorator interposed, then the
// workload's layer probes. Its work is fixed; it does not stretch to
// o.seconds.
func runTraced(w *workloadDef, o *options) *result {
	res := &result{Metrics: map[string]value{}}
	warm := runRound(w, o.smoke, newSystem, nil)
	res.tally(warm)
	res.fingerprint = fingerprint(warm)
	ref := runRound(w, o.smoke, newSystem, nil)
	ref.checkAgainst(warm, "the warm-up round")
	res.tally(ref)
	// The process's high-water mark, read before the span buffer exists.
	// It is this workload's only when the process ran nothing before it.
	var rss float64
	if !o.shared {
		rss = peakRSSMB()
	}

	tr := newTracer(maxSpans)
	trd := runRound(w, o.smoke, newSystem, tr)
	trd.checkAgainst(warm, "the untraced rounds")
	res.tally(trd)

	m := map[string]float64{}
	rx := &trd[legRadix]
	ops, self := tr.legs[legRadix].stats()
	for op, s := range ops {
		p := "vm." + vmOps[op]
		m[p+".count"] = float64(s.count)
		m[p+".host_s"] = s.host.Seconds()
		m[p+".host_ns_p50"] = s.p50
		m[p+".host_ns_p99"] = s.p99
		m[p+".vcyc_mean"] = s.vcycMean
	}
	m["workload.self_host_s"] = self.Seconds()
	m["workload.self_share"] = share(self.Seconds(), rx.host.Seconds())
	var baseSelf time.Duration
	for _, l := range []leg{legLinux, legBonsai} {
		sys := legNames[l] + "vm"
		ops, self := tr.legs[l].stats()
		baseSelf += self
		for op, s := range ops[:opExit] {
			m[sys+"."+vmOps[op]+".host_s"] = s.host.Seconds()
			m[sys+"."+vmOps[op]+".vcyc_mean"] = s.vcycMean
		}
		m[sys+".v_tput"] = trd[l].tput / 1e3
		m[sys+".ipis_per_kvop"] = perK(trd[l].stats.IPIsSent, trd[l].attempted)
	}
	m["workload.base_self_share"] = share(baseSelf.Seconds(), trd.baseHost().Seconds())
	m["workload.v_p50_kcyc"] = float64(rx.p50) / 1e3
	m["workload.v_p99_kcyc"] = float64(rx.p99) / 1e3
	m["workload.v_ipis_per_writeback"] = rx.ipisPerWriteback

	st := rx.stats
	m["hw.xfers_per_kvop"] = perK(st.Transfers, rx.attempted)
	m["hw.xsocket_share"] = share(float64(st.CrossSocket), float64(st.Transfers))
	m["hw.ipis_per_kvop"] = perK(st.IPIsSent, rx.attempted)
	m["hw.ipi_mbox_high"] = float64(st.IPIMboxMax)
	m["hw.sched.deferred_share"] = share(float64(rx.deferred), float64(rx.arrivals))
	m["hw.sched.runq_high"] = float64(rx.runqHigh)
	m["refcache.reviews_per_kvop"] = perK(rx.reviews, rx.attempted)
	m["refcache.review_q_high"] = float64(rx.reviewQ)
	m["refcache.evicts_per_kvop"] = perK(st.RefcacheEvicts, rx.attempted)
	m["pagetable.bytes_end_mb"] = float64(tr.legs[legRadix].ptBytes) / 1e6
	m["mem.pages_zeroed_per_kvop"] = perK(st.PagesZeroed, rx.attempted)
	m["mem.frames_created"] = float64(rx.created)
	m["mem.pagecache_fills"] = float64(rx.cacheFills)
	m["mem.sharer_high"] = float64(rx.sharerHigh)

	if !o.smoke {
		for _, p := range probes {
			if !slices.Contains(w.probes, p.name) {
				continue
			}
			out := p.run()
			m[p.name+".host_ns"] = out.hostNs
			m[p.name+".vcyc"] = out.vcyc
			m[p.name+".alloc_kb"] = out.allocKB
		}
	}

	var gcCycles uint32
	var gcPause time.Duration
	for _, l := range []leg{legRadix, legAnchor} {
		gcCycles += ref[l].gcCycles
		gcPause += ref[l].gcPause
	}
	m["host.gc_cycles"] = float64(gcCycles)
	m["host.gc_pause_ms"] = float64(gcPause.Microseconds()) / 1e3
	m["host.peak_rss_mb"] = rss
	untraced := ref[legRadix].host + ref.baseHost()
	m["tracing.overhead_pct"] = 100 * share((rx.host+trd.baseHost()-untraced).Seconds(), untraced.Seconds())

	for _, d := range perLayer {
		res.Metrics[d.name] = value{Value: m[d.name]}
	}
	res.finish(w, o, perLayer)
	path := filepath.Join(o.outDir, "trace-"+w.name+".json")
	if err := tr.writeChrome(path); err != nil {
		o.logf("%-8s trace file not written: %v\n", w.name, err)
	} else {
		o.logf("%-8s spans written to %s\n", w.name, path)
	}
	return res
}

// finish stamps units, settles correctness and prints the metric lines.
func (res *result) finish(w *workloadDef, o *options, defs []metricDef) {
	res.Correct = res.Failed == 0
	for _, d := range defs {
		v := res.Metrics[d.name]
		v.Unit = d.unit
		res.Metrics[d.name] = v
		o.logf("%-8s %-34s %16s %s\n", w.name, d.name, strconv.FormatFloat(v.Value, 'g', 8, 64), d.unit)
	}
	o.logf("%-8s correct=%v attempted=%d failed=%d (simulated VM ops) virtual-fingerprint=%s\n",
		w.name, res.Correct, res.Attempted, res.Failed, res.fingerprint)
	for _, why := range res.why {
		o.logf("%-8s FAILED %s\n", w.name, why)
	}
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func perK(n, vops uint64) float64 { return share(1000*float64(n), float64(vops)) }

// peakRSSMB reads the process's resident-set high-water mark; 0 where the
// kernel does not report one.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "123456 kB"
			if len(f) == 0 {
				return 0
			}
			kb, _ := strconv.ParseFloat(f[0], 64) // 0 on a malformed line
			return kb / 1024
		}
	}
	return 0
}

// modelNote is printed with every run: the repo holds no reference
// measurements from the paper, so no error figure can be given.
const modelNote = "virtual metrics come from a cost model that is UNVALIDATED against hardware: " +
	"the repo holds no reference measurements (PAPER.md is a stub), so no error figure is given"
