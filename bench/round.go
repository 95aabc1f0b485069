package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
	"radixvm/internal/workload"
)

// legRun is one executed leg: the workload's outcome plus what the host
// paid for it.
type legRun struct {
	outcome
	host      time.Duration
	allocB    uint64 // MemStats.TotalAlloc delta
	mallocs   uint64 // MemStats.Mallocs delta
	gcCycles  uint32
	gcPause   time.Duration
	reviews   uint64 // refcache objects reviewed during the leg
	reviewQ   int    // deepest per-core review queue
	created   int64  // frames the allocator ever created
	attempted uint64 // simulated VM ops the leg executed
	failed    uint64
	why       string // first reason an op was counted failed
}

// builder makes a leg's VM system; the tests substitute a faulty one.
type builder func(l leg, e *workload.Env, a *mem.Allocator) vm.System

// epochs drives n whole refcache epochs on a quiescent machine. Three free
// every object whose true count is already zero (flush, the two-epoch
// review delay, review).
func epochs(rc *refcache.Refcache, n int) {
	for i := 0; i < n; i++ {
		rc.FlushAll()
	}
}

// quiesceEpochs is what the leak check waits: frees cascade (a node's
// death drops its frames' references), so it is a generous fixed count.
const quiesceEpochs = 20

// runLeg runs workload w's leg l on a fresh machine. tr, when non-nil,
// interposes the tracing decorator between the workload and the system.
//
// A panic on the calling goroutine (a workload's set-up, a system's
// constructor) fails every op of the leg. A panic inside a scheduled proc
// runs on hw.Sched's own goroutine and cannot be recovered from out here:
// it ends the process without a result line, which the benchmark's caller
// sees as a failed run.
func runLeg(w *workloadDef, l leg, smoke bool, build builder, tr *tracer) (r legRun) {
	cores := fullCores
	switch {
	case l == legAnchor:
		cores = 1
	case smoke:
		cores = smokeCores
	}
	e, a := newEnv(cores)
	// fail counts n of the leg's ops as failed; the first reason is kept.
	fail := func(n uint64, format string, args ...any) {
		if r.why == "" {
			r.why = fmt.Sprintf("%s/%s: ", w.name, legNames[l]) + fmt.Sprintf(format, args...)
		}
		r.failed = max(r.failed, min(n, r.attempted))
	}
	func() {
		defer func() {
			if p := recover(); p != nil {
				r.attempted = max(1, vops(e.M.TotalStats()))
				fail(r.attempted, "panic: %v", p)
			}
		}()
		sys := build(l, e, a)
		if tr != nil {
			sys = tr.wrap(sys)
		}
		runtime.GC() // every leg starts from a collected heap
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		rev0 := e.RC.Reviews()
		t0 := time.Now()
		if tr != nil {
			tr.begin(t0)
		}
		r.outcome = w.run(e, a, sys, cores, l, smoke)
		r.host = time.Since(t0)
		if tr != nil {
			tr.end(r.host)
		}
		runtime.ReadMemStats(&m1)
		r.allocB = m1.TotalAlloc - m0.TotalAlloc
		r.mallocs = m1.Mallocs - m0.Mallocs
		r.gcCycles = m1.NumGC - m0.NumGC
		r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
		r.reviews = e.RC.Reviews() - rev0
		r.reviewQ = e.RC.ReviewQueueHighWater()
		r.attempted = max(1, vops(r.stats))
	}()
	if r.failed > 0 {
		return r
	}
	if r.ops != r.wantOps {
		fail(r.attempted, "%d %ss, want %d", r.ops, w.op, r.wantOps)
	}
	epochs(e.RC, quiesceEpochs)
	r.created = a.Created()
	if leaked := a.Live() - r.residue; leaked > 0 {
		fail(uint64(leaked), "%d frames live after quiesce, want %d", a.Live(), r.residue)
	}
	return r
}

// round is the four legs of one workload on fresh machines.
type round [nLegs]legRun

func (rd *round) radixHost() time.Duration { return rd[legRadix].host + rd[legAnchor].host }
func (rd *round) baseHost() time.Duration  { return rd[legLinux].host + rd[legBonsai].host }

// runRound runs the four legs. tr traces the three full-size legs; the
// anchor leg is never traced.
func runRound(w *workloadDef, smoke bool, build builder, tr *tracer) *round {
	rd := new(round)
	for l := leg(0); l < nLegs; l++ {
		t := tr
		if l == legAnchor {
			t = nil
		}
		if t != nil {
			t.leg = l
		}
		rd[l] = runLeg(w, l, smoke, build, t)
	}
	return rd
}

// checkAgainst fails every leg of rd whose virtual results differ from
// ref's: the simulator is deterministic, so a difference is a defect.
func (rd *round) checkAgainst(ref *round, what string) {
	for l := range rd {
		if rd[l].failed == 0 && ref[l].failed == 0 && rd[l].print != ref[l].print {
			rd[l].failed = rd[l].attempted
			rd[l].why = fmt.Sprintf("%s: virtual results differ from %s", legNames[l], what)
		}
	}
}

// median returns the median of xs (the mean of the middle two for an even
// count). xs is reordered.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// iqrPct is the distance between the first and third quartile of xs as a
// percentage of their median, with the quartiles taken as Python's
// statistics.quantiles(xs, n=4) takes them. Fewer than two values have no
// spread.
func iqrPct(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 { // exclusive method: position k*(n+1)/4, 1-based
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return 100 * (q(3) - q(1)) / med
}
