package hw

import (
	"runtime"
	"sync"
)

// Gang is what a RunGang or RunGangDet body calls Sync on, once per loop
// iteration. Under RunGangDet, Sync is the calling core's proc yielding to
// the deterministic schedule (Sched), the one thing in this package that
// keeps the virtual clocks in step. Under RunGang, Sync only yields the host
// processor, so the cores' goroutines interleave in real time.
type Gang struct {
	det *Sched // the schedule RunGangDet runs on; nil under RunGang
}

// Sync is a yield point: cpu's proc yields to the schedule under RunGangDet,
// its goroutine to the Go scheduler under RunGang.
func (g *Gang) Sync(cpu *CPU) {
	if g.det == nil {
		runtime.Gosched()
		return
	}
	g.det.running(cpu).Yield()
}

// RunGang runs fn(cpu) on cores [0, ncores) of m, one goroutine each, and
// waits for them all. It is the harness for code that must be correct under
// any interleaving: the race detector sees real concurrency, in whatever
// order the Go scheduler picks. Nothing keeps the clocks in step, so the
// virtual time a RunGang run leaves measures nothing; a body whose virtual
// time matters runs under RunGangDet.
func RunGang(m *Machine, ncores int, fn func(cpu *CPU, g *Gang)) {
	g := &Gang{}
	var wg sync.WaitGroup
	for i := 0; i < ncores; i++ {
		wg.Add(1)
		go func(c *CPU) {
			defer wg.Done()
			fn(c, g)
		}(m.CPU(i))
	}
	wg.Wait()
}
