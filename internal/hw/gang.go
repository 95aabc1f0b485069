package hw

import (
	"fmt"
	"os"
	"strconv"
)

// Gang is what a RunGang or RunGangDet body calls Sync on, once per loop
// iteration.
type Gang struct{ s *Sched }

// Sync is a yield point: cpu's proc yields to the schedule.
func (g *Gang) Sync(cpu *CPU) { g.s.running(cpu).Yield() }

// RunGang runs fn(cpu) on cores [0, ncores) of m like RunGangDet, but on the
// explorer seeded with seed: the harness for code that must be correct under
// any interleaving. The explorer grants steps to cores at random within a
// window of the lowest clock and may take a core back at every preemption
// point (CPU.Preempt), so one seed is one interleaving of the cores'
// operations, replayed exactly by running the seed again; a test sweeps a
// range of seeds (Seeds). The clocks a RunGang leaves measure nothing; a body
// whose virtual time matters runs under RunGangDet.
func RunGang(m *Machine, ncores int, seed uint64, fn func(cpu *CPU, g *Gang)) {
	s := NewSched(0)
	s.x = newExplorer(s, seed)
	runGang(s, m, ncores, fn)
}

// runGang runs fn as one proc pinned to each of cores [0, ncores) of m on s.
func runGang(s *Sched, m *Machine, ncores int, fn func(cpu *CPU, g *Gang)) {
	g := &Gang{s}
	for i := 0; i < ncores; i++ {
		s.Spawn(i, func(tc *Ctx) { fn(tc.CPU(), g) })
	}
	s.Run(m, ncores, 0)
}

// Seeds is how many seeds a test sweeps RunGang over: n, or the count the
// RADIXVM_SEEDS environment variable names when that is larger (a soak).
func Seeds(n uint64) uint64 {
	if v, err := strconv.ParseUint(os.Getenv("RADIXVM_SEEDS"), 10, 64); err == nil && v > n {
		return v
	}
	return n
}

// explorer is the seeded schedule RunGang runs on. Where the deterministic
// pick steps the ready core with the lowest (clock, ID), the explorer steps
// one drawn at random among the ready cores whose clock is within window of
// the lowest, and at every preemption point it may take the running core
// back mid-operation. The draw is weighted by a weight each core gets per
// seed, so some seeds run one core far ahead of another, as far as the
// window lets it. A contended acquire is a wait (CPU.Stall): its core leaves
// the pick until another core's step has made progress — passed a preemption
// point or ended in anything but a stall — which is what can have released
// the resource. Every acquire passes a preemption point before it can wait.
// Every decision is a draw from one splitmix64 stream, so a seed replays
// exactly: the same grants, clocks, statistics and frames.
type explorer struct {
	s        *Sched
	rng      uint64 // splitmix64 state
	mask     uint64 // a preemption point yields when a draw has these bits clear
	weight   [MaxCores]uint64
	cur      int    // the core being stepped, -1 between steps
	passed   uint64 // preemption points passed
	progress uint64 // steps that passed a preemption point or ended in anything but a stall
	retried  uint64 // progress+1 at the last round that retried every stalled core
	grants   []uint8
}

// window is how far past the lowest ready clock a core may be granted a step.
const window = 1 << 16

func newExplorer(s *Sched, seed uint64) *explorer {
	x := &explorer{s: s, rng: seed, cur: -1}
	// Preemption density is part of the seed: a yield at one point in 2 to
	// one in 64.
	x.mask = 1<<(1+x.draw()%6) - 1
	for i := range x.weight {
		x.weight[i] = 1 << (x.draw() % 6)
	}
	return x
}

// draw returns the stream's next number.
func (x *explorer) draw() uint64 {
	x.rng += 0x9e3779b97f4a7c15
	z := x.rng
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// eligible reports whether core k may be granted a step.
func (x *explorer) eligible(k *core) bool { return k.state == coreReady && k.stall <= x.progress }

// pick returns the core to step next, or -1 when no core is ready. The window
// is anchored at the lowest clock of the eligible cores that are not waiting:
// a waiting core's clock stands still, and it must not hold back the core it
// waits for.
func (x *explorer) pick() int {
	cores := x.s.cores
	retrying := x.retried == x.progress+1
	lo, wlo := out, out
	for i := range cores {
		if k := &cores[i]; !x.eligible(k) {
			continue
		} else if k.waiting {
			wlo = min(wlo, k.clock)
		} else {
			lo = min(lo, k.clock)
		}
	}
	if lo == out {
		lo = wlo
	}
	if lo == out {
		stalled := false
		for i := range cores {
			if k := &cores[i]; k.state == coreReady {
				k.stall, stalled = 0, true
			}
		}
		if !stalled {
			return -1
		}
		// Every ready core waits. Let each retry once, whatever its clock. A
		// retry round with no progress is a deadlock.
		if retrying {
			panic("hw: explorer deadlock: every ready core waits for a held lock")
		}
		x.retried = x.progress + 1
		return x.pick()
	}
	in := func(k *core) bool {
		return x.eligible(k) && (retrying || k.clock <= lo || k.clock-lo <= window)
	}
	var sum uint64
	for i := range cores {
		if in(&cores[i]) {
			sum += x.weight[i]
		}
	}
	r := x.draw() % sum
	for i := range cores {
		if in(&cores[i]) {
			if r < x.weight[i] {
				x.grants = append(x.grants, uint8(i))
				return i
			}
			r -= x.weight[i]
		}
	}
	panic("unreachable")
}

// Preempt is a preemption point: on the explorer, the core's proc may yield
// here to let another core run; everywhere else it does nothing. CPU.Read and
// CPU.Write, the lock acquires and the radix tree's quiescence gate call it.
func (c *CPU) Preempt() {
	if c.x != nil {
		c.preempt()
	}
}

func (c *CPU) preempt() {
	x := c.x
	if x.cur != c.id {
		return // a handler run by proxy for this core, on another
	}
	if x.passed++; x.draw()&x.mask == 0 {
		x.s.running(c).yield(yieldSync)
	}
}

// Stall is a contended acquire's wait: the caller found what it acquires held
// and tries again when Stall returns. On the explorer the core leaves the pick
// until another core has made progress. Anywhere else no other core can run
// while this one waits, so the resource can never be released: Stall panics.
func (c *CPU) Stall() {
	if x := c.x; x == nil || x.cur != c.id {
		panic(fmt.Sprintf("hw: core %d waits for a lock no other core can release", c.id))
	}
	c.x.s.running(c).yield(yieldStall)
}
