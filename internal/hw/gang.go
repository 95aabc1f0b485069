package hw

import "sync"

// Gang keeps a group of simulated cores' virtual clocks within a bounded
// skew of each other (conservative-window parallel discrete event
// simulation). Without it, the Go scheduler may run one core's entire
// loop before another's, so cores that *in virtual time* hammer the same
// cache line would never actually interleave and contention would be
// invisible. Each core calls Sync once per loop iteration; cores that run
// ahead of the slowest active member by more than the quantum block until
// the laggards catch up.
//
// A core that finishes its work must call Leave so the others stop waiting
// for it.
//
// The parallel gang serves tests (and the facade's RunGang), which want
// real concurrency under the race detector at a handful of cores: one
// mutex, one condvar, one scan of the member clocks per Sync. Figures
// never run on it — which of two virtually-concurrent operations resolves
// first is up to the Go scheduler here — they run under the deterministic
// schedule (Sched), which a Gang built by RunGangDet delegates to.
type Gang struct {
	quantum uint64 // skew bound in cycles

	// det, when non-nil, replaces the skew window with the deterministic
	// schedule: Sync becomes the calling core's proc yielding to the loop,
	// and the fields below go unused.
	det *Sched

	mu     sync.Mutex
	cond   sync.Cond
	clocks []uint64 // core ID -> last reported clock; notMember otherwise
}

// DefaultQuantum bounds virtual-clock skew to roughly one benchmark
// iteration, which makes simulated cores interleave about as tightly as
// the paper's real ones.
const DefaultQuantum = 2000

// notMember is the clock of a core outside the gang: above every real
// clock, so it never holds the minimum.
const notMember = ^uint64(0)

// NewGang creates a gang with the given skew bound in cycles
// (DefaultQuantum if 0).
func NewGang(quantum uint64) *Gang {
	if quantum == 0 {
		quantum = DefaultQuantum
	}
	g := &Gang{quantum: quantum}
	g.cond.L = &g.mu
	return g
}

// Join registers cpu as an active member. Call before the core's loop
// starts (and before any member can block on it).
func (g *Gang) Join(cpu *CPU) {
	if g.det != nil {
		return // membership is fixed under the deterministic schedule
	}
	now := cpu.Now()
	g.mu.Lock()
	for len(g.clocks) <= cpu.ID() {
		g.clocks = append(g.clocks, notMember)
	}
	// A joiner can only lower the minimum, which releases nobody: no wakeup.
	g.clocks[cpu.ID()] = now
	g.mu.Unlock()
}

// Sync reports cpu's clock and blocks while cpu is more than the quantum
// ahead of the slowest active member. cpu must have Joined.
func (g *Gang) Sync(cpu *CPU) {
	if g.det != nil {
		g.det.running(cpu).Yield()
		return
	}
	now := cpu.Now()
	g.mu.Lock()
	g.clocks[cpu.ID()] = now
	g.cond.Broadcast() // this report may have raised the minimum
	// The caller is a member, so the minimum is at most now.
	for now-g.minLocked() > g.quantum {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// Leave removes cpu from the gang so other members no longer wait for it.
func (g *Gang) Leave(cpu *CPU) {
	if g.det != nil {
		return // membership is fixed under the deterministic schedule
	}
	g.mu.Lock()
	if cpu.ID() < len(g.clocks) {
		g.clocks[cpu.ID()] = notMember
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// minLocked returns the slowest member's clock (notMember for an empty
// gang); callers hold g.mu.
func (g *Gang) minLocked() uint64 {
	min := notMember
	for _, c := range g.clocks {
		if c < min {
			min = c
		}
	}
	return min
}

// RunGang runs fn(cpu) concurrently on cores [0, ncores) of m, each joined
// to a fresh gang with the given quantum, and waits for completion. fn
// should call gang.Sync(cpu) once per loop iteration.
func RunGang(m *Machine, ncores int, quantum uint64, fn func(cpu *CPU, g *Gang)) {
	g := NewGang(quantum)
	for i := 0; i < ncores; i++ {
		g.Join(m.CPU(i))
	}
	var wg sync.WaitGroup
	for i := 0; i < ncores; i++ {
		wg.Add(1)
		go func(c *CPU) {
			defer wg.Done()
			defer g.Leave(c)
			fn(c, g)
		}(m.CPU(i))
	}
	wg.Wait()
}
