package hw

import "sync"

// Barrier is a phase barrier in both real and virtual time: all members
// block until everyone arrives, and every member leaves with its virtual
// clock advanced to the latest arrival. Workloads with distinct phases
// (e.g. the global microbenchmark's map/access/unmap rounds) use it so
// virtual-time throughput reflects the slowest core, as on real hardware.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	gen     uint64
	maxT    uint64    // running max of the current generation's arrivals
	release [2]uint64 // per-generation alignment targets (double-buffered:
	// a waiter of generation g always wakes before generation g+2 can
	// complete, since it must itself arrive at g+1)

	// detWaiters lists the cores parked here under the deterministic
	// schedule (touched only by its loop, so not guarded by b.mu).
	detWaiters []int
}

// NewBarrier creates a barrier for n members.
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks cpu until all n members have arrived, then aligns cpu's
// virtual clock with the slowest member. If the members are also gang
// members, pass the gang so the waiter is suspended from it — otherwise a
// core parked at the barrier pins the gang's minimum clock and cores still
// ahead of it deadlock in Sync.
func (b *Barrier) Wait(cpu *CPU, g *Gang) {
	if g != nil && g.det != nil {
		g.det.running(cpu).Wait(b)
		return
	}
	if g != nil {
		g.Leave(cpu)
		defer g.Join(cpu)
	}
	b.wait(cpu)
}

func (b *Barrier) wait(cpu *CPU) {
	now := cpu.Now()
	b.mu.Lock()
	gen := b.gen
	if now > b.maxT {
		b.maxT = now
	}
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.release[gen%2] = b.maxT
		b.maxT = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	t := b.release[gen%2]
	b.mu.Unlock()
	cpu.advanceTo(CauseIdle, t)
}
