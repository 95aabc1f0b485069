package hw

// Barrier is a phase barrier of the deterministic schedule: procs wait at it
// with Ctx.Wait, and every member leaves with its core's clock advanced to the
// latest arrival. Workloads with distinct phases (e.g. the global
// microbenchmark's map/access/unmap rounds) use it so virtual-time throughput
// reflects the slowest core, as on real hardware. Only the schedule's loop
// touches it.
type Barrier struct {
	n       int
	maxT    uint64 // the latest arrival of the current phase
	waiters []int  // the cores waiting here, in arrival order
}

// NewBarrier creates a barrier for n members.
func NewBarrier(n int) *Barrier { return &Barrier{n: n} }
