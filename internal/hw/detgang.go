package hw

import "sync"

// detSched runs a gang's members as a sequential discrete-event schedule:
// exactly one member executes at a time, and at every yield point (Sync,
// Barrier.Wait, idle parking) the scheduler hands the token to the runnable
// member with the lowest (virtual clock, core ID). Virtual-time arithmetic is
// untouched — members still overlap in virtual time exactly as under the
// parallel gang — but the *real* order in which overlapping operations
// resolve (home-node gate folds, seqlock outcomes, mailbox enqueues)
// becomes a pure function of virtual time. That is what makes figure
// outputs byte-stable across runs: the parallel gang bounds virtual skew
// but still lets the Go scheduler pick which of two virtually-concurrent
// line transfers folds first, and the gate's answer depends on that order.
//
// Every figure runs under this schedule (RunGangDet, or Sched.Run on top
// of it), so the paper's numbers are reproducible bit-for-bit. The
// parallel gang (RunGang) drives only unit and stress tests, which keep
// the functional code under real concurrency and the race detector.
//
// Members may hold no hw.Lock or other real mutex across a yield point
// (Sync/Barrier/idle park) — all workloads yield only at top level, between
// operations — so the running member never blocks on a lock held by a
// parked one. There are no off-schedule points: every way a member can
// wait, including a scheduled proc waiting on another proc (hw.Sched's
// park/wake protocol), goes through the token machinery, so the entire
// run is a pure function of virtual time.
type detSched struct {
	mu     sync.Mutex
	n      int
	state  []int8
	clocks []uint64        // last reported virtual clock per member
	target []uint64        // advanceTo on next resume (barrier release)
	resume []chan struct{} // buffered(1) wakeup per member
}

const (
	detReady   int8 = iota // runnable, waiting for the token
	detRunning             // holds the token
	detBarrier             // parked at a Barrier
	detIdle                // idle worker core: clock frozen until woken
	detDone                // fn returned
)

func newDetSched(m *Machine, ncores int) *detSched {
	d := &detSched{
		n:      ncores,
		state:  make([]int8, ncores),
		clocks: make([]uint64, ncores),
		target: make([]uint64, ncores),
		resume: make([]chan struct{}, ncores),
	}
	for i := 0; i < ncores; i++ {
		d.state[i] = detReady
		d.clocks[i] = m.CPU(i).Now()
		d.resume[i] = make(chan struct{}, 1)
	}
	return d
}

// pickLocked returns the ready member with the lowest (clock, ID), or -1.
// Ties resolve by core ID, so the choice — and therefore the entire
// schedule — is deterministic. Callers hold d.mu.
func (d *detSched) pickLocked() int {
	next := -1
	var best uint64
	for j := 0; j < d.n; j++ {
		if d.state[j] == detReady && (next == -1 || d.clocks[j] < best) {
			next, best = j, d.clocks[j]
		}
	}
	return next
}

// handoffLocked grants the token to the best ready member. If that is the
// caller itself, it keeps running; otherwise the caller wakes the winner
// and, when park is true, sleeps until regranted. Callers hold d.mu, which
// is released.
func (d *detSched) handoffLocked(id int, park bool) {
	next := d.pickLocked()
	if next == id {
		d.state[id] = detRunning
		d.mu.Unlock()
		return
	}
	if next >= 0 {
		d.state[next] = detRunning
		d.mu.Unlock()
		d.resume[next] <- struct{}{}
	} else if park {
		// Nobody is runnable and the caller is about to sleep: every
		// member is at a barrier, idle, or done, and with no runner left
		// nothing can ever wake one. That is a workload bug (a barrier
		// that cannot fill, a park with no waker), not a recoverable
		// state.
		d.mu.Unlock()
		panic("hw: deterministic gang deadlock: no runnable member")
	} else {
		// Caller is finishing with everyone else parked-or-done; if any
		// parked member remains, its waker retired without waking it,
		// which the scheduler layer above rules out.
		d.mu.Unlock()
	}
	if park {
		<-d.resume[id]
	}
}

// enter is each member goroutine's first scheduling step: wait until the
// schedule grants the token. The launcher grants the initial token before
// any member starts (see RunGangDet), so no goroutine may self-grant here —
// a late starter that finds itself the best *ready* member while another
// member already runs must still wait its turn.
func (d *detSched) enter(c *CPU) {
	<-d.resume[c.ID()]
}

// yield is the det-mode Sync: report the clock and hand the token to the
// lowest-clock runnable member (possibly ourselves).
func (d *detSched) yield(c *CPU) {
	now := c.Now()
	id := c.ID()
	d.mu.Lock()
	d.state[id] = detReady
	d.clocks[id] = now
	d.handoffLocked(id, true)
}

// barrier is the det-mode Barrier.Wait: park until all b.n members arrive,
// then release everyone aligned to the latest arrival. The released
// members re-enter the schedule with equal clocks, so the post-barrier
// order is core-ID order — deterministic.
func (d *detSched) barrier(c *CPU, b *Barrier) {
	now := c.Now()
	id := c.ID()
	d.mu.Lock()
	if now > b.maxT {
		b.maxT = now
	}
	b.detWaiters = append(b.detWaiters, id)
	if len(b.detWaiters) == b.n {
		t := b.maxT
		b.maxT = 0
		for _, w := range b.detWaiters {
			d.state[w] = detReady
			d.clocks[w] = t
			d.target[w] = t
		}
		b.detWaiters = b.detWaiters[:0]
	} else {
		d.state[id] = detBarrier
	}
	d.handoffLocked(id, true)
	if t := d.target[id]; t != 0 {
		d.target[id] = 0
		c.advanceTo(t)
	}
}

// parkIdle parks the caller as an idle worker: clock recorded and frozen,
// token handed on, resumed only when a wakeIdle* call marks it ready and
// the schedule picks it again. This is how hw.Sched worker cores with
// nothing runnable leave the schedule without distorting virtual time.
func (d *detSched) parkIdle(c *CPU) {
	id := c.ID()
	d.mu.Lock()
	d.state[id] = detIdle
	d.clocks[id] = c.Now()
	d.handoffLocked(id, true)
}

// wakeIdleCore marks core id ready again if it is idle-parked. Callers
// must hold the token (be the running member), so the marked member is
// picked at a future hand-off, never raced.
func (d *detSched) wakeIdleCore(id int) {
	d.mu.Lock()
	if d.state[id] == detIdle {
		d.state[id] = detReady
	}
	d.mu.Unlock()
}

// wakeIdleOne wakes the idle member with the lowest (clock, ID) — the one
// the deterministic schedule would run first — if any is idle.
func (d *detSched) wakeIdleOne() {
	d.mu.Lock()
	best := -1
	var bc uint64
	for j := 0; j < d.n; j++ {
		if d.state[j] == detIdle && (best == -1 || d.clocks[j] < bc) {
			best, bc = j, d.clocks[j]
		}
	}
	if best >= 0 {
		d.state[best] = detReady
	}
	d.mu.Unlock()
}

// wakeIdleAll marks every idle member ready (fleet termination: idle
// workers must wake to observe that there is nothing left and exit).
func (d *detSched) wakeIdleAll() {
	d.mu.Lock()
	for j := 0; j < d.n; j++ {
		if d.state[j] == detIdle {
			d.state[j] = detReady
		}
	}
	d.mu.Unlock()
}

// finish retires a member whose fn returned and hands the token on.
func (d *detSched) finish(c *CPU) {
	id := c.ID()
	d.mu.Lock()
	d.state[id] = detDone
	d.handoffLocked(id, false)
}

// newDetGang builds a gang wired to a fresh deterministic schedule over
// cores [0, ncores) of m.
func newDetGang(m *Machine, ncores int, quantum uint64) *Gang {
	g := NewGang(quantum)
	g.det = newDetSched(m, ncores)
	return g
}

// runDet launches fn on every member of a det gang and waits. The initial
// token goes to the lowest (clock, ID) member before any member starts,
// so the first runner — and the whole schedule — is deterministic.
func runDet(g *Gang, m *Machine, ncores int, fn func(cpu *CPU, g *Gang)) {
	first := g.det.pickLocked()
	g.det.state[first] = detRunning
	g.det.resume[first] <- struct{}{}
	var wg sync.WaitGroup
	for i := 0; i < ncores; i++ {
		wg.Add(1)
		go func(c *CPU) {
			defer wg.Done()
			g.det.enter(c)
			fn(c, g)
			g.det.finish(c)
		}(m.CPU(i))
	}
	wg.Wait()
}

// RunGangDet runs fn(cpu) on cores [0, ncores) of m like RunGang, but under
// the deterministic sequential schedule: same fn signature, same virtual-
// time semantics for Sync/Barrier, bit-identical output across runs.
// The quantum is accepted for signature parity with RunGang and ignored —
// the schedule's lowest-clock-first policy bounds skew to one inter-Sync
// chunk by construction.
func RunGangDet(m *Machine, ncores int, quantum uint64, fn func(cpu *CPU, g *Gang)) {
	runDet(newDetGang(m, ncores, quantum), m, ncores, fn)
}
