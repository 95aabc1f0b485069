package vm

import (
	"sync"

	"radixvm/internal/hw"
)

// ProcState is a fleet process's lifecycle state.
type ProcState int8

const (
	// ProcEmbryo: address space forked, no thread has run yet.
	ProcEmbryo ProcState = iota
	// ProcActive: at least one thread is running or runnable.
	ProcActive
	// ProcDormant: all threads finished; the address space stays resident
	// — this is the state the pool's LRU eviction may reclaim.
	ProcDormant
	// ProcExited: torn down; the address space is gone.
	ProcExited
)

func (s ProcState) String() string {
	switch s {
	case ProcEmbryo:
		return "embryo"
	case ProcActive:
		return "active"
	case ProcDormant:
		return "dormant"
	default:
		return "exited"
	}
}

// ThreadState is one thread's per-CPU execution state: where it last ran,
// at what virtual time, and how many pages it has touched. The scheduler
// layer (hw.Sched) owns when threads run; Process records what they did.
type ThreadState struct {
	LastCore  int
	LastClock uint64
	Touches   uint64
}

// Process bundles an address space with per-thread CPU state and a
// lifecycle: forked as an embryo, active while its (possibly many)
// threads run, dormant once they finish, and exited when the pool's
// memory ceiling forces its teardown. Teardown goes through vm.Exiter
// when the system provides it — O(divergences) for a forked radixvm
// child — and otherwise through a caller-supplied exit_mmap-style sweep.
type Process struct {
	ID      int    // arrival sequence; also the LRU tiebreak
	Sys     System // the process's address space
	Arrived uint64 // virtual time of the spawn request

	mu          sync.Mutex
	state       ProcState
	threads     []ThreadState
	threadsLeft int
	firstTouch  uint64 // virtual time of the first page touch, 0 until set
	lastRun     uint64 // latest virtual time any thread ran: the LRU key
	footprint   uint64 // bytes charged against the pool ceiling
	teardown    func(c *hw.CPU, p *Process)
}

// NewProcess creates an embryo process with nthreads threads. teardown
// releases the address space when the pool evicts the process; it runs on
// the evicting core's CPU.
func NewProcess(id int, sys System, arrived uint64, nthreads int, teardown func(c *hw.CPU, p *Process)) *Process {
	return &Process{
		ID:          id,
		Sys:         sys,
		Arrived:     arrived,
		state:       ProcEmbryo,
		threads:     make([]ThreadState, nthreads),
		threadsLeft: nthreads,
		teardown:    teardown,
	}
}

// State returns the process's lifecycle state.
func (p *Process) State() ProcState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state
}

// Thread returns thread t's recorded CPU state.
func (p *Process) Thread(t int) ThreadState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.threads[t]
}

// NoteRun records that thread t ran on core at virtual time now, having
// touched touches pages since the last note, and marks the process
// active. It also maintains the LRU clock.
func (p *Process) NoteRun(t, core int, now uint64, touches uint64) {
	p.mu.Lock()
	if p.state == ProcEmbryo {
		p.state = ProcActive
	}
	ts := &p.threads[t]
	ts.LastCore = core
	ts.LastClock = now
	ts.Touches += touches
	if now > p.lastRun {
		p.lastRun = now
	}
	p.mu.Unlock()
}

// NoteFirstTouch records the virtual time of the process's first page
// touch (spawn-to-first-touch latency endpoint); later calls keep the
// earliest value.
func (p *Process) NoteFirstTouch(now uint64) {
	p.mu.Lock()
	if p.firstTouch == 0 || now < p.firstTouch {
		p.firstTouch = now
	}
	p.mu.Unlock()
}

// FirstTouchLatency returns the spawn-to-first-touch virtual latency, or
// 0 if no thread touched a page.
func (p *Process) FirstTouchLatency() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.firstTouch == 0 {
		return 0
	}
	return p.firstTouch - p.Arrived
}

// Footprint returns the bytes currently charged to the process.
func (p *Process) Footprint() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.footprint
}

// threadDone marks one thread finished; returns true when it was the last.
func (p *Process) threadDone() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.threadsLeft--
	return p.threadsLeft == 0
}

// Pool is the fleet's bounded membership: at most maxLive resident
// processes charging at most ceiling bytes. Admission over either bound
// evicts the least-recently-run dormant process (ties by lowest ID) and
// tears its address space down; running processes are never evicted, so
// the pool may transiently overshoot while everything resident is still
// active. The eviction sequence is recorded — under the deterministic
// schedule it is a pure function of virtual time and checked as such by
// the determinism suite.
type Pool struct {
	mu        sync.Mutex
	maxLive   int
	ceiling   uint64 // bytes; 0 = no byte ceiling
	live      []*Process
	bytes     uint64
	liveHigh  int
	evictions []int
}

// NewPool creates a pool admitting at most maxLive resident processes
// (<= 0: unbounded) charging at most ceiling bytes (0: unbounded).
func NewPool(maxLive int, ceiling uint64) *Pool {
	if maxLive <= 0 {
		maxLive = 1 << 30
	}
	return &Pool{maxLive: maxLive, ceiling: ceiling}
}

// Admit adds p to the resident set, evicting LRU dormant processes as
// needed to respect the bounds. The teardowns run on c.
func (pl *Pool) Admit(c *hw.CPU, p *Process) {
	pl.mu.Lock()
	pl.live = append(pl.live, p)
	if len(pl.live) > pl.liveHigh {
		pl.liveHigh = len(pl.live)
	}
	victims := pl.evictLocked()
	pl.mu.Unlock()
	runTeardowns(c, victims)
}

// Charge bills bytes of memory to p (COW breaks copying frames, page
// tables growing) and evicts if the ceiling is now exceeded.
func (pl *Pool) Charge(c *hw.CPU, p *Process, bytes uint64) {
	pl.mu.Lock()
	p.mu.Lock()
	p.footprint += bytes
	p.mu.Unlock()
	pl.bytes += bytes
	victims := pl.evictLocked()
	pl.mu.Unlock()
	runTeardowns(c, victims)
}

// ThreadDone marks one of p's threads finished at virtual time now. When
// the last thread finishes the process turns dormant — still resident,
// now evictable — and pending pressure may reclaim it immediately.
func (pl *Pool) ThreadDone(c *hw.CPU, p *Process, now uint64) {
	if !p.threadDone() {
		return
	}
	pl.mu.Lock()
	p.mu.Lock()
	p.state = ProcDormant
	if now > p.lastRun {
		p.lastRun = now
	}
	p.mu.Unlock()
	victims := pl.evictLocked()
	pl.mu.Unlock()
	runTeardowns(c, victims)
}

// evictLocked reclaims LRU dormant processes while the pool exceeds
// either bound, recording the eviction sequence and returning the victims
// in that order. Callers hold pl.mu and must pass the victims to
// runTeardowns after releasing it: a teardown may re-enter the pool
// (Charge, ThreadDone, Live) and runs long simulated exit work that must
// not serialize every other pool operation behind the mutex.
func (pl *Pool) evictLocked() []*Process {
	var victims []*Process
	for len(pl.live) > pl.maxLive || (pl.ceiling > 0 && pl.bytes > pl.ceiling) {
		vi := -1
		var vRun uint64
		var vID int
		for i, q := range pl.live {
			q.mu.Lock()
			st, run, id := q.state, q.lastRun, q.ID
			q.mu.Unlock()
			if st != ProcDormant {
				continue
			}
			if vi == -1 || run < vRun || (run == vRun && id < vID) {
				vi, vRun, vID = i, run, id
			}
		}
		if vi == -1 {
			break // everything resident is still running: overshoot
		}
		v := pl.live[vi]
		pl.live = append(pl.live[:vi], pl.live[vi+1:]...)
		v.mu.Lock()
		v.state = ProcExited
		fp := v.footprint
		v.mu.Unlock()
		pl.bytes -= fp
		pl.evictions = append(pl.evictions, v.ID)
		victims = append(victims, v)
	}
	return victims
}

// runTeardowns runs the victims' teardown callbacks on c in eviction
// order. Callers must not hold pl.mu. teardown is set once at NewProcess
// and never mutated, so reading it without p.mu is safe.
func runTeardowns(c *hw.CPU, victims []*Process) {
	for _, v := range victims {
		if v.teardown != nil {
			v.teardown(c, v)
		}
	}
}

// Live returns the current resident count.
func (pl *Pool) Live() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return len(pl.live)
}

// LiveHighWater returns the most processes ever simultaneously resident.
func (pl *Pool) LiveHighWater() int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.liveHigh
}

// Bytes returns the bytes currently charged against the ceiling.
func (pl *Pool) Bytes() uint64 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.bytes
}

// Evictions returns the eviction sequence (process IDs, oldest first).
func (pl *Pool) Evictions() []int {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make([]int, len(pl.evictions))
	copy(out, pl.evictions)
	return out
}
