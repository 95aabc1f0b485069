package hw

import (
	"fmt"
	"iter"
	"math/bits"
	"sort"
)

// Sched is the deterministic schedule: one event loop, run by Run on its
// caller's goroutine, over a machine's cores and the procs spawned onto
// them. Exactly one body executes at a time. At every yield point (Ctx.Yield,
// Ctx.Park, Ctx.Wait, an arrival fold, a core going idle) the loop steps the
// ready core with the lowest (virtual clock, core ID), and that core folds one
// due arrival or runs the lowest-seq runnable proc of its own queue: every
// proc is pinned to the core it names at spawn. Cores still overlap in
// virtual time, but the *real* order in which overlapping operations resolve
// (home-node gate folds, line transitions, mailbox enqueues) is a pure
// function of (virtual clock, core ID, arrival seq), so figure outputs are
// byte-stable across runs. This is the schedule that keeps virtual time:
// every figure and every test that asserts a clock runs on it. A RunGang
// replaces the pick with the seeded explorer (gang.go), which also takes
// cores back at their preemption points, to hold the functional code to
// many interleavings; its clocks measure nothing.
//
// Cores are entries in the loop and procs come in two kinds, so nothing here
// or in the simulated machine runs concurrently, and every Sched method must
// be called on-schedule: before Run, from a proc body, or from an arrival
// handler. A proc from Spawn is a coroutine the loop resumes, for a body that
// needs its stack across a yield point: one that yields inside a loop it
// cannot unwind, parks, or runs on the explorer. A proc from SpawnStep is a
// step proc, for a body that yields only between operations: the loop calls
// its step function on its own goroutine, which runs from one yield point to
// the next and returns how it yields. Both kinds go through the same dispatch
// and yield accounting, so a body written either way leaves the same clocks,
// counts and schedule. A step costs a function call where a coroutine's yield
// costs an iter.Pull round trip, about 160 ns of the 210 ns a yield takes at
// 64 cores (BenchmarkSchedStep against BenchmarkSchedYield).
//
// Off the explorer, bodies may hold no lock across a yield point — all
// workloads yield only at top level, between operations — so the running
// body never finds a lock held by a suspended one (CPU.Stall panics if it
// does). There are no off-schedule points: every way a proc can wait,
// including on another proc (Park/Wake), is a yield back to the loop, so the
// entire run is a pure function of virtual time, or of the seed on the
// explorer. And since one body runs at a time, no Wake can fall between a
// body's check of what it waits for and its Park: a parker checks in a loop
// around Park, and a Wake of a proc that is not parked does nothing.
//
// A core with nothing runnable goes idle: its clock freezes and it leaves
// the pick until a proc is enqueued on it. The one exception: while spawn
// arrivals are still pending and the backlog has room, an idle core is a
// halted CPU sleeping until the next event — it advances its clock to the
// next arrival stamp instead, so virtual time always progresses toward the
// next event, and because idle (lowest-clock) cores are stepped first,
// arrival folds land on them before busy cores and spread the fleet across
// the machine.
type Sched struct {
	// queueCap bounds the total ready backlog, every core's queue
	// together. Arrivals are admission-controlled against it: a due arrival
	// is folded only while the backlog has room, mirroring a fork handler
	// that pulls from its accept queue only when the run queue can take the
	// children. Yield requeues are exempt — the cap is admission control,
	// not a running-proc limit.
	queueCap int

	// SwitchCost is the virtual cycles a core charges when it dispatches
	// a different proc than the one it last ran (context-switch cost).
	// Redispatching the same proc is free, so single-proc-per-core
	// workloads never pay it.
	SwitchCost uint64

	cores       []core // [0, ncores); nil until Run starts
	tree        tree   // the ready cores by (clock, ID)
	seq         uint64
	queues      []*Proc   // per core, its ready procs, ascending seq; grown by spawns before Run
	arrivals    []arrival // future spawn requests, ascending (stamp, seq)
	nextArrival int
	remaining   int // procs not yet done
	ready       int // procs currently in a queue
	active      int // cores neither idle nor retired

	carriers []*carrier // every coroutine Run created, for stop
	free     *carrier   // carriers with no proc on them
	stopping bool       // Run is unwinding: suspended bodies are being cancelled
	x        *explorer  // RunGang's seeded pick and preemption; nil: the (clock, ID) pick

	// Diagnostics (read after Run via the accessors).
	readyHigh    int
	dispatches   uint64
	switches     uint64
	deferred     uint64 // arrivals whose fold was deferred by a full queue
	lastDeferred uint64 // last seq counted in deferred; ^0 = none yet
}

// core is one simulated core's entry in the loop.
type core struct {
	cpu     *CPU
	state   int8
	clock   uint64 // the pick key: virtual clock at the last yield point, or the barrier's release time
	last    *Proc  // proc last dispatched here, for switch accounting
	cur     *Proc  // proc occupying the core: running, or waiting at a barrier
	stall   uint64 // explorer: out of the pick while above its progress
	waiting bool   // explorer: the core's last step ended in a stall
}

// Core states.
const (
	coreReady   int8 = iota // runnable: in the pick
	coreBarrier             // its proc waits at a Barrier
	coreIdle                // nothing runnable: clock frozen until an enqueue
	coreDone                // retired: the fleet has finished
)

// Yield kinds a proc hands back to the loop.
const (
	yieldSync int8 = iota
	yieldPark
	yieldBarrier
	yieldDone
	yieldStall // explorer: a contended acquire waits
)

// Step is how a step proc's step function yields: the loop does what a
// coroutine's yield of that kind does. StepYield is Ctx.Yield, StepDone is
// the body returning, and Ctx.StepWait's result is Ctx.Wait.
type Step int8

const (
	StepYield = Step(yieldSync)
	StepDone  = Step(yieldDone)
)

// Proc is one schedulable context: a body that runs on the core it is
// pinned to, yielding the core back cooperatively.
type Proc struct {
	seq       uint64 // arrival order: dispatch tiebreak and determinism anchor
	pin       int    // the core ID the proc runs on
	notBefore uint64 // virtual time its first dispatch may not precede (SpawnAt)
	parked    bool   // in Park, waiting for a Wake
	body      func(*Ctx)
	ctx       Ctx
	next      *Proc    // ready-queue link
	on        *carrier // the coroutine running body, from first dispatch to return; a step proc's own from spawn
	bar       *Barrier // the barrier a yieldBarrier waits at
}

// carrier is a coroutine that runs proc bodies one after another: a proc
// takes a free one at its first dispatch and frees it when its body
// returns. A coroutine costs a dozen allocations and a fleet's procs are
// mostly short-lived, so a run creates as many as it has procs alive at
// once, not one per proc. A step proc's carrier is no coroutine: resume
// calls its step function, stop is nil, and yield panics, and the loop
// steps both kinds through the same resume call.
type carrier struct {
	p      *Proc
	next   *carrier            // free-list link
	resume func() (int8, bool) // run p until its next yield
	stop   func()              // nil on a step proc's carrier
	yield  func(int8) bool     // called on the coroutine: hand a kind to the loop
}

// arrival is a future spawn request: at virtual time stamp, fn runs on
// whichever core's clock crosses the stamp first (the fork-handler shape:
// fn typically forks an address space and Spawns the child's threads).
type arrival struct {
	stamp uint64
	seq   uint64
	fn    func(c *CPU, seq uint64)
}

// Ctx is the execution context a proc body runs under.
type Ctx struct {
	s *Sched
	p *Proc
	c *CPU
}

// CPU returns the core the proc is pinned to: the same core at every yield
// point, so a body may read it once.
func (tc *Ctx) CPU() *CPU { return tc.c }

// Sched returns the scheduler running the proc.
func (tc *Ctx) Sched() *Sched { return tc.s }

// Yield hands the core back to the loop, which requeues the proc, records
// the core's clock, and redispatches by (virtual clock, core ID, seq).
func (tc *Ctx) Yield() { tc.yield(yieldSync) }

// Park blocks the proc until another proc Wakes it, and always yields. A
// Wake that came before the Park is not remembered, so a body Parks in a
// loop that checks what it waits for: one body runs at a time, so nothing
// can change between the check and the Park. The proc's core runs its
// other procs, or goes idle, while it is parked.
func (tc *Ctx) Park() { tc.yield(yieldPark) }

// Wait blocks the proc at b until all of b's members have arrived, then
// resumes it with its core's clock aligned to the latest arrival. The proc
// keeps its core while it waits. The released cores re-enter the pick with
// equal clocks, so the post-barrier order is core-ID order.
func (tc *Ctx) Wait(b *Barrier) {
	tc.p.bar = b
	tc.yield(yieldBarrier)
}

// StepWait is a step function's Wait: returned as its Step, it has the proc
// wait at b.
func (tc *Ctx) StepWait(b *Barrier) Step {
	tc.p.bar = b
	return Step(yieldBarrier)
}

func (tc *Ctx) yield(kind int8) {
	if !tc.p.on.yield(kind) {
		panic("hw: proc cancelled") // unwinds the body; see Sched.stop
	}
}

// NewSched creates a scheduler whose ready backlog admits arrivals only
// below queueCap procs (<= 0: effectively unbounded).
func NewSched(queueCap int) *Sched {
	if queueCap <= 0 {
		queueCap = 1 << 30
	}
	// ^0 is not a valid arrival seq, so a deferred first arrival (seq 0)
	// still counts.
	return &Sched{queueCap: queueCap, lastDeferred: ^uint64(0)}
}

// Spawn adds a proc pinned to core pin, which runs it and no other core: a
// negative pin panics, and so does one past the cores Run is given. Procs
// spawned before Run are ready at virtual time zero; procs spawned mid-run
// (by arrival handlers or by other procs) should use SpawnAt with the
// spawner's virtual present instead. Spawned procs bypass the admission cap
// — the cap gates arrival folds, not running work's children; size the cap
// to include the threads each arrival spawns.
func (s *Sched) Spawn(pin int, body func(*Ctx)) *Proc { return s.SpawnAt(pin, 0, body) }

// SpawnAt is Spawn for mid-run callers: the proc becomes runnable no
// earlier than virtual time notBefore — a forked thread cannot run before
// the fork that created it returned, even on a core whose own clock still
// lags the fork. Its core advances to notBefore at its first dispatch.
func (s *Sched) SpawnAt(pin int, notBefore uint64, body func(*Ctx)) *Proc {
	s.checkPin(pin)
	p := &Proc{seq: s.seq, pin: pin, body: body, notBefore: notBefore}
	p.ctx = Ctx{s: s, p: p}
	s.seq++
	s.remaining++
	s.enqueue(p)
	return p
}

// SpawnStep adds a step proc, pinned as Spawn's procs are: the loop runs it
// by calling step at each dispatch, which runs the body from its last yield
// point to its next and returns how it yields. The body keeps its own
// progress between calls, and calls neither Yield, Park nor Wait (each
// panics naming the proc). Step procs run only on the deterministic
// schedule: the explorer takes a core back mid-step, at a line touch, and
// only a coroutine can be suspended there.
func (s *Sched) SpawnStep(pin int, step func(*Ctx) Step) *Proc { return s.SpawnStepAt(pin, 0, step) }

// SpawnStepAt is SpawnStep for mid-run callers, as SpawnAt is Spawn's.
func (s *Sched) SpawnStepAt(pin int, notBefore uint64, step func(*Ctx) Step) *Proc {
	if s.x != nil {
		panic("hw: a step proc on the explorer, which preempts mid-step: spawn a coroutine")
	}
	p := s.SpawnAt(pin, notBefore, nil)
	p.on = &carrier{
		p:      p,
		resume: func() (int8, bool) { return int8(step(&p.ctx)), true },
		yield: func(kind int8) bool {
			panic(fmt.Sprintf("hw: step proc %d called Ctx.%s: a step function yields by returning its Step", p.seq, yieldNames[kind]))
		},
	}
	return p
}

// yieldNames names the Ctx method behind each yield kind.
var yieldNames = [...]string{yieldSync: "Yield", yieldPark: "Park", yieldBarrier: "Wait"}

// checkPin panics if pin names no core, or Run has started and a proc
// pinned to core pin could never run on its cores.
func (s *Sched) checkPin(pin int) {
	if pin < 0 {
		panic(fmt.Sprintf("hw: proc pinned to core %d: every proc names its core", pin))
	}
	if s.cores != nil && pin >= len(s.cores) {
		panic(fmt.Sprintf("hw: proc pinned to core %d but Run has only %d cores", pin, len(s.cores)))
	}
}

// Arrive registers a spawn request at virtual time stamp. fn runs on the
// first core whose clock reaches the stamp (subject to run-queue
// admission), with the arrival's seq — the fork-handler hook.
func (s *Sched) Arrive(stamp uint64, fn func(c *CPU, seq uint64)) {
	if s.cores != nil {
		panic("hw: Sched.Arrive after Run started")
	}
	s.arrivals = append(s.arrivals, arrival{stamp: stamp, seq: s.seq, fn: fn})
	s.seq++
}

// Wake makes a parked proc runnable again. A proc that is not parked is
// left as it is.
func (s *Sched) Wake(p *Proc) {
	if p.parked {
		s.enqueue(p)
	}
}

// enqueue marks p ready, inserts it seq-ordered into its core's queue, and
// wakes the core if it is idle.
func (s *Sched) enqueue(p *Proc) {
	p.parked = false
	s.ready++
	if s.ready > s.readyHigh {
		s.readyHigh = s.ready
	}
	for len(s.queues) <= p.pin {
		s.queues = append(s.queues, nil)
	}
	insertBySeq(&s.queues[p.pin], p)
	s.wake(p.pin)
}

// wake puts core id, if there is one and it is idle, back in the pick with
// its clock still frozen where it went idle.
func (s *Sched) wake(id int) {
	if id < len(s.cores) && s.cores[id].state == coreIdle {
		s.cores[id].state = coreReady
		s.active++
		s.fix(id)
	}
}

// insertBySeq links p into the seq-ordered queue at *q. Queues are lists
// through Proc.next: a requeued proc usually has the lowest seq waiting, so
// it goes in at the head, and the lists cost no allocation.
func insertBySeq(q **Proc, p *Proc) {
	for *q != nil && (*q).seq < p.seq {
		q = &(*q).next
	}
	p.next, *q = *q, p
}

// pop removes and returns the lowest-seq runnable proc of core id's queue,
// or nil.
func (s *Sched) pop(id int) *Proc {
	if id >= len(s.queues) {
		return nil
	}
	p := s.queues[id]
	if p != nil {
		s.queues[id], p.next = p.next, nil
		s.ready--
	}
	return p
}

// pick returns the ready core with the lowest (clock, ID), or -1: the root
// of the tree, O(1). Ties resolve by core ID, so the choice — and therefore
// the entire schedule — is deterministic.
func (s *Sched) pick() int {
	if t := s.tree; t[1] != out {
		return int(t[1] & (1<<idBits - 1))
	}
	return -1
}

// fix re-keys core id after its state or pick clock changed: a ready core's
// leaf takes its (clock, ID), any other core's leaves the pick.
func (s *Sched) fix(id int) {
	k := &s.cores[id]
	if k.state != coreReady {
		s.tree.set(id, out)
		return
	}
	if k.clock >= out>>idBits {
		panic(fmt.Sprintf("hw: core %d's clock %d overflows the pick's key", id, k.clock))
	}
	s.tree.set(id, k.clock<<idBits|uint64(id))
}

// tree is a tournament over the cores: leaf len/2+i holds core i's key,
// clock<<idBits | i, while core i is ready, else out, and each inner node
// the lower of its two children's. So node 1 is the pick, and equal clocks
// go to the lower ID.
type tree []uint64

// idBits is a key's room for a core ID: MaxCores fits, or the array below
// has a negative length. The clock gets the other 57 bits.
const idBits = 7

var _ [1<<idBits - MaxCores]struct{}

// out is the key of a core not in the tree's state, or of a leaf past the
// last core: it loses to every core.
const out = ^uint64(0)

// set stores core id's key and replays its matches up to the root, O(log
// ncores).
func (t tree) set(id int, key uint64) {
	i := len(t)/2 + id
	for t[i] = key; i > 1; i >>= 1 {
		t[i>>1] = min(t[i&^1], t[i|1])
	}
}

// Run executes the scheduled machine on cores [0, ncores) of m and returns
// when every proc has finished and every arrival has been folded. A Sched
// runs once; build a fresh one per run. quantum is ignored — lowest-clock-
// first bounds skew to one inter-yield chunk by construction — and kept
// only because callers, bench/ among them, pass it. A body's panic
// propagates to Run's caller.
func (s *Sched) Run(m *Machine, ncores int, quantum uint64) {
	if s.cores != nil {
		panic("hw: Sched.Run called twice")
	}
	s.start(m, ncores)
	defer s.stop()
	for id := s.grant(); id >= 0; id = s.grant() {
		s.step(&s.cores[id])
	}
	if s.remaining > 0 {
		// Every core is at a barrier or idle, and with none running nothing
		// can ever release one. That is a workload bug (a barrier that
		// cannot fill), not a recoverable state.
		panic("hw: deterministic schedule deadlock: no runnable core")
	}
}

// start puts cores [0, ncores) of m in the pick, ready at their clocks.
func (s *Sched) start(m *Machine, ncores int) {
	s.cores = make([]core, ncores)
	for pin := ncores; pin < len(s.queues); pin++ {
		if s.queues[pin] != nil {
			s.checkPin(pin)
		}
	}
	sort.SliceStable(s.arrivals, func(i, j int) bool {
		return s.arrivals[i].stamp < s.arrivals[j].stamp
	})
	s.tree = make(tree, 2<<bits.Len(uint(ncores-1))) // leaves: ncores rounded up to a power of two
	for i := range s.tree {
		s.tree[i] = out
	}
	for i := range s.cores {
		s.cores[i] = core{cpu: m.CPU(i), clock: m.CPU(i).Now()}
		s.fix(i)
	}
	s.active = ncores
	if s.x != nil {
		for i := range s.cores {
			s.cores[i].cpu.x = s.x
		}
	}
}

// grant returns the ready core to step next, or -1 when none is: the pick's
// root, or the explorer's draw.
func (s *Sched) grant() int {
	if s.x != nil {
		return s.x.pick()
	}
	return s.pick()
}

// stop cancels every coroutine Run created, so none outlives it. A carrier
// between procs returns from its loop; one suspended inside a body — Run is
// unwinding from a panic — has that body's pending yield panic in turn, which
// the carrier swallows.
func (s *Sched) stop() {
	s.stopping = true
	for i := range s.cores {
		s.cores[i].cpu.x = nil
	}
	for _, on := range s.carriers {
		on.stop()
	}
}

// step runs core k from its pick to its next yield point: dispatch a proc
// (or continue the one a barrier just released), lend it the CPU until it
// yields, account the yield, and record the clock the next pick sees.
func (s *Sched) step(k *core) {
	c := k.cpu
	defer s.fix(c.ID())
	p := k.cur
	if p != nil {
		c.advanceTo(CauseIdle, k.clock) // a barrier released p: align to the latest arrival
	} else if p = s.next(k); p == nil {
		return
	} else {
		if p.ctx.c == nil {
			// The first dispatch: after it the core's clock, which never
			// falls, is past notBefore.
			p.ctx.c = c
			if p.notBefore > c.Now() {
				c.advanceTo(CauseIdle, p.notBefore)
			}
		}
		s.dispatches++
		if k.last != nil && p != k.last {
			s.switches++
			if s.SwitchCost > 0 {
				c.TickAs(CauseSwitch, s.SwitchCost)
			}
		}
		if p.on == nil {
			p.on = s.carrier()
			p.on.p = p
		}
		k.cur, k.last = p, p
	}
	var passed uint64
	if s.x != nil {
		s.x.cur, passed = c.ID(), s.x.passed
	}
	kind, _ := p.on.resume()
	if s.x != nil {
		// A step that only found its resource still held — it passed no
		// preemption point — is no progress; one that did may have released
		// something before it stalled again.
		s.x.cur = -1
		if kind != yieldStall || s.x.passed != passed {
			s.x.progress++
		}
		if k.waiting = kind == yieldStall; k.waiting {
			k.stall = s.x.progress + 1
		}
	}
	if kind == yieldBarrier {
		s.arrive(k, p.bar)
		return
	}
	k.cur = nil
	switch kind {
	case yieldDone:
		if p.on.stop != nil {
			p.on.next, s.free = s.free, p.on
		}
		p.on = nil
		s.remaining--
	case yieldPark:
		p.parked = true
	default:
		s.enqueue(p)
	}
	k.clock = c.Now()
}

// carrier returns a coroutine with no proc on it: a free one, or a new one.
func (s *Sched) carrier() *carrier {
	if on := s.free; on != nil {
		s.free = on.next
		return on
	}
	on := &carrier{}
	s.carriers = append(s.carriers, on)
	on.resume, on.stop = iter.Pull(func(yield func(int8) bool) {
		on.yield = yield
		defer func() {
			if s.stopping {
				_ = recover() // what a cancelled body unwinds with
			}
		}()
		for {
			on.p.body(&on.p.ctx)
			if !yield(yieldDone) {
				return
			}
		}
	})
	return on
}

// arrive parks core k at b. The last of b's members to arrive releases
// them all, itself included, ready at the latest arrival time.
func (s *Sched) arrive(k *core, b *Barrier) {
	b.maxT = max(b.maxT, k.cpu.Now())
	k.state = coreBarrier
	b.waiters = append(b.waiters, k.cpu.ID())
	if len(b.waiters) < b.n {
		return
	}
	for _, id := range b.waiters {
		s.cores[id].state, s.cores[id].clock = coreReady, b.maxT
		s.fix(id)
	}
	b.maxT = 0
	b.waiters = b.waiters[:0]
}

// next returns the proc core k runs now, sleeping to the next arrival as
// needed. It returns nil after folding a due arrival — the core stays in the
// pick with its new clock — or after taking the core out of the pick: idle if
// nothing is runnable here, retired if the whole fleet is done.
func (s *Sched) next(k *core) *Proc {
	c := k.cpu
	for {
		now := c.Now()
		// Fold due arrivals first: a spawn request whose stamp has passed
		// enters through whichever core crosses it, queue permitting.
		pending := s.nextArrival < len(s.arrivals)
		if pending {
			a := s.arrivals[s.nextArrival]
			if a.stamp <= now {
				if s.ready < s.queueCap {
					// A fold is a yield point: the handler moved this core's clock,
					// so the next due arrival goes to the ready core lowest now.
					s.nextArrival++
					a.fn(c, a.seq)
					k.clock = c.Now()
					return nil
				}
				if s.lastDeferred != a.seq {
					s.lastDeferred = a.seq
					s.deferred++
				}
			}
		}
		if p := s.pop(c.ID()); p != nil {
			return p
		}
		if s.remaining == 0 && !pending {
			// Global termination: idle cores wake to retire too.
			for id := range s.cores {
				s.wake(id)
			}
			k.state = coreDone
			return nil
		}
		if pending && s.ready < s.queueCap {
			// Nothing runnable here, a future arrival pending, and the
			// backlog has room: a halted CPU sleeping until the next event.
			// Its clock jumps to the arrival stamp and the fold happens here.
			c.advanceTo(CauseIdle, s.arrivals[s.nextArrival].stamp)
			continue
		}
		if !pending && s.active == 1 {
			panic("hw: scheduler deadlock: procs parked with no runnable waker")
		}
		// Nothing runnable here and other cores are still active: go idle,
		// clock frozen, until an enqueue or termination wakes this core.
		s.active--
		k.state = coreIdle
		k.clock = c.Now()
		return nil
	}
}

// RunGangDet runs fn(cpu) on cores [0, ncores) of m under the deterministic
// schedule: clocks kept in step, bit-identical output across runs. It is the
// degenerate fleet, one proc pinned to each core, and in that shape the
// scheduler adds no virtual time at all: a core redispatching the proc it
// last ran charges nothing, and AdvanceTo to the proc's own last clock is a
// no-op. g.Sync is the calling core's proc's Yield. quantum is ignored, as in
// Sched.Run.
func RunGangDet(m *Machine, ncores int, quantum uint64, fn func(cpu *CPU, g *Gang)) {
	runGang(NewSched(0), m, ncores, fn)
}

// running returns the context of the proc running on cpu.
func (s *Sched) running(cpu *CPU) *Ctx { return &s.cores[cpu.ID()].cur.ctx }

// RunQueueHighWater reports the deepest the ready backlog got, every
// core's queue together.
func (s *Sched) RunQueueHighWater() int { return s.readyHigh }

// Dispatches reports the total number of proc dispatches.
func (s *Sched) Dispatches() uint64 { return s.dispatches }

// Switches reports dispatches that changed procs on a core.
func (s *Sched) Switches() uint64 { return s.switches }

// DeferredArrivals reports arrivals whose fold the admission cap delayed.
func (s *Sched) DeferredArrivals() uint64 { return s.deferred }
