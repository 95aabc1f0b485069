package workload

import (
	"math/rand"
	"sort"

	"radixvm/internal/hw"
	"radixvm/internal/vm"
)

// FleetConfig parameterizes the process-fleet workload.
type FleetConfig struct {
	Procs         int    // total spawn requests (arrivals)
	MaxLive       int    // pool residency cap (concurrently live address spaces)
	Threads       int    // threads per child process
	TouchPages    uint64 // template pages each thread COW-touches
	Quanta        int    // post-touch compute quanta per thread
	TemplatePages uint64 // template parent size; 0 derives Threads*TouchPages
	Seed          int64  // arrival-PRNG seed
}

// The fleet-shaped workloads' fixed costs: a context switch, fleet and
// filemap alike, and the fleet's arrival gap and compute quantum.
const (
	switchCost        = 3000   // virtual cycles per context switch
	fleetMeanArrival  = 20_000 // mean virtual inter-arrival gap, cycles
	fleetQuantumTicks = 4000   // virtual cycles per compute quantum
)

// DefaultFleetConfig is the shape the fleet figure sweeps around: enough
// offered load to keep every core busy (so spawns/s measures capacity,
// not the arrival process), two threads per child, a modest COW working
// set per thread.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{
		Procs:      512,
		MaxLive:    256,
		Threads:    2,
		TouchPages: 16,
		Quanta:     2,
		Seed:       1,
	}
}

// FleetResult extends Result with the fleet's own metrics.
type FleetResult struct {
	Result
	Spawns      uint64
	P50, P99    uint64     // spawn-to-first-touch virtual latency, cycles
	LiveHigh    int        // most address spaces simultaneously resident
	LiveEnd     int        // resident at the end (the steady-state fleet)
	Evictions   []int      // LRU teardown sequence (process IDs)
	RunQHigh    int        // scheduler run-queue depth high-water
	Deferred    uint64     // arrival folds delayed by the admission cap
	Reviews     uint64     // refcache objects reviewed during the run
	ReviewQHigh int        // deepest per-core refcache review queue
	procs       []*process // every spawned process, by ID (the tests' LRU oracle)
}

// SpawnsPerSec converts the spawn count into spawns/sec at the modeled
// 2.4 GHz clock.
func (r FleetResult) SpawnsPerSec() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Spawns) * 2.4e9 / float64(r.Cycles)
}

// fleetBase places the template parent far above the per-core spread()
// arenas and Global's shared region.
const fleetBase = uint64(1) << 33

// Fleet runs the process-fleet workload: a machine-wide scheduler,
// Poisson spawn arrivals against one hot warmed template parent, and a
// bounded pool of live child address spaces.
//
// Each arrival forks the template into a fresh multithreaded child
// process; the child's threads — scheduler procs — COW-touch disjoint
// slices of the template, run a few compute quanta, and finish, leaving
// the process dormant but resident. The pool holds at most MaxLive
// resident spaces under the memory ceiling, tearing down the
// least-recently-run dormant space when a new child needs the room
// (through vm.Exiter where the system provides it — O(divergences) on
// radixvm — else an exit_mmap-style sweep).
//
// The arrival stream is a deterministic-PRNG Poisson process, and the
// whole run executes under the deterministic gang schedule, so every
// output — spawn throughput, latency percentiles, even the LRU eviction
// sequence — is a pure function of (config, virtual time).
func Fleet(env *Env, sys vm.System, cores int, cfg FleetConfig) FleetResult {
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	tmplPages := cfg.TemplatePages
	if tmplPages == 0 {
		// Default: a zygote sized like a real runtime image (32 MB at the
		// default shape), so the baselines' O(template) dup_mmap pass under
		// the master's lock is the serial section it would be on real
		// hardware, while radixvm's generation fork stays O(1) in it.
		tmplPages = 256 * uint64(cfg.Threads) * cfg.TouchPages
	}
	if need := uint64(cfg.Threads) * cfg.TouchPages; tmplPages < need {
		tmplPages = need
	}
	// Keep the rotating slices aligned.
	tmplPages -= tmplPages % cfg.TouchPages

	// Warm the template: map and write-fault every page on core 0, so every
	// spawn forks one hot, fully settled zygote. Keeping a single master is
	// deliberate — the baselines' O(template) dup_mmap under that one
	// address space's lock is exactly the serial section the fleet figure
	// measures.
	Populate(sys, env.M.CPU(0), fleetBase, tmplPages, tmplPages)

	run := runFleet(env, sys, cores, fleetSpec{
		procs: cfg.Procs, maxLive: cfg.MaxLive, threads: cfg.Threads, quanta: cfg.Quanta,
		quantumTicks: fleetQuantumTicks, meanArrival: fleetMeanArrival, seed: cfg.Seed,
		base: fleetBase, pages: tmplPages, touchPages: cfg.TouchPages,
		touch: func(c *hw.CPU, p *process, t int, i uint64) {
			// Each child works a rotating slice of the template, so
			// successive children of one replica COW-break different leaf
			// metadata rather than re-copying the same node.
			lo := fleetBase + (uint64(p.id)*uint64(cfg.Threads)+uint64(t))*cfg.TouchPages%tmplPages
			Check(p.sys, c, "access", lo+i, p.sys.Access(c, lo+i, true)) // COW break: copy the frame
		},
	})

	lats := make([]uint64, 0, cfg.Procs)
	for _, p := range run.children {
		lats = append(lats, p.firstTouchLatency())
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var p50, p99 uint64
	if len(lats) > 0 {
		p50 = lats[len(lats)/2]
		p99 = lats[len(lats)*99/100]
	}
	return FleetResult{
		Result:      result(env, "fleet", sys, cores, run.start, run.touched),
		Spawns:      uint64(cfg.Procs),
		P50:         p50,
		P99:         p99,
		LiveHigh:    run.pool.liveHigh,
		LiveEnd:     len(run.pool.live),
		Evictions:   run.pool.evictions,
		RunQHigh:    run.sched.RunQueueHighWater(),
		Deferred:    run.sched.DeferredArrivals(),
		Reviews:     env.RC.Reviews() - run.reviews0,
		ReviewQHigh: env.RC.ReviewQueueHighWater(),
		procs:       run.children,
	}
}

// fleetSpec is a fleet-shaped workload: the arrival, pool and thread shape
// its config gives, and what it brings of its own — its template mapping,
// its per-page touch, and optionally a ticker.
type fleetSpec struct {
	procs, maxLive, threads, quanta int
	quantumTicks, meanArrival       uint64
	seed                            int64

	base, pages uint64                                       // the template mapping, which a teardown without vm.Exiter unmaps
	touchPages  uint64                                       // pages each thread touches
	touch       func(c *hw.CPU, p *process, t int, i uint64) // thread t's i-th page
	ticker      func(tc *hw.Ctx)                             // if set, a proc pinned to core 0 from the start
}

// fleetRun is what one run of the skeleton leaves to report from.
type fleetRun struct {
	start, reviews0, touched uint64
	sched                    *hw.Sched
	pool                     *pool
	children                 []*process // by arrival index, which is also the process ID
}

// runFleet is the skeleton Fleet and FileServe share, run against a template
// sys already maps. Poisson arrivals fork the template into multithreaded
// children, which the pool admits (evicting LRU dormant ones); each thread
// touches its pages, yielding every 4, charges them to the pool, runs its
// compute quanta and finishes, the last one leaving its child dormant but
// resident.
//
// The pool's byte ceiling is maxLive children's fully-touched footprints, so
// the residency cap bites first and the ceiling guards against outsized
// children. The run queue admits arrivals while it has room for every core
// to fold an arrival's threads plus slack, so admission control engages
// under backlog, not steady state.
func runFleet(env *Env, sys vm.System, cores int, f fleetSpec) *fleetRun {
	env.M.ResetStats()
	r := &fleetRun{start: env.M.MaxClock(), reviews0: env.RC.Reviews()}
	r.children = make([]*process, f.procs)
	ceiling := uint64(f.maxLive) * uint64(f.threads) * f.touchPages * 4096
	r.pool = newPool(f.maxLive, ceiling, func(c *hw.CPU, p *process) {
		if ex, ok := p.sys.(vm.Exiter); ok {
			ex.Exit(c)
		} else {
			Check(p.sys, c, "munmap", f.base, p.sys.Munmap(c, f.base, f.pages))
		}
	})
	s := hw.NewSched(4 * f.threads * cores)
	s.SwitchCost = switchCost
	r.sched = s
	if f.ticker != nil {
		s.SpawnAt(0, r.start, f.ticker)
	}

	thread := func(p *process, t int) func(*hw.Ctx) {
		return func(tc *hw.Ctx) {
			c := tc.CPU()
			for i := uint64(0); i < f.touchPages; i++ {
				f.touch(c, p, t, i)
				if i == 0 {
					p.noteFirstTouch(c.Now())
				}
				if (i+1)%4 == 0 {
					p.noteRun(c.Now())
					env.RC.Maintain(c)
					tc.Yield()
				}
			}
			r.pool.charge(c, p, f.touchPages*4096)
			for q := 0; q < f.quanta; q++ {
				c.TickAs(hw.CauseThink, f.quantumTicks)
				p.noteRun(c.Now())
				env.RC.Maintain(c)
				tc.Yield()
			}
			r.touched += f.touchPages // on-schedule: serialized by the schedule
			r.pool.threadDone(c, p, c.Now())
		}
	}

	// The Poisson arrival stream, offset past the warm phase's clocks. The
	// process ID is the arrival's index, not its scheduler seq: a ticker
	// spawned first holds seq 0.
	rng := rand.New(rand.NewSource(f.seed))
	stamp := r.start
	for id := range r.children {
		stamp += uint64(rng.ExpFloat64() * float64(f.meanArrival))
		arrived := stamp
		s.Arrive(stamp, func(c *hw.CPU, _ uint64) {
			// The fork handler: clone the template, admit the child to the
			// pool, and hand its threads to the run queue.
			p := &process{id: id, sys: fork(sys, c), arrived: arrived, threadsLeft: f.threads}
			r.children[id] = p
			r.pool.admit(c, p)
			for t := 0; t < f.threads; t++ {
				// Threads become runnable at the fork's completion, not at
				// their target cores' (possibly lagging) clocks. Pins go
				// round-robin by process ID, not by folding core, so where a
				// child runs does not depend on which core was lowest when
				// its arrival came due.
				s.SpawnAt((id*f.threads+t)%cores, c.Now(), thread(p, t))
			}
		})
	}
	s.Run(env.M, cores, 4000)
	return r
}
