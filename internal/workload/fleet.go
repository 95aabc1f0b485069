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
	MemCeiling    uint64 // pool byte ceiling; 0 derives one from MaxLive
	Threads       int    // threads per child process
	TouchPages    uint64 // template pages each thread COW-touches
	Quanta        int    // post-touch compute quanta per thread
	QuantumTicks  uint64 // virtual cycles per compute quantum
	TemplatePages uint64 // template parent size; 0 derives Threads*TouchPages
	MeanArrival   uint64 // mean virtual inter-arrival gap in cycles
	QueueCap      int    // scheduler run-queue admission cap; 0 derives one
	SwitchCost    uint64 // per-context-switch virtual cost
	Seed          int64  // arrival-PRNG seed
}

// DefaultFleetConfig is the shape the fleet figure sweeps around: enough
// offered load to keep every core busy (so spawns/s measures capacity,
// not the arrival process), two threads per child, a modest COW working
// set per thread.
func DefaultFleetConfig() FleetConfig {
	return FleetConfig{
		Procs:        512,
		MaxLive:      256,
		Threads:      2,
		TouchPages:   16,
		Quanta:       2,
		QuantumTicks: 4000,
		MeanArrival:  20_000,
		SwitchCost:   3000,
		Seed:         1,
	}
}

// FleetResult extends Result with the fleet's own metrics.
type FleetResult struct {
	Result
	Spawns      uint64
	P50, P99    uint64        // spawn-to-first-touch virtual latency, cycles
	LiveHigh    int           // most address spaces simultaneously resident
	LiveEnd     int           // resident at the end (the steady-state fleet)
	Evictions   []int         // LRU teardown sequence (process IDs)
	RunQHigh    int           // scheduler run-queue depth high-water
	Deferred    uint64        // arrival folds delayed by the admission cap
	Reviews     uint64        // refcache objects reviewed during the run
	ReviewQHigh int           // deepest per-core refcache review queue
	procs       []*vm.Process // every spawned process, by ID (the tests' LRU oracle)
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
// process; the child's threads — migratable scheduler procs — COW-touch
// disjoint slices of the template, run a few compute quanta, and finish,
// leaving the process dormant but resident. The pool holds at most
// MaxLive resident spaces under the memory ceiling, tearing down the
// least-recently-run dormant space when a new child needs the room
// (through vm.Exiter where the system provides it — O(divergences) on
// radixvm — else an exit_mmap-style sweep).
//
// The arrival stream is a deterministic-PRNG Poisson process, and the
// whole run executes under the deterministic gang schedule, so every
// output — spawn throughput, latency percentiles, even the LRU eviction
// sequence — is a pure function of (config, virtual time).
func Fleet(env *Env, sys vm.System, cores int, cfg FleetConfig) FleetResult {
	coresN := cores
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
	ceiling := cfg.MemCeiling
	if ceiling == 0 {
		// Default ceiling: MaxLive childs' worth of fully-touched
		// footprints; the residency cap bites first, the ceiling guards
		// against outsized children.
		ceiling = uint64(cfg.MaxLive) * uint64(cfg.Threads) * cfg.TouchPages * 4096
	}
	queueCap := cfg.QueueCap
	if queueCap == 0 {
		// Room for every core to fold an arrival's threads plus slack, so
		// admission control engages under backlog, not steady state.
		queueCap = 4 * cfg.Threads * cores
	}

	// Warm the template: map and write-fault every page on core 0, so every
	// spawn forks one hot, fully settled zygote. Keeping a single master is
	// deliberate — the baselines' O(template) dup_mmap under that one
	// address space's lock is exactly the serial section the fleet figure
	// measures.
	c0 := env.M.CPU(0)
	mustNil(sys.Mmap(c0, fleetBase, tmplPages, vm.MapOpts{Prot: vm.ProtRead | vm.ProtWrite}))
	for v := fleetBase; v < fleetBase+tmplPages; v++ {
		mustNil(sys.Access(c0, v, true))
	}

	env.M.ResetStats()
	start := env.M.MaxClock()
	reviews0 := env.RC.Reviews()

	pool := vm.NewPool(cfg.MaxLive, ceiling)
	teardown := func(c *hw.CPU, p *vm.Process) {
		if ex, ok := p.Sys.(vm.Exiter); ok {
			ex.Exit(c)
		} else {
			mustNil(p.Sys.Munmap(c, fleetBase, tmplPages))
		}
	}

	s := hw.NewSched(queueCap)
	s.SwitchCost = cfg.SwitchCost
	procs := make([]*vm.Process, cfg.Procs)
	var writes uint64

	thread := func(p *vm.Process, t int) func(*hw.Ctx) {
		return func(tc *hw.Ctx) {
			c := tc.CPU()
			// Each child works a rotating slice of the template, so
			// successive children of one replica COW-break different leaf
			// metadata rather than re-copying the same node.
			lo := fleetBase + (uint64(p.ID)*uint64(cfg.Threads)+uint64(t))*cfg.TouchPages%tmplPages
			var touched uint64
			for v := lo; v < lo+cfg.TouchPages; v++ {
				mustNil(p.Sys.Access(c, v, true)) // COW break: copy the frame
				touched++
				if v == lo {
					p.NoteFirstTouch(c.Now())
				}
				if touched%4 == 0 {
					p.NoteRun(t, c.ID(), c.Now(), 4)
					env.RC.Maintain(c)
					tc.Yield()
					c = tc.CPU()
				}
			}
			pool.Charge(c, p, touched*4096)
			for q := 0; q < cfg.Quanta; q++ {
				c.Tick(cfg.QuantumTicks)
				p.NoteRun(t, c.ID(), c.Now(), 0)
				env.RC.Maintain(c)
				tc.Yield()
				c = tc.CPU()
			}
			writes += touched                // on-schedule: serialized by the schedule
			p.NoteRun(t, c.ID(), c.Now(), 0) // the finish is the thread's last run
			pool.ThreadDone(c, p, c.Now())
		}
	}

	// The Poisson arrival stream, offset past the warm phase's clocks.
	rng := rand.New(rand.NewSource(cfg.Seed))
	stamp := start
	for i := 0; i < cfg.Procs; i++ {
		stamp += uint64(rng.ExpFloat64() * float64(cfg.MeanArrival))
		arrived := stamp
		s.Arrive(stamp, func(c *hw.CPU, seq uint64) {
			// The fork handler: clone the template, admit the child to
			// the pool (evicting LRU dormant spaces if full), and hand
			// its threads to the run queue.
			ch, err := sys.Fork(c)
			mustNil(err)
			p := vm.NewProcess(int(seq), ch, arrived, cfg.Threads, teardown)
			procs[seq] = p
			pool.Admit(c, p)
			for t := 0; t < cfg.Threads; t++ {
				// Threads become runnable at the fork's completion, not at
				// their target cores' (possibly lagging) clocks. Pins
				// round-robin by arrival seq, not by folding core, so where
				// a child runs does not depend on which core was lowest
				// when its arrival came due.
				s.SpawnAt((int(seq)*cfg.Threads+t)%coresN, c.Now(), thread(p, t))
			}
		})
	}
	s.Run(env.M, cores, 4000)

	lats := make([]uint64, 0, cfg.Procs)
	for _, p := range procs {
		lats = append(lats, p.FirstTouchLatency())
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var p50, p99 uint64
	if len(lats) > 0 {
		p50 = lats[len(lats)/2]
		p99 = lats[len(lats)*99/100]
	}
	r := FleetResult{
		Result: Result{
			Name:       "fleet",
			System:     sys.Name(),
			Cores:      cores,
			PageWrites: writes,
			Cycles:     env.M.MaxClock() - start,
			Stats:      env.M.TotalStats(),
		},
		Spawns:      uint64(cfg.Procs),
		P50:         p50,
		P99:         p99,
		LiveHigh:    pool.LiveHighWater(),
		LiveEnd:     pool.Live(),
		Evictions:   pool.Evictions(),
		RunQHigh:    s.RunQueueHighWater(),
		Deferred:    s.DeferredArrivals(),
		Reviews:     env.RC.Reviews() - reviews0,
		ReviewQHigh: env.RC.ReviewQueueHighWater(),
		procs:       procs,
	}
	return r
}
