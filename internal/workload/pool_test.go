package workload

import (
	"slices"
	"testing"

	"radixvm/internal/hw"
)

// testPool is a pool over one core whose teardown records what it evicted.
func testPool(maxLive int, ceiling uint64) (*pool, *hw.CPU, *[]int) {
	c := hw.NewMachine(hw.TestConfig(1)).CPU(0)
	torn := new([]int)
	return newPool(maxLive, ceiling, func(_ *hw.CPU, p *process) { *torn = append(*torn, p.id) }), c, torn
}

func TestProcessFirstTouchKeepsEarliest(t *testing.T) {
	p := &process{id: 7, arrived: 100}
	if got := p.firstTouchLatency(); got != 0 {
		t.Fatalf("first-touch latency before any touch = %d, want 0", got)
	}
	p.noteFirstTouch(180)
	p.noteFirstTouch(300) // a later touch must not move the first
	if got := p.firstTouchLatency(); got != 80 {
		t.Fatalf("first-touch latency = %d, want 80", got)
	}
}

func TestPoolEvictsLRUDormantOnly(t *testing.T) {
	pl, c, torn := testPool(2, 0)
	mk := func(id int) *process { return &process{id: id, threadsLeft: 1} }

	p0, p1, p2 := mk(0), mk(1), mk(2)
	pl.admit(c, p0)
	pl.admit(c, p1)
	// Neither has finished: nothing is evictable, so admitting a third
	// overshoots rather than tearing down live work.
	pl.admit(c, p2)
	if len(pl.live) != 3 || len(*torn) != 0 {
		t.Fatalf("live=%d torn=%v, want overshoot with no evictions", len(pl.live), *torn)
	}

	// p1 turns dormant first (earlier lastRun), then p0: pressure reclaims
	// p1 — least recently run — and only p1.
	p1.noteRun(500)
	pl.threadDone(c, p1, 500)
	if len(pl.live) != 2 || !slices.Equal(*torn, []int{1}) {
		t.Fatalf("live=%d torn=%v, want p1 evicted", len(pl.live), *torn)
	}
	p0.noteRun(900)
	pl.threadDone(c, p0, 900)
	if len(pl.live) != 2 || len(*torn) != 1 {
		t.Fatalf("within bounds but evicted: live=%d torn=%v", len(pl.live), *torn)
	}
	if pl.liveHigh != 3 {
		t.Fatalf("high-water = %d, want 3", pl.liveHigh)
	}
	if !p0.dormant || p2.dormant || !slices.Equal(pl.live, []*process{p0, p2}) {
		t.Fatalf("dormant p0=%v p2=%v, resident %d, want p0 dormant and p2 running, both resident", p0.dormant, p2.dormant, len(pl.live))
	}
}

func TestPoolCeilingEviction(t *testing.T) {
	pl, c, torn := testPool(0, 10*4096) // byte ceiling only
	for id := 0; id < 4; id++ {
		p := &process{id: id, threadsLeft: 1}
		pl.admit(c, p)
		pl.charge(c, p, 4*4096)
		p.noteRun(uint64(100 * (id + 1)))
		pl.threadDone(c, p, uint64(100*(id+1)))
	}
	// 4*4 pages charged against a 10-page ceiling: the two oldest dormant
	// processes must have been reclaimed, in LRU order.
	if !slices.Equal(*torn, []int{0, 1}) {
		t.Fatalf("torn=%v, want [0 1]", *torn)
	}
	if pl.bytes != 8*4096 {
		t.Fatalf("bytes=%d, want %d", pl.bytes, 8*4096)
	}
	if len(pl.live) != 2 {
		t.Fatalf("live=%d, want 2", len(pl.live))
	}
}

// TestPoolUnderScheduler drives the pool from where the fleet calls it: fork
// handlers folded by hw.Sched's loop and thread bodies resumed as coroutines
// on four cores. Its books must balance — every process resident or evicted,
// once, only when dormant, and the bytes charged the residents' footprints.
// Under -race this is the evidence that the pool needs no lock: the
// schedule's hand-offs order every call.
func TestPoolUnderScheduler(t *testing.T) {
	const procs, maxLive = 64, 16
	env, sys := fleetSysCfg("radixvm", hw.TestConfig(4))
	run := runFleet(env, sys, 4, fleetSpec{
		procs: procs, maxLive: maxLive, threads: 2, quanta: 2, quantumTicks: 1000,
		meanArrival: 2000, seed: 1, touchPages: 8,
		touch: func(c *hw.CPU, _ *process, _ int, _ uint64) { c.Tick(100) },
	})
	pl := run.pool
	evicted := map[int]bool{}
	for _, id := range pl.evictions {
		if evicted[id] || !run.children[id].dormant {
			t.Fatalf("process %d evicted twice or while running", id)
		}
		evicted[id] = true
	}
	var bytes uint64
	for _, p := range pl.live {
		if evicted[p.id] {
			t.Fatalf("process %d is resident and evicted", p.id)
		}
		bytes += p.footprint
	}
	if len(pl.live) != maxLive || len(pl.evictions) != procs-maxLive {
		t.Fatalf("%d resident, %d evicted, want %d and %d", len(pl.live), len(pl.evictions), maxLive, procs-maxLive)
	}
	if bytes != pl.bytes || run.touched != procs*2*8 {
		t.Fatalf("pool charges %d bytes, its residents %d; threads touched %d pages, want %d", pl.bytes, bytes, run.touched, procs*2*8)
	}
}

func TestPoolEvictionTiebreakByID(t *testing.T) {
	pl, c, torn := testPool(3, 0)
	for _, id := range []int{2, 0, 1} {
		p := &process{id: id, threadsLeft: 1}
		pl.admit(c, p)
		p.noteRun(400) // identical lastRun for all
		pl.threadDone(c, p, 400)
	}
	pl.admit(c, &process{id: 9, threadsLeft: 1})
	pl.admit(c, &process{id: 10, threadsLeft: 1})
	if !slices.Equal(*torn, []int{0, 1}) {
		t.Fatalf("torn=%v, want lowest IDs first on equal lastRun", *torn)
	}
	if !slices.Equal(pl.evictions, []int{0, 1}) {
		t.Fatalf("eviction sequence=%v", pl.evictions)
	}
}
