package hw

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestLineReadSharedHitsLockFree checks the directory's shared state: once
// every core has pulled a line into it, further reads are local hits that
// move no cache lines.
func TestLineReadSharedHitsLockFree(t *testing.T) {
	m := NewMachine(TestConfig(4))
	var l Line
	for i := 0; i < 4; i++ {
		m.CPU(i).Read(&l) // one cold fill + three transfers
	}
	m.ResetStats()
	for round := 0; round < 10; round++ {
		for i := 0; i < 4; i++ {
			m.CPU(i).Read(&l)
		}
	}
	s := m.TotalStats()
	if s.Transfers != 0 || s.ColdMisses != 0 {
		t.Fatalf("read-shared steady state moved lines: %+v", s)
	}
	if s.LocalHits != 40 {
		t.Fatalf("LocalHits = %d, want 40", s.LocalHits)
	}
}

// TestLineSeqlockWriteInvalidates checks the directory transition: a write
// invalidates all sharers, whose next reads are transfers again.
func TestLineSeqlockWriteInvalidates(t *testing.T) {
	m := NewMachine(TestConfig(3))
	var l Line
	for i := 0; i < 3; i++ {
		m.CPU(i).Read(&l)
	}
	m.CPU(0).Write(&l) // invalidates cores 1 and 2
	m.ResetStats()
	m.CPU(1).Read(&l)
	m.CPU(2).Read(&l)
	if s := m.TotalStats(); s.Transfers != 2 {
		t.Fatalf("post-invalidation reads: Transfers = %d, want 2", s.Transfers)
	}
}

// TestLineSeqlockStress hammers a small set of lines from many cores with
// mixed reads and writes, interleaved by the explorer: every interleaving
// must keep the per-core accounting invariant (every touch is exactly one of
// hit, cold miss, or transfer).
func TestLineSeqlockStress(t *testing.T) {
	const (
		ncores  = 8
		nlines  = 16
		touches = 4000
	)
	for seed := range Seeds(4) {
		m := NewMachine(TestConfig(ncores))
		lines := make([]Line, nlines)
		RunGang(m, ncores, seed, func(c *CPU, _ *Gang) {
			rng := rand.New(rand.NewSource(int64(c.ID() + 1)))
			for k := 0; k < touches; k++ {
				l := &lines[rng.Intn(nlines)]
				if rng.Intn(4) == 0 {
					c.Write(l)
				} else {
					c.Read(l)
				}
			}
		})
		for i := 0; i < ncores; i++ {
			s := m.CPU(i).Stats()
			if got := s.LocalHits + s.ColdMisses + s.Transfers; got != touches {
				t.Errorf("seed %d: core %d: %d touches accounted, want %d (%+v)", seed, i, got, touches, *s)
			}
		}
	}
}

// TestLineResetMakesCold verifies recycled lines behave like fresh memory.
func TestLineResetMakesCold(t *testing.T) {
	m := NewMachine(TestConfig(2))
	var l Line
	m.CPU(0).Write(&l)
	m.CPU(1).Read(&l)
	l.Reset()
	m.ResetStats()
	m.CPU(1).Read(&l)
	if s := m.TotalStats(); s.ColdMisses != 1 || s.Transfers != 0 {
		t.Fatalf("post-Reset read: %+v, want one cold miss", s)
	}
}

// refLine is the directory Line packs into one state word, spelled out: a
// sharer set, the last writer and the home-node gate, with a write hit only
// for the sole sharer and a transfer's source the owner, else the lowest
// sharer.
type refLine struct {
	sharers [MaxCores]bool
	owner   int // -1: never written since the last reset
	gate    Gate
}

func (l *refLine) reset() { *l = refLine{owner: -1} }

// refCore is what a touch changes on a core.
type refCore struct {
	clock  uint64
	cycles Cycles
	stats  Stats
}

// touch applies a read or write by core c to l, charging cores[c], and
// returns how it was served.
func (l *refLine) touch(cfg *Config, cores []refCore, c int, write bool) string {
	k := &cores[c]
	sole := l.sharers[c]
	for i := range l.sharers {
		sole = sole && (i == c || !l.sharers[i])
	}
	if l.sharers[c] && (!write || sole) {
		if write {
			l.owner = c
		}
		k.stats.LocalHits++
		k.clock += cfg.LocalHit
		k.cycles[CauseLineHit] += cfg.LocalHit
		return "hit"
	}
	src := l.owner
	for i := 0; src < 0 && i < len(l.sharers); i++ {
		if l.sharers[i] {
			src = i
		}
	}
	class, cost, cause := "cold", cfg.DRAMAccess, CauseColdFill
	switch {
	case src < 0:
		k.stats.ColdMisses++
	case src/cfg.CoresPerSocket == c/cfg.CoresPerSocket:
		class, cost, cause = "same-socket", cfg.SameSocketXfer, CauseLineXfer
		k.stats.Transfers++
	default:
		class, cost, cause = "cross-socket", cfg.CrossSocketXfer, CauseLineXfer
		k.stats.Transfers++
		k.stats.CrossSocket++
	}
	start := l.gate.arrive(k.clock)
	l.gate.release(start + cost)
	k.cycles[CauseLineQueue] += start - k.clock
	k.cycles[cause] += cost
	k.clock = start + cost
	if write {
		l.sharers = [MaxCores]bool{}
		l.owner = c
	}
	l.sharers[c] = true
	return class
}

// served names how a touch that moved a core's Stats from before to after
// was served.
func served(before, after Stats) string {
	switch {
	case after.LocalHits > before.LocalHits:
		return "hit"
	case after.ColdMisses > before.ColdMisses:
		return "cold"
	case after.CrossSocket > before.CrossSocket:
		return "cross-socket"
	case after.Transfers > before.Transfers:
		return "same-socket"
	}
	return "nothing"
}

// TestLineMatchesDirectoryModel holds the packed state word to the
// directory it encodes. Seeded streams of reads, writes, resets and local
// work run on a few lines, mostly from a small hot set of cores that moves
// (so lines settle with an exclusive holder, spread to sharers, and are
// taken back), and after every touch the toucher's classification, clock,
// every cause and Stats must be the reference's.
func TestLineMatchesDirectoryModel(t *testing.T) {
	const nlines, steps = 4, 4000
	for _, ncores := range []int{1, 3, 12, 80, 128} {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := TestConfig(ncores)
			m := NewMachine(cfg)
			cfg = m.cfg // with CoresPerSocket filled in
			lines := make([]Line, nlines)
			refs := make([]refLine, nlines)
			for i := range refs {
				refs[i].reset()
			}
			cores := make([]refCore, ncores)
			rng := rand.New(rand.NewSource(seed))
			hot := []int{0}
			seen := map[string]int{}
			for step := 0; step < steps; step++ {
				if step%40 == 0 {
					hot = hot[:0]
					for range 3 {
						hot = append(hot, rng.Intn(ncores))
					}
				}
				c := hot[rng.Intn(len(hot))]
				if rng.Intn(5) == 0 {
					c = rng.Intn(ncores)
				}
				li := rng.Intn(nlines)
				cpu := m.CPU(c)
				if w := uint64(rng.Intn(4) * 100); w > 0 {
					cpu.Tick(w)
					cores[c].clock += w
					cores[c].cycles[CauseOp] += w
				}
				op := rng.Intn(100)
				if op < 2 {
					lines[li].Reset()
					refs[li].reset()
					continue
				}
				write := op < 40
				before := *cpu.Stats()
				if write {
					cpu.Write(&lines[li])
				} else {
					cpu.Read(&lines[li])
				}
				want := refs[li].touch(&cfg, cores, c, write)
				got := served(before, *cpu.Stats())
				seen[got]++
				k := &cores[c]
				if got != want || cpu.Now() != k.clock || cpu.cycles != k.cycles || *cpu.Stats() != k.stats {
					t.Fatalf("%d cores, seed %d, step %d: core %d %s of line %d served %s at clock %d, want %s at %d\ncauses %v\n want  %v\nstats %+v\n want  %+v",
						ncores, seed, step, c, map[bool]string{true: "write", false: "read"}[write], li,
						got, cpu.Now(), want, k.clock, cpu.cycles, k.cycles, *cpu.Stats(), k.stats)
				}
			}
			classes := []string{"hit", "cold"}
			if ncores > 1 {
				classes = append(classes, "same-socket")
			}
			if ncores > cfg.CoresPerSocket {
				classes = append(classes, "cross-socket")
			}
			for _, class := range classes {
				if seen[class] == 0 {
					t.Errorf("%d cores, seed %d: no touch was served %s (%v)", ncores, seed, class, seen)
				}
			}
		}
	}
}

// coreState is everything a touch can change on a core: its clock, cycle
// meter, Stats and queued mail.
type coreState struct {
	clock, mboxNext uint64
	cycles          Cycles
	stats           Stats
	mail            string
}

func stateOf(c *CPU) coreState {
	return coreState{c.clock, c.mboxNext, c.cycles, c.stats, fmt.Sprint(c.mbox[c.mboxHead:])}
}

// TestHitRunMatchesTouches is HitRun's exactness oracle. Two machines take
// the same seeded setup: a pool of lines each left owned by the running
// core, shared by it alone, shared with others, cold, or written by another
// core; some local work; and mailbox messages stamped before, inside, at the
// end of or after the run. Then one machine runs HitRun over a path drawn
// from the pool and the other the separate reads and the last read or write.
// HitRun must accept exactly when every separate touch hit and no message is
// stamped at or before the run's end, and must then leave every core's
// clock, causes, Stats and mail and every line as the separate touches did;
// when it refuses, nothing may have changed.
func TestHitRunMatchesTouches(t *testing.T) {
	const pool, trials = 4, 3000
	for _, ncores := range []int{1, 12, 80} {
		rng := rand.New(rand.NewSource(int64(ncores)))
		var accepted, refused int
		for trial := range trials {
			ms := [2]*Machine{NewMachine(TestConfig(ncores)), NewMachine(TestConfig(ncores))}
			lines := [2][pool]Line{}
			c := rng.Intn(ncores)
			others := func() int { return (c + 1 + rng.Intn(ncores-1)) % ncores }
			// Setup touches, the same on both machines.
			do := func(core int, li int, write bool) {
				for k, m := range ms {
					if write {
						m.CPU(core).Write(&lines[k][li])
					} else {
						m.CPU(core).Read(&lines[k][li])
					}
				}
			}
			for li := range pool {
				state := rng.Intn(8)
				if ncores == 1 && state >= 5 {
					state = rng.Intn(3)
				}
				switch state {
				case 0, 1: // owned
					do(c, li, true)
				case 2, 3: // sole sharer, never written
					do(c, li, false)
				case 4: // cold
				case 5: // sharers, never written
					do(others(), li, false)
					do(c, li, false)
				case 6: // sharers, c wrote it last
					do(c, li, true)
					do(others(), li, false)
				case 7: // another core's
					do(others(), li, true)
				}
			}
			work := uint64(rng.Intn(1000))
			for _, m := range ms {
				m.CPU(c).Tick(work)
			}
			write := rng.Intn(2) == 0
			path := make([][]*Line, 2)
			lastAt := rng.Intn(pool)
			for range rng.Intn(4) {
				li := rng.Intn(pool)
				for k := range ms {
					path[k] = append(path[k], &lines[k][li])
				}
			}
			cost := uint64(len(path[0])+1) * ms[0].cfg.LocalHit
			clock := ms[0].CPU(c).clock
			when := rng.Intn(5)
			for range 1 + rng.Intn(2) {
				var stamp uint64
				switch when {
				case 0: // none
					continue
				case 1: // before the run
					stamp = clock - uint64(rng.Int63n(int64(clock)+1))
				case 2: // inside it
					stamp = clock + 1 + uint64(rng.Int63n(int64(cost)-1))
				case 3: // at its end
					stamp = clock + cost
				case 4: // after it
					stamp = clock + cost + 1 + uint64(rng.Intn(50))
				}
				for _, m := range ms {
					m.CPU(c).DeliverAt(stamp, 1000)
				}
			}

			a, b := ms[0].CPU(c), ms[1].CPU(c)
			before, linesBefore := stateOf(a), lines[0]
			ok := a.HitRun(path[0], &lines[0][lastAt], write)
			for _, l := range path[1] {
				b.Read(l)
			}
			if write {
				b.Write(&lines[1][lastAt])
			} else {
				b.Read(&lines[1][lastAt])
			}
			allHit := b.stats.LocalHits-before.stats.LocalHits == uint64(len(path[1])+1)
			if want := allHit && before.mboxNext > clock+cost; ok != want {
				t.Fatalf("%d cores, trial %d: HitRun of %d lines (write %v, mail %d) returned %v, want %v",
					ncores, trial, len(path[0])+1, write, when, ok, want)
			}
			if !ok {
				refused++
				if after := stateOf(a); after != before || lines[0] != linesBefore {
					t.Fatalf("%d cores, trial %d: a refused HitRun changed core %d from %+v to %+v, or a line",
						ncores, trial, c, before, after)
				}
				continue
			}
			accepted++
			for i := range ncores {
				if x, y := stateOf(ms[0].CPU(i)), stateOf(ms[1].CPU(i)); x != y {
					t.Fatalf("%d cores, trial %d: core %d after HitRun %+v, after the touches %+v", ncores, trial, i, x, y)
				}
			}
			if lines[0] != lines[1] {
				t.Fatalf("%d cores, trial %d: lines after HitRun %+v, after the touches %+v", ncores, trial, lines[0], lines[1])
			}
		}
		if accepted < trials/10 || refused < trials/10 {
			t.Errorf("%d cores: HitRun accepted %d and refused %d of %d runs; the draw must exercise both", ncores, accepted, refused, trials)
		}
	}
}

// TestHitRunRefusesOnExplorer: on the explorer every touch is a preemption
// point, so HitRun charges nothing there even when every line is a hit.
func TestHitRunRefusesOnExplorer(t *testing.T) {
	for seed := range Seeds(4) {
		m := NewMachine(TestConfig(2))
		var lines [2][4]Line
		RunGang(m, 2, seed, func(c *CPU, _ *Gang) {
			ls := &lines[c.ID()]
			for i := range ls {
				c.Write(&ls[i])
			}
			before := stateOf(c)
			if c.HitRun([]*Line{&ls[0], &ls[1], &ls[2]}, &ls[3], true) {
				t.Errorf("seed %d: core %d: HitRun accepted on the explorer", seed, c.ID())
			}
			if after := stateOf(c); after != before {
				t.Errorf("seed %d: core %d: HitRun refused but changed %+v to %+v", seed, c.ID(), before, after)
			}
		})
	}
}

// TestChargeHitsRefusesOnExplorer: ChargeHits proves nothing, so on the
// explorer, where another core may run between two touches, it charges
// nothing either, even for lines the core holds alone.
func TestChargeHitsRefusesOnExplorer(t *testing.T) {
	for seed := range Seeds(4) {
		m := NewMachine(TestConfig(2))
		var lines [2]Line
		RunGang(m, 2, seed, func(c *CPU, _ *Gang) {
			c.Write(&lines[c.ID()])
			before := stateOf(c)
			if c.ChargeHits(4) {
				t.Errorf("seed %d: core %d: ChargeHits accepted on the explorer", seed, c.ID())
			}
			if after := stateOf(c); after != before {
				t.Errorf("seed %d: core %d: ChargeHits refused but changed %+v to %+v", seed, c.ID(), before, after)
			}
		})
	}
}

// BenchmarkLine is the host cost of one modelled touch on each of its paths:
// the exclusive holder's hit, a lock-free read-shared hit, a write that
// takes the line from another core, and a read that pulls a line written
// by another core into a second cache; and of one HitRun of four lines.
// None may allocate.
func BenchmarkLine(b *testing.B) {
	m := NewMachine(TestConfig(4))
	c0, c1 := m.CPU(0), m.CPU(1)
	b.Run("owner_hit", func(b *testing.B) {
		var l Line
		c0.Write(&l)
		b.ReportAllocs()
		for range b.N {
			c0.Write(&l)
		}
	})
	b.Run("read_shared_hit", func(b *testing.B) {
		var l Line
		c1.Read(&l)
		c0.Read(&l)
		b.ReportAllocs()
		for range b.N {
			c0.Read(&l)
		}
	})
	b.Run("write_xfer", func(b *testing.B) {
		var l Line
		cpus := [2]*CPU{c0, c1}
		b.ReportAllocs()
		for i := range b.N {
			cpus[i&1].Write(&l)
		}
	})
	// A read transfer leaves the reader sharing the line, so the lines are
	// written back to core 0 a batch at a time with the timer stopped.
	b.Run("read_xfer", func(b *testing.B) {
		lines := make([]Line, 256)
		b.ReportAllocs()
		for i := range b.N {
			l := &lines[i%len(lines)]
			if l == &lines[0] {
				b.StopTimer()
				for j := range lines {
					c0.Write(&lines[j])
				}
				b.StartTimer()
			}
			c1.Read(l)
		}
	})
	// A cached page-table walk's charge: three interior reads and a leaf
	// write, all held by the toucher, charged in one step.
	b.Run("hit_run", func(b *testing.B) {
		var lines [4]Line
		for i := range lines {
			c0.Write(&lines[i])
		}
		path := []*Line{&lines[0], &lines[1], &lines[2]}
		b.ReportAllocs()
		for range b.N {
			if !c0.HitRun(path, &lines[3], true) {
				b.Fatal("HitRun refused a run of owned lines")
			}
		}
	})
}
