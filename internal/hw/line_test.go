package hw

import (
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
	gate    waitGate
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

// BenchmarkLine is the host cost of one modelled touch on each of its paths:
// the exclusive holder's hit, a lock-free read-shared hit, a write that
// takes the line from another core, and a read that pulls a line written
// by another core into a second cache. None may allocate.
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
}
