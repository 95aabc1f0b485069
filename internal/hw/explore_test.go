package hw

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// exploreRun is one explorer run of a racy gang: cores write a shared
// log between line touches, contend for a lock and send each other
// interrupts. It returns everything a replay must reproduce.
type exploreRun struct {
	grants []uint8
	log    []int
	clocks []uint64
	stats  []Stats
	cycles []Cycles
}

func runExplored(seed uint64) exploreRun {
	const ncores = 4
	m := NewMachine(TestConfig(ncores))
	var (
		lk    Lock
		lines [3]Line
		r     exploreRun
	)
	s := NewSched(0)
	s.x = newExplorer(s, seed)
	runGang(s, m, ncores, func(c *CPU, g *Gang) {
		for k := 0; k < 20; k++ {
			c.Read(&lines[k%3])
			r.log = append(r.log, c.ID())
			c.Acquire(&lk)
			c.Write(&lines[(k+c.ID())%3])
			c.Release(&lk)
			if k%7 == 0 {
				var to CoreSet
				to.Add((c.ID() + 1) % ncores)
				c.SendIPIs(to, func(*CPU) {})
			}
			g.Sync(c)
		}
	})
	r.grants = s.x.grants
	for i := 0; i < ncores; i++ {
		c := m.CPU(i)
		r.clocks = append(r.clocks, c.Now())
		r.stats = append(r.stats, *c.Stats())
		r.cycles = append(r.cycles, c.Cycles())
	}
	return r
}

// TestExplorerReplaysASeed: a seed is an exact replay — the same grants, log,
// clocks, statistics and cycle meters.
func TestExplorerReplaysASeed(t *testing.T) {
	for _, seed := range []uint64{0, 1, 7, 1 << 40} {
		a, b := runExplored(seed), runExplored(seed)
		if len(a.grants) == 0 {
			t.Fatalf("seed %d: no grants logged", seed)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("seed %d does not replay:\n%v\n%v", seed, a, b)
		}
	}
}

// TestExplorerSeedsInterleaveDifferently: seeds differ in how they
// interleave a two-core race, where the deterministic pick always runs it
// one way.
func TestExplorerSeedsInterleaveDifferently(t *testing.T) {
	race := func(run func(*Machine, func(*CPU, *Gang))) string {
		m := NewMachine(TestConfig(2))
		var l Line
		var log []byte
		run(m, func(c *CPU, _ *Gang) {
			for k := 0; k < 8; k++ {
				c.Write(&l)
				log = append(log, byte('0'+c.ID()))
			}
		})
		return string(log)
	}
	det := race(func(m *Machine, fn func(*CPU, *Gang)) { RunGangDet(m, 2, 0, fn) })
	if again := race(func(m *Machine, fn func(*CPU, *Gang)) { RunGangDet(m, 2, 0, fn) }); again != det {
		t.Fatalf("the deterministic schedule ran the race as %s, then %s", det, again)
	}
	seen := map[string]uint64{}
	for seed := range uint64(32) {
		seen[race(func(m *Machine, fn func(*CPU, *Gang)) { RunGang(m, 2, seed, fn) })] = seed
	}
	if len(seen) < 2 {
		t.Fatalf("32 seeds ran the race one way only: %v", seen)
	}
	var logs []string
	for log := range seen {
		if strings.Count(log, "0") != 8 || len(log) != 16 {
			t.Fatalf("interleaving %q lost or duplicated a write", log)
		}
		logs = append(logs, log)
	}
	slices.Sort(logs)
	t.Logf("%d interleavings of the race in 32 seeds, e.g. %s (seed %d) and %s (seed %d)",
		len(seen), logs[0], seen[logs[0]], logs[len(logs)-1], seen[logs[len(logs)-1]])
}

// A lock that cannot be released is a deadlock: off the explorer the first
// contended acquire panics, on it the run does once no core can progress.
func TestHeldLockPanics(t *testing.T) {
	panics := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return ""
	}
	m := NewMachine(TestConfig(2))
	var lk Lock
	m.CPU(0).Acquire(&lk)
	if msg := panics(func() { m.CPU(1).Acquire(&lk) }); !strings.Contains(msg, "no other core can release") {
		t.Errorf("a contended acquire off the explorer: panic %q", msg)
	}
	for seed := range uint64(8) {
		var leaked Lock
		msg := panics(func() {
			RunGang(NewMachine(TestConfig(2)), 2, seed, func(c *CPU, _ *Gang) { c.Acquire(&leaked) })
		})
		if !strings.Contains(msg, "deadlock") {
			t.Errorf("seed %d: a lock never released: panic %q, want a deadlock", seed, msg)
		}
	}
}
