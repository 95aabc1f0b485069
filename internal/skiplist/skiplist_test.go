package skiplist

import (
	"math/rand"
	"testing"
	"testing/quick"

	"radixvm/internal/hw"
)

func newList(ncores int) (*hw.Machine, *List) {
	m := hw.NewMachine(hw.TestConfig(ncores))
	return m, New()
}

func TestInsertContainsDelete(t *testing.T) {
	m, l := newList(1)
	c := m.CPU(0)
	rng := rand.New(rand.NewSource(1))
	if l.Contains(c, 10) {
		t.Fatal("empty list contains 10")
	}
	if !l.Insert(c, rng, 10) {
		t.Fatal("insert failed")
	}
	if l.Insert(c, rng, 10) {
		t.Fatal("duplicate insert succeeded")
	}
	if !l.Contains(c, 10) {
		t.Fatal("inserted key missing")
	}
	if !l.Delete(c, 10) {
		t.Fatal("delete failed")
	}
	if l.Delete(c, 10) {
		t.Fatal("double delete succeeded")
	}
	if l.Contains(c, 10) || l.Len() != 0 {
		t.Fatal("key survives delete")
	}
}

func TestOrderedTraversalInvariant(t *testing.T) {
	m, l := newList(1)
	c := m.CPU(0)
	rng := rand.New(rand.NewSource(2))
	keys := rng.Perm(200)
	for _, k := range keys {
		l.Insert(c, rng, uint64(k)+1)
	}
	// Bottom-level walk must be sorted and complete.
	prev := uint64(0)
	count := 0
	for curr, _ := l.head.succs[0].load(); curr != l.tail; curr, _ = curr.succs[0].load() {
		if curr.key <= prev {
			t.Fatalf("unsorted: %d after %d", curr.key, prev)
		}
		// Every node must be reachable at each of its levels.
		for lvl := 0; lvl <= curr.topLevel; lvl++ {
			if !levelReachable(l, curr, lvl) {
				t.Fatalf("key %d not linked at level %d", curr.key, lvl)
			}
		}
		prev = curr.key
		count++
	}
	if count != 200 {
		t.Fatalf("walked %d keys, want 200", count)
	}
}

func levelReachable(l *List, target *node, lvl int) bool {
	for curr, _ := l.head.succs[lvl].load(); curr != nil && curr.key <= target.key; curr, _ = curr.succs[lvl].load() {
		if curr == target {
			return true
		}
	}
	return false
}

func TestQuickAgainstMapModel(t *testing.T) {
	type op struct {
		Key    uint8
		Delete bool
	}
	f := func(ops []op) bool {
		m, l := newList(1)
		c := m.CPU(0)
		rng := rand.New(rand.NewSource(3))
		model := map[uint64]bool{}
		for _, o := range ops {
			k := uint64(o.Key) + 1
			if o.Delete {
				if l.Delete(c, k) != model[k] {
					return false
				}
				delete(model, k)
			} else {
				if l.Insert(c, rng, k) == model[k] {
					return false
				}
				model[k] = true
			}
		}
		for k := uint64(1); k <= 256; k++ {
			if l.Contains(c, k) != model[k] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestConcurrentDisjointKeys(t *testing.T) {
	const ncores = 8
	m, l := newList(ncores)
	hw.RunGang(m, ncores, func(c *hw.CPU, g *hw.Gang) {
		rng := rand.New(rand.NewSource(int64(c.ID())))
		base := uint64(c.ID()) * 1000
		for k := 0; k < 300; k++ {
			key := base + uint64(rng.Intn(500)) + 1
			if !l.Contains(c, key) {
				l.Insert(c, rng, key)
			} else {
				l.Delete(c, key)
			}
			g.Sync(c)
		}
	})
	// Structural sanity after the storm.
	prev := uint64(0)
	for curr, _ := l.head.succs[0].load(); curr != l.tail; curr, _ = curr.succs[0].load() {
		if _, marked := curr.succs[0].load(); marked {
			continue
		}
		if curr.key <= prev {
			t.Fatalf("unsorted after stress: %d after %d", curr.key, prev)
		}
		prev = curr.key
	}
}

func TestConcurrentSameKeyLinearizes(t *testing.T) {
	// Many cores inserting/deleting one key: at most one insert of a
	// given generation wins, and the list never holds duplicates.
	const ncores = 4
	m, l := newList(ncores)
	hw.RunGang(m, ncores, func(c *hw.CPU, g *hw.Gang) {
		rng := rand.New(rand.NewSource(int64(c.ID() + 100)))
		for k := 0; k < 200; k++ {
			l.Insert(c, rng, 42)
			l.Delete(c, 42)
			g.Sync(c)
		}
	})
	if n := l.Len(); n > 1 {
		t.Fatalf("duplicates survived: Len = %d", n)
	}
}

func TestReadersDegradeUnderWriters(t *testing.T) {
	// Figure 6's mechanism in miniature: reader-side line transfers per
	// lookup grow once writers modify interior nodes, even on different
	// keys.
	run := func(writers int) float64 {
		const readers = 4
		ncores := readers + writers
		m, l := newList(ncores)
		rng := rand.New(rand.NewSource(5))
		// 1000 present keys, as in the paper's benchmark.
		for k := 1; k <= 1000; k++ {
			l.Insert(m.CPU(0), rng, uint64(k)*2)
		}
		var lookups [hw.MaxCores]uint64
		// Warm reader caches.
		for i := 0; i < readers; i++ {
			c := m.CPU(i)
			r := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < 200; k++ {
				l.Contains(c, uint64(r.Intn(1000)+1)*2)
			}
		}
		m.ResetStats()
		hw.RunGangDet(m, ncores, 0, func(c *hw.CPU, g *hw.Gang) {
			r := rand.New(rand.NewSource(int64(c.ID())))
			if c.ID() < readers {
				for k := 0; k < 300; k++ {
					l.Contains(c, uint64(r.Intn(1000)+1)*2)
					lookups[c.ID()]++
					g.Sync(c)
				}
			} else {
				for k := 0; k < 300; k++ {
					key := uint64(r.Intn(1<<20))*2 + 1 // absent odd keys
					l.Insert(c, r, key)
					l.Delete(c, key)
					g.Sync(c)
				}
			}
		})
		var reads, xfers uint64
		for i := 0; i < readers; i++ {
			xfers += m.CPU(i).Stats().Transfers
			reads += lookups[i]
		}
		return float64(xfers) / float64(reads)
	}
	if calm, stormy := run(0), run(4); stormy <= calm {
		t.Errorf("reader transfers/lookup did not grow with writers: %0.3f vs %0.3f", calm, stormy)
	}
}
