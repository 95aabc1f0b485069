package radix

import (
	"math/rand"
	"testing"

	"radixvm/internal/hw"
)

// touchCost runs fn on c and returns the line touches it charged c, by
// outcome.
func touchCost(c *hw.CPU, fn func()) hw.Stats {
	st := *c.Stats()
	fn()
	now := c.Stats()
	return hw.Stats{LocalHits: now.LocalHits - st.LocalHits, ColdMisses: now.ColdMisses - st.ColdMisses, Transfers: now.Transfers - st.Transfers}
}

// lockCost is touchCost of a lock, unlocked outside the measurement.
func lockCost(c *hw.CPU, lock func() *Range[val]) hw.Stats {
	var r *Range[val]
	st := touchCost(c, func() { r = lock() })
	r.Unlock()
	return st
}

// TestLeafLockFetchesItsLineOnce holds the leaf lock to one ownership fetch: a
// leaf slot is never a link, so its bit is taken first (the CAS fetches the
// line exclusive) and the slot is read under it, a hit. Read-then-CAS would
// fetch a line another core wrote last twice, shared and then exclusive.
// Interior slots keep read-then-CAS, since one may be a link.
func TestLeafLockFetchesItsLineOnce(t *testing.T) {
	// A leaf node's first three lines (slots 0-3, 4-7, 8-11), and an
	// interior slot of the leaf's parent on a line of its own.
	leaf := 8 * span(1)
	lineA, lineB, lineC := leaf, leaf+slotsPerLine, leaf+2*slotsPerLine
	folded := 12 * span(1)
	// c0 writes lines A-C and the folded slot; then both cores lock a page
	// on line C, which reads the interior path into both caches, so that
	// only the line under test can move.
	setup := func() (*Tree[val], *hw.CPU, *hw.CPU) {
		m, _, tr := newTree(2)
		c0, c1 := m.CPU(0), m.CPU(1)
		setRange(tr, c0, lineA, lineC+slotsPerLine, &val{1})
		setRange(tr, c0, folded, folded+span(1), &val{2})
		tr.LockPage(c1, lineC).Unlock()
		tr.LockPage(c0, lineC).Unlock()
		return tr, c0, c1
	}
	oneFetch := func(t *testing.T, what string, st hw.Stats) {
		t.Helper()
		if st.Transfers != 1 || st.ColdMisses != 0 {
			t.Errorf("%s on a line another core wrote last: %d transfers, %d cold fills; want 1, 0", what, st.Transfers, st.ColdMisses)
		}
	}

	t.Run("LockPage", func(t *testing.T) {
		tr, _, c1 := setup()
		oneFetch(t, "LockPage", lockCost(c1, func() *Range[val] { return tr.LockPage(c1, lineA+1) }))
	})
	t.Run("LockRange", func(t *testing.T) {
		tr, _, c1 := setup()
		var n int
		st := lockCost(c1, func() *Range[val] {
			r := tr.LockRange(c1, lineB, lineB+slotsPerLine)
			n = len(r.Entries())
			return r
		})
		if n != slotsPerLine {
			t.Fatalf("LockRange over one line locked %d entries, want %d", n, slotsPerLine)
		}
		oneFetch(t, "LockRange over the line's four slots", st)
	})
	t.Run("OwnLine", func(t *testing.T) {
		// Every line on the path is in c0's cache. A lookup walks the same
		// path and reads the leaf slot once; the lock CASes the slot and
		// reads it, 2·LocalHit: one hit more.
		tr, c0, _ := setup()
		look := touchCost(c0, func() { tr.Lookup(c0, lineA+1) })
		st := lockCost(c0, func() *Range[val] { return tr.LockPage(c0, lineA+1) })
		if st.Transfers != 0 || st.ColdMisses != 0 || st.LocalHits != look.LocalHits+1 {
			t.Errorf("LockPage of c0's own line: %d hits, %d transfers, %d cold fills; want %d, 0, 0", st.LocalHits, st.Transfers, st.ColdMisses, look.LocalHits+1)
		}
	})
	t.Run("FoldedInterior", func(t *testing.T) {
		// The folded slot is read shared before its CAS takes it
		// exclusive: two transfers, as any interior slot costs.
		tr, _, c1 := setup()
		st := lockCost(c1, func() *Range[val] { return tr.LockRange(c1, folded, folded+span(1)) })
		if st.Transfers != 2 || st.ColdMisses != 0 {
			t.Errorf("LockRange of a folded interior slot c0 wrote last: %d transfers, %d cold fills; want 2, 0", st.Transfers, st.ColdMisses)
		}
	})
}

// TestConcurrentLeafLockers races leaf locks taken bit-first: cores lock
// overlapping ranges and single pages of one leaf, the pages sharing one
// line, and bump every page they hold in place. No page is ever held by two
// cores at once, and no bump is lost.
func TestConcurrentLeafLockers(t *testing.T) {
	const ncores, iters, pages = 4, 200, 2 * slotsPerLine
	for seed := range hw.Seeds(8) {
		base := 8 * span(1)
		m, _, tr := newTree(ncores)
		setRange(tr, m.CPU(0), base, base+pages, &val{0})
		var held [pages]int32
		var bumps int64
		hw.RunGang(m, ncores, seed, func(c *hw.CPU, g *hw.Gang) {
			rng := rand.New(rand.NewSource(int64(c.ID())))
			for k := 0; k < iters; k++ {
				var r *Range[val]
				if k%2 == 0 {
					lo := base + uint64(rng.Intn(pages))
					r = tr.LockRange(c, lo, min(lo+uint64(rng.Intn(slotsPerLine))+1, base+pages))
				} else {
					r = tr.LockPage(c, base+uint64(rng.Intn(slotsPerLine)))
				}
				for i := range r.Entries() {
					e := r.Entry(i)
					if h := &held[e.Lo-base]; *h != 0 {
						t.Errorf("seed %d: core %d locked page %d while core %d held it", seed, c.ID(), e.Lo, *h-1)
					} else {
						*h = int32(c.ID()) + 1
					}
					v := e.Value()
					if v == nil {
						t.Errorf("seed %d: page %d lost its value", seed, e.Lo)
						continue
					}
					v.x++
					e.Set(v)
				}
				c.Tick(100) // the critical section
				for i := range r.Entries() {
					held[r.Entry(i).Lo-base] = 0
				}
				bumps += int64(len(r.Entries()))
				r.Unlock()
				g.Sync(c)
			}
		})
		var sum int64
		for p := base; p < base+pages; p++ {
			if v := tr.Lookup(m.CPU(0), p); v != nil {
				sum += int64(v.x)
			}
		}
		if sum != bumps {
			t.Errorf("seed %d: the pages' values add up to %d bumps, want %d", seed, sum, bumps)
		}
	}
}
