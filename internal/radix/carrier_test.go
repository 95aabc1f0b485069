package radix

import "testing"

// TestSetCloneStoresPrivateCopies: each slot written by SetClone must hold
// its own copy, not the caller's template — mutating the template after the
// call, or one slot's value through another, must not leak.
func TestSetCloneStoresPrivateCopies(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	tmpl := &val{x: 7}
	r := tr.LockRange(c, 100, 104)
	for i := range r.Entries() {
		r.Entry(i).SetClone(tmpl)
	}
	r.Unlock()
	tmpl.x = 99 // template reuse (the mmap path rewrites it per call)
	for vpn := uint64(100); vpn < 104; vpn++ {
		if got := tr.Lookup(c, vpn); got == nil || got.x != 7 {
			t.Fatalf("vpn %d = %+v, want private copy with x=7", vpn, got)
		}
	}
	// Mutating one page's value must not touch its neighbors.
	r = tr.LockPage(c, 101)
	r.Entry(0).Value().x = 8
	r.Unlock()
	if tr.Lookup(c, 100).x != 7 || tr.Lookup(c, 102).x != 7 {
		t.Fatal("mutation through one slot leaked to a sibling")
	}
}

// TestSetCloneFoldedAdoptsTemplate: a folded interior entry (one slot
// covering a whole subtree) adopts the template through one carrier, and a
// later single-page expansion clones per page from it.
func TestSetCloneFoldedAdoptsTemplate(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	lo := span(1) * 4 // slot-aligned: folds into one level-1 slot
	tmpl := &val{x: 3}
	r := tr.LockRange(c, lo, lo+span(1))
	if len(r.Entries()) != 1 {
		t.Fatalf("aligned range locked %d entries, want 1 folded", len(r.Entries()))
	}
	r.Entry(0).SetClone(tmpl)
	r.Unlock()
	tmpl.x = 99
	if got := tr.Lookup(c, lo+17); got == nil || got.x != 3 {
		t.Fatalf("folded lookup = %+v, want x=3", got)
	}
	// Expanding one page out of the fold clones the carrier's value.
	r = tr.LockPage(c, lo+17)
	r.Entry(0).Value().x = 5
	r.Unlock()
	if tr.Lookup(c, lo+17).x != 5 || tr.Lookup(c, lo+18).x != 3 {
		t.Fatal("expansion after folded SetClone did not clone per page")
	}
}

// TestCarrierRecycling: the clear/set cycle (munmap then mmap) must reuse
// retired carriers from the per-CPU pool instead of allocating.
func TestCarrierRecycling(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	tmpl := &val{x: 1}
	cycle := func() {
		r := tr.LockRange(c, 200, 204)
		for i := range r.Entries() {
			r.Entry(i).SetClone(tmpl)
		}
		r.Unlock()
		r = tr.LockRange(c, 200, 204)
		for i := range r.Entries() {
			r.Entry(i).Set(nil)
		}
		r.Unlock()
	}
	cycle()
	if n := tr.CarrierPoolSize(c); n != 4 {
		t.Fatalf("carrier pool holds %d after clear, want 4", n)
	}
	got := testing.AllocsPerRun(300, cycle)
	if got != 0 {
		t.Errorf("SetClone/clear cycle = %v allocs/op, want 0", got)
	}
	if n := tr.CarrierPoolSize(c); n != 4 {
		t.Errorf("carrier pool holds %d after cycles, want 4 (leak or over-retire)", n)
	}
}

// TestCarrierReplaceRetires: overwriting a carrier-backed slot with a
// caller-owned pointer retires the carrier.
func TestCarrierReplaceRetires(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	// A multi-slot range forces expansion down to the leaf, so the
	// carrier lands in a leaf slot (a single-page lock on an empty tree
	// would park the value in an interior slot instead).
	r := tr.LockRange(c, 300, 304)
	for i := range r.Entries() {
		r.Entry(i).SetClone(&val{x: 1})
	}
	r.Unlock()
	if n := tr.CarrierPoolSize(c); n != 0 {
		t.Fatalf("pool %d before replace, want 0", n)
	}
	mine := &val{x: 2}
	r = tr.LockPage(c, 300)
	r.Entry(0).Set(mine)
	r.Unlock()
	if n := tr.CarrierPoolSize(c); n != 1 {
		t.Fatalf("pool %d after replace, want 1 (carrier not retired)", n)
	}
	if got := tr.Lookup(c, 300); got != mine {
		t.Fatal("replacement value lost")
	}
}

// TestFoldedExpansionRetiresCarrier is the regression for the ROADMAP
// carrier-leak item: a fold-heavy remap cycle — mmap a slot-aligned range
// (its template rides in one carrier adopted by the folded interior slot),
// fault one page (expanding the fold; the carrier's value becomes the
// child's uniform fill), then munmap — used to orphan the carrier to the
// GC on every cycle. The expansion must instead retire it to the
// expanding CPU's pool: steady-state cycles allocate no new carriers and
// the pool's population is stable.
func TestFoldedExpansionRetiresCarrier(t *testing.T) {
	m, rc, tr := newTree(1)
	c := m.CPU(0)
	lo := span(1) * 12 // slot-aligned: folds into one level-1 slot
	tmpl := &val{x: 6}
	cycle := func() {
		r := tr.LockRange(c, lo, lo+span(1))
		if len(r.Entries()) != 1 {
			t.Fatalf("aligned range locked %d entries, want 1 folded", len(r.Entries()))
		}
		r.Entry(0).SetClone(tmpl) // one carrier adopted by the folded slot
		r.Unlock()
		r = tr.LockPage(c, lo+5) // expandToward: the folded slot expands
		r.Entry(0).Value().x = 7
		r.Unlock()
		r = tr.LockRange(c, lo, lo+span(1)) // munmap: clear everything
		for i := range r.Entries() {
			r.Entry(i).Set(nil)
		}
		r.Unlock()
		quiesce(rc) // let the emptied nodes recycle
	}
	cycle() // warm: pools primed
	pool := tr.CarrierPoolSize(c)
	ever := tr.CarriersEver()
	for k := 0; k < 50; k++ {
		cycle()
		if n := tr.CarrierPoolSize(c); n != pool {
			t.Fatalf("cycle %d: carrier pool %d, want stable %d", k, n, pool)
		}
	}
	if grew := tr.CarriersEver() - ever; grew != 0 {
		t.Errorf("fold-heavy remap cycles allocated %d fresh carriers, want 0 (orphaned by expansion)", grew)
	}
}

// TestBulkReleasePlateaus: a node's uniform gate table holds maxPlateaus
// distinct release times and a fifth is a bug (release panics), while the two
// bulk-release paths stay far inside it on the heaviest shapes — fault-style
// expandToward releases each node it creates at one instant, a
// boundary-splitting range lock releases a prefix and a suffix.
func TestBulkReleasePlateaus(t *testing.T) {
	var u uniformGates
	for p := 0; p < maxPlateaus; p++ {
		u.release(2*p, uint64(10+p))
		u.release(2*p+1, uint64(10+p)) // the same instant extends the plateau
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a fifth distinct release time did not panic")
			}
		}()
		u.release(2*maxPlateaus, 99)
	}()

	m, _, tr := newTree(1)
	c := m.CPU(0)
	tmpl := &val{x: 1}
	check := func(what string) {
		t.Helper()
		var walk func(n *node[val])
		walk = func(n *node[val]) {
			if n.uni.n > 2 {
				t.Errorf("%s: level-%d node at %d has %d plateaus, want <= 2", what, n.level, n.base, n.uni.n)
			}
			for idx := 0; idx < SlotsPerNode; idx++ {
				if st := n.peek(idx); st != nil && st.child != nil && st.child.Data != nil {
					walk(st.child.Data.(*node[val]))
				}
			}
		}
		walk(tr.root)
	}
	// Fault-style: expand a root-level fold down to one leaf.
	r := tr.LockRange(c, 0, span(2))
	for i := range r.Entries() {
		r.Entry(i).SetClone(tmpl)
	}
	r.Unlock()
	for _, vpn := range []uint64{1, span(1) + 3, span(2) - 1} {
		r = tr.LockPage(c, vpn)
		r.Entry(0).Value().x = 2
		r.Unlock()
		check("fault expansion")
	}
	// Range-style: lock windows that split boundaries at several levels.
	for _, w := range [][2]uint64{{5, 600}, {span(1) - 3, span(1)*2 + 9}, {span(2) - 700, span(2) + 700}} {
		r = tr.LockRange(c, w[0], w[1])
		for i := range r.Entries() {
			r.Entry(i).SetClone(tmpl)
		}
		r.Unlock()
		check("range-lock expansion")
	}
}

// TestFamilyRangeCarrierParksEmpty: a forked tree borrows its family root's
// per-CPU Range carrier, which outlives the trees that borrow it, so a parked
// carrier must reference no tree — not through its tree pointer, and not
// through the inline entry and pin arrays a spilled range leaves behind.
func TestFamilyRangeCarrierParksEmpty(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	child := tr.ForkLazy(c)
	if child.cpu(c).rng != tr.cpu(c).rng {
		t.Fatal("forked tree does not borrow its family's Range carrier")
	}
	// Ten leaves, then one range through all of them: more pins and
	// entries than the inline arrays hold.
	for k := uint64(0); k < 10; k++ {
		setRange(child, c, k*span(1), k*span(1)+2, &val{x: 1})
	}
	r := child.LockRange(c, 0, 10*span(1))
	if len(r.pins) <= inlinePins || len(r.Entries()) <= inlineEntries {
		t.Fatalf("range holds %d pins, %d entries: did not spill", len(r.pins), len(r.Entries()))
	}
	r.Unlock()
	if r.t != nil || r.cpu != nil {
		t.Error("parked carrier still references the tree that locked it")
	}
	for _, e := range append(r.eInline[:], r.entries[:cap(r.entries)]...) {
		if e.n != nil {
			t.Fatal("parked carrier holds a stale entry")
		}
	}
	for _, p := range append(r.pInline[:], r.pins[:cap(r.pins)]...) {
		if p != nil {
			t.Fatal("parked carrier holds a stale pin")
		}
	}
}
