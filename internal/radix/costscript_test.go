package radix

import (
	"fmt"
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/refcache"
)

// The cost script: fourteen steps over a lazy fork family — forks, first
// touches, ranges, a fork of a child whose leaf copy has hardly been touched,
// a lookup that materializes a group in a shared leaf, three releases — with
// the virtual cost of every step recorded. How a copy's groups come to exist
// on the host (mirrored eagerly, or born in an image and realized on touch)
// must move none of it (commit cb53c27, whose divergence mirrored every group
// of the source into real storage, recorded the first rows). The rows were
// re-recorded when a copy of a frozen node became a reader of it: one read of
// each source group line, a write where the hook arms a value, and no wait
// for an earlier copy (steps 2, 4 and 8-11). They were last re-recorded when
// a fork came to freeze the parent's root and copy it as such a reader (steps
// 1, 3 and 7), leaving the parent to copy its frozen root on its next write:
// b does in step 9, after c's fork, and its old root is reclaimed in step 12.

// scriptStep is one step's cost: the cycles all cores' clocks advanced by, the
// line touches by outcome, and the nodes alive across the family afterwards.
type scriptStep struct {
	Cycles, Hits, Cold, Xfers uint64
	Nodes                     int64
}

var costScriptWant = [...]scriptStep{
	{816, 2, 0, 0, 7},         // 1: a := ForkLazy
	{34976, 10, 4, 263, 10},   // 2: a touches the full leaf: three path copies, arming every page
	{816, 2, 0, 0, 11},        // 3: b := ForkLazy
	{21888, 10, 4, 135, 14},   // 4: b copies the same path, reading what a armed
	{1100, 13, 5, 0, 14},      // 5: b touches two more groups of its copy
	{3272, 112, 14, 0, 14},    // 6: a's 40-page range
	{816, 2, 0, 0, 15},        // 7: c := b.ForkLazy
	{34996, 137, 129, 11, 18}, // 8: c copies b's copy of the leaf
	{24368, 25, 5, 128, 22},   // 9: b copies its own, and its root c froze
	{2252, 35, 3, 6, 23},      // 10: a's range over the holed leaf
	{2228, 14, 4, 4, 24},      // 11: the parent's lookup, then b copies the holed leaf
	{14364, 26, 19, 63, 15},   // 12: a exits
	{9176, 16, 5, 60, 11},     // 13: c exits
	{16200, 43, 6, 65, 0},     // 14: b and the parent exit
}

// costScript runs the script on tr (an empty tree on a three-core machine)
// and returns each step's cost.
func costScript(t *testing.T, m *hw.Machine, rc *refcache.Refcache, tr *Tree[val]) []scriptStep {
	t.Helper()
	c0, c1, c2 := m.CPU(0), m.CPU(1), m.CPU(2)
	// The hooks are the VM layer's in miniature: the copy is marked, and so
	// is the source the first time it is copied (as vm's OnDiverge arms COW).
	tr.OnDiverge(markSource)
	tr.OnRelease(func(*hw.CPU, uint64, uint64, *val) {})

	full, sparse, holed := 8*span(1), 9*span(1), 11*span(1)
	touch := func(tt *Tree[val], c *hw.CPU, vpn uint64) {
		r := tt.LockPage(c, vpn)
		e := r.Entry(0)
		if v := e.Value(); v != nil {
			v.x++
			e.Set(v)
		}
		r.Unlock()
	}
	r := tr.LockRange(c0, full, full+span(1))
	r.Entry(0).SetClone(&val{x: 1})
	r.Unlock()
	for v := full; v < full+span(1); v++ {
		touch(tr, c0, v)
	}
	for _, off := range []uint64{0, 5, 6, 300, 511} {
		setPage(tr, c0, sparse+off, int(off))
	}
	clearRange(tr, c0, sparse+300, sparse+301)
	r = tr.LockRange(c0, holed, holed+span(1))
	r.Entry(0).SetClone(&val{x: 2})
	r.Unlock()
	for _, off := range []uint64{3, 64, 65, 510} {
		touch(tr, c0, holed+off)
	}
	clearRange(tr, c0, holed+64, holed+65)
	quiesce(rc)

	trees := []*Tree[val]{tr}
	var a, b, c *Tree[val]
	var steps []scriptStep
	var last scriptStep
	step := func(fn func()) {
		fn()
		var now scriptStep
		for i := 0; i < m.NCores(); i++ {
			now.Cycles += m.CPU(i).Now()
		}
		st := m.TotalStats()
		now.Hits, now.Cold, now.Xfers = st.LocalHits, st.ColdMisses, st.Transfers
		d := scriptStep{now.Cycles - last.Cycles, now.Hits - last.Hits, now.Cold - last.Cold, now.Xfers - last.Xfers, 0}
		for _, tt := range trees {
			d.Nodes += tt.NodesLive()
		}
		last = now
		steps = append(steps, d)
	}
	step(func() {}) // the baseline row, dropped below

	step(func() { a = tr.ForkLazy(c0); trees = append(trees, a) })
	step(func() { touch(a, c1, full+7) }) // path copy down to the full leaf
	step(func() { b = tr.ForkLazy(c0); trees = append(trees, b) })
	step(func() { touch(b, c2, full+7) }) // the same leaf, copied a second time
	step(func() { touch(b, c2, full+8); touch(b, c2, full+100) })
	step(func() { // a 40-page range in a's copy
		r := a.LockRange(c1, full+30, full+70)
		for i := range r.Entries() {
			r.Entry(i).SetClone(&val{x: 7})
		}
		r.Unlock()
	})
	step(func() { c = b.ForkLazy(c2); trees = append(trees, c) }) // b's leaf copy: three groups touched
	step(func() { touch(c, c1, full+200) })                       // copied from b's copy
	step(func() { touch(b, c2, full+201) })                       // and b's own side of it
	step(func() {                                                 // a range over the holed leaf: its hole, touched and untouched groups
		r := a.LockRange(c1, holed+60, holed+70)
		for i := range r.Entries() {
			r.Entry(i).SetClone(&val{x: 8})
		}
		r.Unlock()
	})
	step(func() { // the parent's lookup materializes a group in the shared holed leaf
		if tr.Lookup(c0, holed+200) == nil {
			t.Fatal("a page of the shared holed leaf is gone")
		}
		touch(b, c2, holed+3)
	})
	step(func() { a.Release(c1); quiesce(rc) })
	step(func() { c.Release(c1); quiesce(rc) })
	step(func() { b.Release(c2); tr.Release(c0); quiesce(rc) })
	return steps[1:]
}

func TestCostScriptMatchesRecordedParent(t *testing.T) {
	t.Run("NewCopy", func(t *testing.T) {
		m, rc, tr := newTree(3)
		got := costScript(t, m, rc, tr)
		if len(got) != len(costScriptWant) {
			t.Fatalf("script ran %d steps, want %d", len(got), len(costScriptWant))
		}
		for i, g := range got {
			if g != costScriptWant[i] {
				t.Errorf("step %d: cycles/hits/cold/xfers/nodes = %s, recorded %s", i+1, g, costScriptWant[i])
			}
		}
	})
}

func (s scriptStep) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d}", s.Cycles, s.Hits, s.Cold, s.Xfers, s.Nodes)
}
