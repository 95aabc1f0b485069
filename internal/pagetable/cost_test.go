package pagetable

import (
	"reflect"
	"testing"
	"unsafe"

	"radixvm/internal/hw"
)

// TestCostScriptMatchesRecording pins the table's virtual cost below the
// figure level: a fixed stream of operations from two cores on different
// sockets, with every step's cycle charge, both cores' final coherence
// counters and the node count compared against values recorded from the
// representation this one replaced (one 4 KB entry array per node, one
// lazily allocated hw.Line per touched line; the tree before PR 17). How a node is
// stored on the host may change again; these numbers may not, short of a
// declared re-baseline of every figure. The stream reads absent entries on
// touched and on never-touched lines on purpose: such a read must leave the
// line cached at the reader, or the next core to touch it is undercharged.
func TestCostScriptMatchesRecording(t *testing.T) {
	m := hw.NewMachine(hw.TestConfig(12)) // cores 0 and 11: two sockets
	pt := New(m)
	a, b := m.CPU(0), m.CPU(11)

	const (
		v0   = uint64(0x12345) // entry 5 of its line
		far  = v0 + 1<<30      // a different entry of the root
		edge = uint64(0x20000) // first page of a leaf
	)
	var got []uint64
	step := func(c *hw.CPU, op func()) {
		before := c.Now()
		op()
		got = append(got, c.Now()-before)
	}
	expect := func(ok bool, what string) {
		t.Helper()
		if !ok {
			t.Errorf("step %d: %s", len(got), what)
		}
	}

	step(a, func() { pt.Map(a, v0, 7, PermR|PermW) })
	step(a, func() { _, ok := pt.Lookup(a, v0); expect(ok, "Lookup of a mapped page missed") })
	step(b, func() {
		pte, ok := pt.Lookup(b, v0)
		expect(ok && pte.PFN == 7, "remote Lookup of a mapped page missed")
	})
	// Absent entries: on the line v0's PTE made hot, on a line of the same
	// leaf nothing has touched, and under an interior entry nothing has
	// touched — each then repeated from the other core.
	step(b, func() { _, ok := pt.Lookup(b, v0+1); expect(!ok, "hit on an absent entry of a touched line") })
	step(b, func() { _, ok := pt.Lookup(b, v0+16); expect(!ok, "hit on a never-touched line") })
	step(a, func() { _, ok := pt.Lookup(a, v0+16); expect(!ok, "hit on a line only read so far") })
	step(a, func() { _, ok := pt.Lookup(a, far); expect(!ok, "hit under a never-touched root entry") })
	step(b, func() { _, ok := pt.Lookup(b, far); expect(!ok, "hit under a root entry only read so far") })
	// Two faulters on one page: the second finds it mapped.
	step(a, func() { expect(pt.Walker().MapIfAbsent(a, v0+3, 8, PermR), "MapIfAbsent of an absent page lost") })
	step(b, func() { expect(!pt.Walker().MapIfAbsent(b, v0+3, 9, PermR), "MapIfAbsent of a present page won") })
	// Two COW breakers on one page: the second's old PTE is stale.
	old, _ := pt.Peek(v0)
	step(b, func() { expect(pt.Walker().Replace(b, v0, old, 9, PermR), "Replace from the current PTE lost") })
	step(a, func() { expect(!pt.Walker().Replace(a, v0, old, 10, PermR), "Replace from a stale PTE won") })
	step(a, func() { expect(!pt.Walker().Replace(a, far, old, 10, PermR), "Replace with no leaf won") })
	// Four pages across a leaf boundary, then the range operations over them.
	for v := edge - 2; v < edge+2; v++ {
		step(a, func() { pt.Map(a, v, v, PermR|PermW) })
	}
	step(b, func() { expect(pt.ProtectRange(b, edge-2, edge+2, PermR) == 4, "ProtectRange missed pages") })
	step(a, func() {
		n := 0
		pt.ForEachRange(a, edge-16, edge+16, func(v uint64, pte PTE) {
			expect(pte.PFN == v && pte.Perm == PermR, "ForEachRange saw a wrong PTE")
			n++
		})
		expect(n == 4, "ForEachRange missed pages")
	})
	step(b, func() {
		var pfns []uint64
		n := pt.UnmapRangeFunc(b, edge-10, edge+10, func(_, pfn uint64) { pfns = append(pfns, pfn) })
		expect(n == 4 && reflect.DeepEqual(pfns, []uint64{edge - 2, edge - 1, edge, edge + 1}), "UnmapRangeFunc missed pages")
	})
	step(a, func() { expect(pt.UnmapRange(a, 0, 1<<22) == 2, "sparse UnmapRange missed v0 or v0+3") })
	step(b, func() { expect(!pt.Unmap(b, v0), "Unmap of an unmapped page reported it present") })
	step(b, func() { expect(!pt.Unmap(b, far), "Unmap with no leaf reported a page present") })

	// The cost-free reads, on lines and nodes no walk has reached.
	nodes, at, bt := pt.Nodes(), a.Now(), b.Now()
	for _, v := range []uint64{v0 + 100, 1 << 35, far, edge + 100} {
		_, ok := pt.Peek(v)
		expect(!ok, "Peek hit on a never-touched line")
	}
	expect(pt.Nodes() == nodes && a.Now() == at && b.Now() == bt, "Peek charged cycles or allocated nodes")

	// Recorded from the parent representation (see above).
	want := []uint64{812, 16, 1400, 16, 212, 312, 200, 300, 212, 312, 312, 312, 4, 412, 16, 412, 16, 1248, 1796, 1104, 142112, 312, 4}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("per-step cycles moved:\n got %v\nwant %v", got, want)
	}
	type counters struct{ LocalHits, ColdMisses, Transfers, CrossSocket uint64 }
	count := func(c *hw.CPU) counters {
		s := c.Stats()
		return counters{s.LocalHits, s.ColdMisses, s.Transfers, s.CrossSocket}
	}
	if got, want := count(a), (counters{22933, 259, 10, 9}); got != want {
		t.Errorf("core 0 counters = %+v, recorded %+v", got, want)
	}
	if got, want := count(b), (counters{105, 1, 16, 14}); got != want {
		t.Errorf("core 11 counters = %+v, recorded %+v", got, want)
	}
	if got, want := a.Now(), uint64(146632); got != want {
		t.Errorf("core 0 clock = %d, recorded %d", got, want)
	}
	if got, want := b.Now(), uint64(5220); got != want {
		t.Errorf("core 11 clock = %d, recorded %d", got, want)
	}
	if pt.Nodes() != 6 || pt.Bytes() != 6*NodeBytes {
		t.Errorf("Nodes = %d, Bytes = %d; recorded 6 nodes of %d simulated bytes each", pt.Nodes(), pt.Bytes(), NodeBytes)
	}
}

// TestConcurrentFirstTouchOfOneLine: eight cores write the eight entries of
// one never-touched line, interleaved, over and over on fresh lines. All
// eight entries must land in the line's one block, and the line is charged
// as one line — one cold miss, whoever gets there first.
func TestConcurrentFirstTouchOfOneLine(t *testing.T) {
	const ncores, nleaves = slotsPerLine, 4
	m, pt := newPT(ncores)
	for leaf := uint64(0); leaf < nleaves; leaf++ {
		pt.Map(m.CPU(0), leaf*EntriesPerNode, 1, PermR) // the leaf exists, with line 0 touched
	}
	cold := m.TotalStats().ColdMisses

	for li := uint64(0); li < nleaves*linesPerNode; li++ {
		if li%linesPerNode == 0 {
			continue
		}
		hw.RunGang(m, ncores, li, func(c *hw.CPU, _ *hw.Gang) {
			vpn := li*slotsPerLine + uint64(c.ID())
			pt.Map(c, vpn, vpn+1, PermW)
		})
		for i := uint64(0); i < ncores; i++ {
			vpn := li*slotsPerLine + i
			if pte, ok := pt.Peek(vpn); !ok || pte.PFN != vpn+1 {
				t.Fatalf("line %d (seed %d): entry %d = %+v, %v after a concurrent first touch", li, li, i, pte, ok)
			}
		}
	}
	if got, want := m.TotalStats().ColdMisses-cold, uint64(nleaves*(linesPerNode-1)); got != want {
		t.Errorf("%d first-touched lines charged %d cold misses", want, got)
	}
}

// TestConcurrentFirstTouchOfTwoLines: eight cores write into two
// never-touched lines of a fresh node, interleaved, four to each, so the
// two lines race for the node's inline slot and the loser's writers build
// the directory and its block. Exactly one line must end up inline and the
// other in the directory, every entry must land, and the node is charged
// two cold misses — one per line, whoever wins.
func TestConcurrentFirstTouchOfTwoLines(t *testing.T) {
	const ncores = slotsPerLine
	m, pt := newPT(ncores)
	leaves := make([]*leaf, linesPerNode)
	for r := range leaves {
		leaves[r] = pt.Walker().walk(m.CPU(0), uint64(r)*EntriesPerNode, true) // the leaf exists, untouched
	}
	cold := m.TotalStats().ColdMisses

	for r, n := range leaves {
		a, b := r, linesPerNode-1-r // distinct: linesPerNode is even
		vpn := func(i int) uint64 {
			li := a
			if i%2 == 1 {
				li = b
			}
			return uint64(r*EntriesPerNode + li*slotsPerLine + i/2)
		}
		hw.RunGang(m, ncores, uint64(r), func(c *hw.CPU, _ *hw.Gang) {
			pt.Map(c, vpn(c.ID()), vpn(c.ID())+1, PermW)
		})
		for i := 0; i < ncores; i++ {
			if pte, ok := pt.Peek(vpn(i)); !ok || pte.PFN != vpn(i)+1 {
				t.Fatalf("leaf %d (seed %d): vpn %#x = %+v, %v after a concurrent first touch", r, r, vpn(i), pte, ok)
			}
		}
		inline, d := int(n.at)-1, n.dir
		other := a + b - inline
		if inline != a && inline != b {
			t.Fatalf("leaf %d: line %d is inline, want %d or %d", r, inline, a, b)
		}
		if d == nil || d[inline] != nil || d[other] == nil {
			t.Fatalf("leaf %d: line %d inline, but the directory does not hold exactly line %d", r, inline, other)
		}
	}
	if got, want := m.TotalStats().ColdMisses-cold, uint64(2*len(leaves)); got != want {
		t.Errorf("%d first-touched lines charged %d cold misses", want, got)
	}
}

// TestNodeFillsItsSizeClass: a node with its inline line is exactly 120
// bytes at every level, which the 128-byte size class holds and the
// 112-byte class below it does not. A larger hw.Line or entry would move
// every node of every table into the 144-byte class without failing
// anything else; a smaller one that fits 112 bytes should move this test
// down with it.
func TestNodeFillsItsSizeClass(t *testing.T) {
	const size, class, below = 120, 128, 112
	for name, got := range map[string]uintptr{
		"leaf": unsafe.Sizeof(leaf{}), "dir1": unsafe.Sizeof(dir1{}),
		"dir2": unsafe.Sizeof(dir2{}), "dir3": unsafe.Sizeof(dir3{}),
	} {
		if got != size {
			t.Errorf("%s node is %d B, want %d: more than the %d-byte size class below, at most the %d-byte one", name, got, size, below, class)
		}
	}
}

// TestHostBytesFollowTouchedLines: what a table costs the host tracks the
// lines walks reached, not the 4 KB a simulated node stands for — and a
// fully populated leaf costs no more than it did as a header, one entry
// array and one hw.Line per line.
func TestHostBytesFollowTouchedLines(t *testing.T) {
	m := hw.NewMachine(hw.TestConfig(1))
	c := m.CPU(0)
	var pt *PageTable
	allocs := testing.AllocsPerRun(50, func() {
		pt = New(m)
		pt.Map(c, 1<<20, 1, PermR)
	})
	// The table with its root inline, and three more nodes, each holding
	// its one touched line inline.
	if allocs != Levels {
		t.Errorf("a table holding one page: %v allocations, want %d", allocs, Levels)
	}
	if pt.Nodes() != Levels || pt.Bytes() != Levels*NodeBytes {
		t.Errorf("a table holding one page reports %d nodes, %d B; the simulated table is %d nodes of %d B", pt.Nodes(), pt.Bytes(), Levels, NodeBytes)
	}

	node, block := unsafe.Sizeof(leaf{}), unsafe.Sizeof(line[uint64]{})
	dir := unsafe.Sizeof([linesPerNode]*line[uint64]{})
	if interior := unsafe.Sizeof(line[*leaf]{}); interior != block {
		t.Errorf("interior lines (%d B) differ from leaf ones (%d B)", interior, block)
	}
	if sparse := unsafe.Sizeof(PageTable{}) + (Levels-1)*node; sparse > 528 {
		t.Errorf("a table holding one page is %d B of nodes and lines, want <= 528 B", sparse)
	}
	const was = 568 + NodeBytes + linesPerNode*unsafe.Sizeof(hw.Line{})
	if dense := node + dir + (linesPerNode-1)*block; dense > was {
		t.Errorf("a fully touched node is %d B, more than the %d B of a header, an entry array and %d lines", dense, was, linesPerNode)
	}
}
