package pagetable

import (
	"reflect"
	"sync"
	"sync/atomic"
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
	step(a, func() { expect(pt.MapIfAbsent(a, v0+3, 8, PermR), "MapIfAbsent of an absent page lost") })
	step(b, func() { expect(!pt.MapIfAbsent(b, v0+3, 9, PermR), "MapIfAbsent of a present page won") })
	// Two COW breakers on one page: the second's old PTE is stale.
	old, _ := pt.Peek(v0)
	step(b, func() { expect(pt.Replace(b, v0, old, 9, PermR), "Replace from the current PTE lost") })
	step(a, func() { expect(!pt.Replace(a, v0, old, 10, PermR), "Replace from a stale PTE won") })
	step(a, func() { expect(!pt.Replace(a, far, old, 10, PermR), "Replace with no leaf won") })
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
	_, ok := pt.Peek(v0 + 100)
	expect(!ok && !pt.Present(1<<35) && !pt.Present(far) && !pt.Present(edge+100), "Peek/Present hit on a never-touched line")
	expect(pt.Nodes() == nodes && a.Now() == at && b.Now() == bt, "Peek/Present charged cycles or allocated nodes")

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
// one never-touched line at once, over and over on fresh lines. Whichever
// core's block wins the installation, all eight entries must land in it: an
// entry stored into a losing block would simply vanish. The line is charged
// as one line — one cold miss, whoever gets there first.
func TestConcurrentFirstTouchOfOneLine(t *testing.T) {
	const ncores, nleaves = slotsPerLine, 4
	m, pt := newPT(ncores)
	for leaf := uint64(0); leaf < nleaves; leaf++ {
		pt.Map(m.CPU(0), leaf*EntriesPerNode, 1, PermR) // the leaf exists, with line 0 touched
	}
	cold := m.TotalStats().ColdMisses

	var start, done sync.WaitGroup
	for li := uint64(0); li < nleaves*linesPerNode; li++ {
		if li%linesPerNode == 0 {
			continue
		}
		start.Add(1)
		for i := 0; i < ncores; i++ {
			done.Add(1)
			go func(c *hw.CPU, vpn uint64) {
				defer done.Done()
				start.Wait()
				pt.Map(c, vpn, vpn+1, PermW)
			}(m.CPU(i), li*slotsPerLine+uint64(i))
		}
		start.Done()
		done.Wait()
		for i := uint64(0); i < ncores; i++ {
			vpn := li*slotsPerLine + i
			if pte, ok := pt.Peek(vpn); !ok || pte.PFN != vpn+1 {
				t.Fatalf("line %d: entry %d = %+v, %v after a concurrent first touch", li, i, pte, ok)
			}
		}
	}
	if got, want := m.TotalStats().ColdMisses-cold, uint64(nleaves*(linesPerNode-1)); got != want {
		t.Errorf("%d first-touched lines charged %d cold misses", want, got)
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
	// The table, its four nodes, one touched line in each.
	if allocs != 1+2*Levels {
		t.Errorf("a table holding one page: %v allocations, want %d", allocs, 1+2*Levels)
	}
	if pt.Nodes() != Levels || pt.Bytes() != Levels*NodeBytes {
		t.Errorf("a table holding one page reports %d nodes, %d B; the simulated table is %d nodes of %d B", pt.Nodes(), pt.Bytes(), Levels, NodeBytes)
	}

	header, block := unsafe.Sizeof(leaf{}), unsafe.Sizeof(line[atomic.Uint64]{})
	if interior := unsafe.Sizeof(line[atomic.Pointer[leaf]]{}); interior != block || unsafe.Sizeof(dir1{}) != header {
		t.Errorf("interior nodes and lines (%d, %d B) differ from leaf ones (%d, %d B)", unsafe.Sizeof(dir1{}), interior, header, block)
	}
	if sparse := Levels * (header + block); sparse > 2560 {
		t.Errorf("a table holding one page is %d B of nodes and lines, want <= 2.5 KB", sparse)
	}
	const was = 568 + NodeBytes + linesPerNode*unsafe.Sizeof(hw.Line{})
	if dense := header + linesPerNode*block; dense > was {
		t.Errorf("a fully touched node is %d B, more than the %d B of a header, an entry array and %d lines", dense, was, linesPerNode)
	}
}
