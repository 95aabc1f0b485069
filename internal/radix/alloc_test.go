package radix

import (
	"testing"
	"unsafe"

	"radixvm/internal/hw"
)

// Allocation budgets for the tree's hot paths. These are regression guards:
// the pagefault and mmap paths are called millions of times per benchmark,
// and the seed version of this package allocated ~28 KB per expanded node
// and a pinned-node slice per lookup, which dominated both CPU and GC time.

// TestLookupZeroAlloc locks down Lookup = 0 allocs/op, on hits at every
// depth and on misses.
func TestLookupZeroAlloc(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)

	setRange(tr, c, 42, 43, &val{7})             // deep leaf path
	setRange(tr, c, 512, 1024, &val{9})          // folded interior
	setRange(tr, c, span(3), span(3)*2, &val{1}) // root-level fold

	cases := []struct {
		name string
		vpn  uint64
	}{
		{"leaf", 42},
		{"folded", 700},
		{"root-fold", span(3) + 12345},
		{"miss", 99_999},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(200, func() { tr.Lookup(c, tc.vpn) }); got != 0 {
			t.Errorf("Lookup(%s) = %v allocs/op, want 0", tc.name, got)
		}
	}
}

// TestLockPageSteadyStateAllocs bounds the pagefault path: once the leaf
// exists, LockPage + Value + Set + Unlock may allocate at most the one
// immutable slotState that Set swaps in (zero when the value is unchanged;
// see TestFaultPathZeroAlloc).
func TestLockPageSteadyStateAllocs(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	setRange(tr, c, 100, 101, &val{5})
	v := &val{6}
	got := testing.AllocsPerRun(200, func() {
		r := tr.LockPage(c, 100)
		if r.Entry(0).Value() == nil {
			t.Fatal("page lost")
		}
		r.Entry(0).Set(v)
		r.Unlock()
	})
	if got > 1 {
		t.Errorf("steady-state LockPage+Set+Unlock = %v allocs/op, want <= 1", got)
	}
}

// TestFaultPathZeroAlloc locks down the index half of the page-fault path
// at exactly zero allocations: lock the page, read its metadata, update it
// in place, store it back, unlock. Set recognizes the unchanged value
// pointer and reuses the slot's immutable state, so the fill-fault path —
// millions of ops in the Figure 5 benchmarks — never touches the heap.
func TestFaultPathZeroAlloc(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	setRange(tr, c, 2048, 2064, &val{1})
	// Fault each page once so leaves exist and groups are materialized.
	for vpn := uint64(2048); vpn < 2064; vpn++ {
		r := tr.LockPage(c, vpn)
		r.Entry(0).Set(r.Entry(0).Value())
		r.Unlock()
	}
	vpn := uint64(2048)
	got := testing.AllocsPerRun(300, func() {
		r := tr.LockPage(c, vpn)
		e := r.Entry(0)
		v := e.Value()
		if v == nil {
			t.Fatal("page lost")
		}
		v.x++    // update metadata in place, as PageFault does
		e.Set(v) // unchanged pointer: no slot-state allocation
		r.Unlock()
		vpn = 2048 + (vpn+1)%16
	})
	if got != 0 {
		t.Errorf("fault-path lock/read/update/unlock = %v allocs/op, want 0", got)
	}
}

// TestNodeFootprintUniformVsDiverged is the bytes-per-node accounting test
// for the copy-on-diverge representation: a fault-path chain node (diverged
// in a single slot) must cost a small fraction of the fully materialized
// node, which in turn is what the pre-lazy representation paid for every
// node. The thresholds encode the ROADMAP's ~4x live-set claim with slack.
func TestNodeFootprintUniformVsDiverged(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	// Expand a folded root-level range down to one leaf: the paper's
	// fault path, producing a chain of singly-diverged nodes.
	setRange(tr, c, 0, span(2), &val{7})
	r := tr.LockPage(c, 1234)
	leaf := r.Entry(0).n
	r.Entry(0).Set(r.Entry(0).Value())
	r.Unlock()

	nodeSz := int64(unsafe.Sizeof(node[val]{}))
	groupSz := int64(unsafe.Sizeof(slotGroup[val]{}))
	eager := nodeSz + int64(groupsPerNode)*groupSz // what every node used to cost

	compact := nodeSz + countGroups(leaf)*groupSz
	if compact*4 > eager {
		t.Errorf("chain-node footprint %d B not 4x below eager %d B (%d groups materialized)",
			compact, eager, countGroups(leaf))
	}

	// Touch every slot of the leaf: full divergence materializes every
	// group and converges to the eager footprint.
	for i := 0; i < SlotsPerNode; i++ {
		tr.Lookup(c, leaf.base+uint64(i))
	}
	if got := countGroups(leaf); got != int64(groupsPerNode) {
		t.Fatalf("fully touched leaf materialized %d groups, want %d", got, groupsPerNode)
	}

	// The tree-wide estimate must track the same accounting.
	if fp := tr.FootprintBytes(); fp < uint64(eager) || fp > uint64(tr.NodesLive())*uint64(eager) {
		t.Errorf("FootprintBytes = %d, outside [%d, %d]", fp, eager, tr.NodesLive()*eager)
	}
	if tr.GroupsEver() < int64(groupsPerNode) {
		t.Errorf("GroupsEver = %d, want >= %d after full divergence", tr.GroupsEver(), groupsPerNode)
	}
}

// TestGroupDirectoryCompression: the presence-bitmap + dense-slice group
// directory must cut the uniform node header ~4x against the former
// 128-entry pointer array (which was ~1 KB of the ~1.2 KB header), and
// FootprintBytes must account exactly for headers plus materialized groups
// with their dense directory entries.
func TestGroupDirectoryCompression(t *testing.T) {
	ptrSz := uint64(unsafe.Sizeof(uintptr(0)))
	nodeSz := uint64(unsafe.Sizeof(node[val]{}))
	oldHeader := nodeSz + uint64(groupsPerNode)*ptrSz // header with the pointer-array directory
	if nodeSz*4 > oldHeader {
		t.Errorf("node header = %d B, want >= 4x below the pointer-array header's %d B", nodeSz, oldHeader)
	}

	// Build the fault-path chain (nodes diverged in a slot or two): the
	// real footprint including materialized groups must now undercut what
	// bitmap-less headers alone used to cost.
	m, _, tr := newTree(1)
	c := m.CPU(0)
	setRange(tr, c, 0, span(2), &val{7})
	r := tr.LockPage(c, 1234)
	r.Entry(0).Set(r.Entry(0).Value())
	r.Unlock()
	fp := tr.FootprintBytes()
	if headersOnly := uint64(tr.NodesLive()) * oldHeader; fp >= headersOnly {
		t.Errorf("chain footprint %d B (groups included) not below the old headers-only cost %d B", fp, headersOnly)
	}
	// The estimate is exact: headers + (group + one directory pointer) each.
	groupSz := uint64(unsafe.Sizeof(slotGroup[val]{})) + ptrSz
	var liveGroups uint64
	// GroupsEver counts fresh materializations; nothing has been freed or
	// dropped in this tree, so it equals the live count.
	liveGroups = uint64(tr.GroupsEver())
	if want := uint64(tr.NodesLive())*nodeSz + liveGroups*groupSz; fp != want {
		t.Errorf("FootprintBytes = %d, want %d (%d nodes, %d groups)", fp, want, tr.NodesLive(), liveGroups)
	}
}

// TestLockRangeSteadyStateAllocs bounds the mmap/munmap path: re-mapping an
// existing small range must allocate only the per-entry slot states.
func TestLockRangeSteadyStateAllocs(t *testing.T) {
	m, _, tr := newTree(1)
	c := m.CPU(0)
	const lo, hi = 2048, 2056 // 8 pages, one leaf node
	setRange(tr, c, lo, hi, &val{1})
	v := &val{2}
	got := testing.AllocsPerRun(200, func() {
		r := tr.LockRange(c, lo, hi)
		for i := range r.Entries() {
			r.Entry(i).Set(v)
		}
		r.Unlock()
	})
	if got > float64(hi-lo) {
		t.Errorf("steady-state LockRange cycle = %v allocs/op, want <= %d (one state per entry)", got, hi-lo)
	}
}

// TestNodePoolRecycles verifies that reclaimed nodes land on the freeing
// CPU's pool and that subsequent expansions consume them instead of
// heap-allocating.
func TestNodePoolRecycles(t *testing.T) {
	m, rc, tr := newTree(1)
	c := m.CPU(0)
	setRange(tr, c, 1000, 1010, &val{3})
	clearRange(tr, c, 1000, 1010)
	quiesce(rc)
	pooled := tr.PoolSize(c)
	if pooled == 0 {
		t.Fatal("no nodes recycled after reclamation")
	}
	setRange(tr, c, 1000, 1010, &val{4})
	if got := tr.PoolSize(c); got >= pooled {
		t.Errorf("pool not consumed on re-expansion: %d -> %d", pooled, got)
	}
	if got := tr.Lookup(c, 1005); got == nil || got.x != 4 {
		t.Fatalf("recycled node lost mapping: %v", got)
	}
}

// TestConcurrentFoldExpandLookup races folded-range expansion (plain-store
// node construction, bulk lock-bit propagation, pool recycling) against
// lock-free lookups, for the race detector's benefit.
func TestConcurrentFoldExpandLookup(t *testing.T) {
	const ncores = 4
	m, rc, tr := newTree(ncores)
	hw.RunGang(m, ncores, func(c *hw.CPU, g *hw.Gang) {
		if c.ID() == 0 {
			for k := 0; k < 150; k++ {
				setRange(tr, c, 0, 1024, &val{k}) // folds two interior slots
				r := tr.LockPage(c, 513)          // expands one fold to a leaf
				if v := r.Entry(0).Value(); v == nil || v.x != k {
					t.Errorf("expanded page = %v, want %d", v, k)
				}
				r.Unlock()
				clearRange(tr, c, 0, 1024)
				rc.Maintain(c)
				g.Sync(c)
			}
			return
		}
		for k := 0; k < 150; k++ {
			for j := uint64(0); j < 16; j++ {
				if v := tr.Lookup(c, j*67%1024); v != nil && v.x < 0 {
					t.Error("torn value")
				}
			}
			rc.Maintain(c)
			g.Sync(c)
		}
	})
}
