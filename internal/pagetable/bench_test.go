package pagetable

import (
	"testing"

	"radixvm/internal/hw"
)

// The page table's host cost, at the two shapes that matter: sparse (a
// forked child's per-core table: built, given a handful of PTEs, dropped)
// and dense (a long-lived table walked over and over).

// BenchmarkPageTableMapSparse: one op builds a table and maps one page in
// it, so B/op is what one core's table costs a forked child before its
// second fault.
func BenchmarkPageTableMapSparse(b *testing.B) {
	m := hw.NewMachine(hw.DefaultConfig(1))
	c := m.CPU(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(m).Map(c, 1<<20, uint64(i), PermR|PermW)
	}
}

var sink PTE

// BenchmarkPageTableLookupDense: hardware walks over one fully populated
// leaf, every line of it hot, through one Walker kept across walks, as both
// MMUs keep one per core.
func BenchmarkPageTableLookupDense(b *testing.B) {
	m := hw.NewMachine(hw.DefaultConfig(1))
	c := m.CPU(0)
	pt := New(m)
	for v := uint64(0); v < EntriesPerNode; v++ {
		pt.Map(c, v, v, PermR)
	}
	w := pt.Walker()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, _ = w.Lookup(c, uint64(i)%EntriesPerNode)
	}
}

// BenchmarkPageTableUnmapRange16: the munmap shape. One op maps 16
// consecutive pages of a long-lived table and clears them with one
// UnmapRange.
func BenchmarkPageTableUnmapRange16(b *testing.B) {
	m := hw.NewMachine(hw.DefaultConfig(1))
	c := m.CPU(0)
	pt := New(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(i%1024) * 16
		for v := lo; v < lo+16; v++ {
			pt.Map(c, v, v, PermR|PermW)
		}
		if pt.UnmapRange(c, lo, lo+16) != 16 {
			b.Fatal("UnmapRange missed pages it had just mapped")
		}
	}
}

// BenchmarkPageTableUnmapLeaf: the munmap shape over a whole leaf. One op is
// one UnmapRangeFunc over a warmed 512-entry leaf, every line of it hot,
// gathering each frame as munmap does, after a cost-free refill of the
// leaf's entries. The steady state allocates nothing.
func BenchmarkPageTableUnmapLeaf(b *testing.B) {
	m := hw.NewMachine(hw.DefaultConfig(1))
	c := m.CPU(0)
	pt := New(m)
	for v := uint64(0); v < EntriesPerNode; v++ {
		pt.Map(c, v, v, PermR|PermW)
	}
	leaf := peekChild(peekChild(peekChild(&pt.root, 0), 0), 0)
	var gathered uint64
	unmapLeaf := func() {
		for v := range EntriesPerNode {
			*leaf.peek(v) = pack(uint64(v), PermR|PermW)
		}
		pt.UnmapRangeFunc(c, 0, EntriesPerNode, func(_, pfn uint64) { gathered += pfn })
	}
	if unmapLeaf(); gathered != EntriesPerNode*(EntriesPerNode-1)/2 {
		b.Fatalf("UnmapRangeFunc gathered PFNs summing to %d", gathered)
	}
	if n := testing.AllocsPerRun(10, unmapLeaf); n != 0 {
		b.Fatalf("a steady-state leaf unmap allocated %.0f times", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		unmapLeaf()
	}
}

// BenchmarkPageTableCopyLeaf: the baselines' fork copy over one full leaf.
// One op walks a populated 512-entry leaf with ForEachRange and maps every
// entry into a second table through one Walker, so after the first op every
// touch of both walks is a local hit. The steady state allocates nothing.
func BenchmarkPageTableCopyLeaf(b *testing.B) {
	m := hw.NewMachine(hw.DefaultConfig(1))
	c := m.CPU(0)
	src, dst := New(m), New(m)
	for v := uint64(0); v < EntriesPerNode; v++ {
		src.Map(c, v, v, PermR|PermW)
	}
	copyLeaf := func() {
		w := dst.Walker()
		src.ForEachRange(c, 0, EntriesPerNode, func(vpn uint64, pte PTE) {
			w.Map(c, vpn, pte.PFN, pte.Perm&^PermW)
		})
	}
	copyLeaf()
	if n := testing.AllocsPerRun(10, copyLeaf); n != 0 {
		b.Fatalf("a steady-state leaf copy allocated %.0f times", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		copyLeaf()
	}
}
