package mem

import "testing"

// The allocator's host cost on its two paths: a frame that has to be
// created (every fault of a run shorter than the two Refcache epochs a freed
// frame needs to come back) and a frame taken off the core's free list.

// BenchmarkAllocFresh: nothing is ever freed, so every op creates a frame.
func BenchmarkAllocFresh(b *testing.B) {
	m, _, a := newAlloc(1)
	c := m.CPU(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Alloc(c)
	}
	b.StopTimer()
	if a.Created() != int64(b.N) {
		b.Fatalf("%d frames created in %d ops", a.Created(), b.N)
	}
}

// BenchmarkAllocRecycled: one op allocates a frame and drops it again; every
// 256 ops Refcache runs the epochs that return the dropped frames to the
// free list (inside the timer: it is part of what recycling costs).
func BenchmarkAllocRecycled(b *testing.B) {
	m, rc, a := newAlloc(1)
	c := m.CPU(0)
	const batch = 256
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			a.DecRef(c, a.Alloc(c))
			if i%batch == batch-1 {
				quiesce(rc)
			}
		}
	}
	cycle(2 * batch) // the free list, review queue and delta cache have their storage
	created := a.Created()
	b.ReportAllocs()
	b.ResetTimer()
	cycle(b.N)
	b.StopTimer()
	if a.Created() != created {
		b.Fatalf("%d frames created while recycling", a.Created()-created)
	}
}
