package mem

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"radixvm/internal/hw"
	"radixvm/internal/refcache"
)

func newAlloc(ncores int) (*hw.Machine, *refcache.Refcache, *Allocator) {
	m := hw.NewMachine(hw.TestConfig(ncores))
	rc := refcache.New(m)
	return m, rc, NewAllocator(m, rc)
}

func quiesce(rc *refcache.Refcache) {
	for i := 0; i < 6; i++ {
		rc.FlushAll()
	}
}

func TestAllocRefcountedLifecycle(t *testing.T) {
	m, rc, a := newAlloc(2)
	c := m.CPU(0)
	f := a.Alloc(c)
	if f.PFN == 0 && a.Created() != 1 {
		t.Fatalf("unexpected first frame: %+v", f)
	}
	if a.Live() != 1 {
		t.Fatalf("Live = %d", a.Live())
	}
	a.IncRef(c, f)
	a.DecRef(c, f)
	a.DecRef(c, f) // drops to zero
	quiesce(rc)
	if a.Live() != 0 {
		t.Fatalf("frame not reclaimed: Live = %d", a.Live())
	}
}

// TestConcurrentAllocByPFN: frames created on several cores at once must
// each be the frame ByPFN returns for their PFN — the baselines recover
// the frame to DecRef from the PFN in a page-table entry, so a registry
// out of PFN order sends that DecRef to some other frame for good.
func TestConcurrentAllocByPFN(t *testing.T) {
	const ncores, perCore = 8, 500
	m, _, a := newAlloc(ncores)
	frames := make([][]*Frame, ncores)
	var wg sync.WaitGroup
	for i := 0; i < ncores; i++ {
		wg.Add(1)
		go func(c *hw.CPU) {
			defer wg.Done()
			for k := 0; k < perCore; k++ {
				frames[c.ID()] = append(frames[c.ID()], a.Alloc(c))
			}
		}(m.CPU(i))
	}
	wg.Wait()
	for id, fs := range frames {
		for _, f := range fs {
			if got := a.ByPFN(f.PFN); got != f {
				t.Fatalf("core %d: ByPFN(%d) returned frame with PFN %d", id, f.PFN, got.PFN)
			}
		}
	}
}

// TestByPFNAcrossChunks: frames are created a chunk at a time; the PFNs on
// both sides of every chunk boundary must find their own frame, the ones
// past the last frame created (the rest of its chunk exists, unnumbered)
// nothing.
func TestByPFNAcrossChunks(t *testing.T) {
	m, _, a := newAlloc(2)
	const n = 2*frameChunk + 3
	frames := make([]*Frame, 0, n)
	for i := 0; i < n; i++ {
		f := a.Alloc(m.CPU(i % 2))
		if f.PFN != uint64(i+1) || int(f.Home) != i%2 {
			t.Fatalf("frame %d: PFN %d, Home %d", i, f.PFN, f.Home)
		}
		frames = append(frames, f)
	}
	for _, f := range frames {
		if a.ByPFN(f.PFN) != f {
			t.Fatalf("ByPFN(%d) is not the frame Alloc returned", f.PFN)
		}
	}
	for _, pfn := range []uint64{0, n + 1, 3 * frameChunk, 3*frameChunk + 1, 1 << 40} {
		if f := a.ByPFN(pfn); f != nil {
			t.Errorf("ByPFN(%d) = frame %d, want nil: no such frame was created", pfn, f.PFN)
		}
	}
	if a.Created() != n || a.Live() != n {
		t.Errorf("Created = %d, Live = %d, want %d", a.Created(), a.Live(), n)
	}
}

// TestByPFNAcrossDirectoryBlocks: the chunk directory's second level is
// blocks of dirFan chunks; the frames on both sides of the first block
// boundary find themselves, and the PFN after the last frame nothing.
func TestByPFNAcrossDirectoryBlocks(t *testing.T) {
	m, _, a := newAlloc(1)
	c := m.CPU(0)
	const n = dirFan*frameChunk + 2
	for i := 0; i < n; i++ {
		a.Alloc(c)
	}
	for _, pfn := range []uint64{1, dirFan*frameChunk - 1, dirFan * frameChunk, n - 1, n} {
		if f := a.ByPFN(pfn); f == nil || f.PFN != pfn {
			t.Fatalf("ByPFN(%d) = %v, want its frame", pfn, f)
		}
	}
	if f := a.ByPFN(n + 1); f != nil {
		t.Errorf("ByPFN(%d) = frame %d, want nil", n+1, f.PFN)
	}
}

// TestByPFNWhileFramesAreCreated: ByPFN takes no lock, so a reader racing
// the frames' creation must find every frame Created already counts, whole.
func TestByPFNWhileFramesAreCreated(t *testing.T) {
	m, _, a := newAlloc(2)
	const n = 5 * frameChunk
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			a.Alloc(m.CPU(1))
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for pfn := uint64(1); pfn <= uint64(a.Created()); pfn++ {
			if f := a.ByPFN(pfn); f == nil || f.PFN != pfn || f.Home != 1 {
				t.Fatalf("ByPFN(%d) = %+v while frames were being created", pfn, f)
			}
		}
	}
}

// TestFramesNeverMove: page tables, free lists and refcache objects all hold
// *Frame, so a frame's address must survive any amount of later growth.
func TestFramesNeverMove(t *testing.T) {
	m, _, a := newAlloc(1)
	c := m.CPU(0)
	early := []*Frame{a.Alloc(c), a.Alloc(c)}
	early[0].Data()[0] = 42
	for i := 0; i < 10000; i++ {
		a.Alloc(c)
	}
	for i, f := range early {
		if got := a.ByPFN(uint64(i + 1)); got != f || f.PFN != uint64(i+1) {
			t.Fatalf("frame %d moved: Alloc returned %p, ByPFN now returns %p", i+1, f, got)
		}
	}
	if early[0].Data()[0] != 42 || early[0].obj.Freed() {
		t.Error("an early frame lost its state to later allocations")
	}
}

func TestFrameReuseFromLocalFreeList(t *testing.T) {
	m, rc, a := newAlloc(2)
	c := m.CPU(0)
	f := a.Alloc(c)
	pfn := f.PFN
	a.DecRef(c, f)
	quiesce(rc)
	g := a.Alloc(c)
	if g.PFN != pfn {
		t.Errorf("frame not reused from local list: pfn %d vs %d", g.PFN, pfn)
	}
	if a.Created() != 1 {
		t.Errorf("Created = %d, want 1", a.Created())
	}
}

func TestZeroingCostCharged(t *testing.T) {
	m, _, a := newAlloc(1)
	c := m.CPU(0)
	before := c.Now()
	a.Alloc(c)
	if got := c.Now() - before; got < m.Config().PageZero {
		t.Errorf("alloc cost %d < page zero cost %d", got, m.Config().PageZero)
	}
	if c.Stats().PagesZeroed != 1 {
		t.Errorf("PagesZeroed = %d", c.Stats().PagesZeroed)
	}
}

func TestDataLazyMaterialization(t *testing.T) {
	m, _, a := newAlloc(1)
	f := a.Alloc(m.CPU(0))
	if f.data != nil {
		t.Fatal("data materialized eagerly")
	}
	d := f.Data()
	if len(d) != PageSize {
		t.Fatalf("data len %d", len(d))
	}
	d[0] = 7
	if f.Data()[0] != 7 {
		t.Fatal("data not stable across calls")
	}
}

func TestCrossCoreFreeReturnsHome(t *testing.T) {
	m, rc, a := newAlloc(2)
	home, away := m.CPU(0), m.CPU(1)
	f := a.Alloc(home)
	pfn := f.PFN
	// Hand the page to core 1, which drops the last reference.
	a.IncRef(away, f)
	a.DecRef(home, f)
	a.DecRef(away, f)
	quiesce(rc)
	if a.Live() != 0 {
		t.Fatalf("not reclaimed: Live=%d", a.Live())
	}
	// The frame must be on core 0's list: core 0 reuses it, core 1 gets
	// a fresh frame.
	g := a.Alloc(home)
	if g.PFN != pfn {
		t.Errorf("frame did not return home: got pfn %d, want %d", g.PFN, pfn)
	}
}

func TestLocalAllocFreeNoSharedTraffic(t *testing.T) {
	// A core allocating and freeing its own pages must induce no line
	// transfers (the local microbenchmark's memory behaviour).
	m, rc, a := newAlloc(4)
	c := m.CPU(3)
	// Warm-up: create the frame and let refcache churn settle.
	f := a.Alloc(c)
	a.DecRef(c, f)
	quiesce(rc)
	m.ResetStats()
	for i := 0; i < 100; i++ {
		f := a.Alloc(c)
		a.DecRef(c, f)
	}
	if tr := m.TotalStats().Transfers; tr != 0 {
		t.Errorf("local alloc/free caused %d transfers", tr)
	}
}

// TestAllocRecycledFrameZeroAlloc verifies the embedded-Obj design: once a
// frame exists on the free list, the allocate → release → reclaim cycle
// reinitializes the frame's embedded reference count in place and touches
// the heap not at all.
func TestAllocRecycledFrameZeroAlloc(t *testing.T) {
	m := hw.NewMachine(hw.TestConfig(1))
	rc := refcache.New(m)
	a := NewAllocator(m, rc)
	c := m.CPU(0)
	// Warm: create the frame and run one full reclaim cycle so the free
	// list, review queue, and delta cache have their capacity.
	f := a.Alloc(c)
	a.DecRef(c, f)
	for i := 0; i < 3; i++ {
		rc.FlushAll()
	}
	got := testing.AllocsPerRun(200, func() {
		f := a.Alloc(c)
		if f.obj.Freed() {
			t.Fatal("recycled frame has no live count")
		}
		a.DecRef(c, f)
		for i := 0; i < 3; i++ {
			rc.FlushAll()
		}
	})
	if got != 0 {
		t.Errorf("recycled Alloc/DecRef/reclaim cycle = %v allocs/op, want 0", got)
	}
	if created := a.Created(); created != 1 {
		t.Errorf("Created = %d, want 1 (every cycle reused the same frame)", created)
	}
}

// A released frame's count is dead until the frame's next Alloc: a count
// adjusted on it is a use-after-free, and it must panic under refcache's
// name for it rather than revive the count or corrupt another frame's.
func TestRefOnReleasedFramePanics(t *testing.T) {
	m, rc, a := newAlloc(2)
	f := a.Alloc(m.CPU(0))
	a.DecRef(m.CPU(0), f)
	quiesce(rc)
	if a.Live() != 0 {
		t.Fatal("setup: frame not released")
	}
	for name, op := range map[string]func(){
		"IncRef": func() { a.IncRef(m.CPU(1), f) },
		"DecRef": func() { a.DecRef(m.CPU(1), f) },
	} {
		func() {
			defer func() {
				const want = "refcache: Inc/Dec on dead object (core 1)"
				if got := recover(); got != want {
					t.Errorf("%s on a released frame: panic %v, want %q", name, got, want)
				}
			}()
			op()
		}()
	}
}

// Every fault of a short run can create a frame, so a frame's size is most
// of what such a run allocates on the host.
func TestFrameStaysSmall(t *testing.T) {
	if size := unsafe.Sizeof(Frame{}); size > 224 {
		t.Errorf("Frame is %d bytes, want <= 224", size)
	}
	if size := unsafe.Sizeof(refcache.Obj{}); size > 152 {
		t.Errorf("refcache.Obj is %d bytes, want <= 152", size)
	}
}

// A chunk of frames is billed at its runtime size class, malloc header
// included: a field that grows Frame can tip a chunk into the next class
// and bill every frame for bytes it never uses. The heap bytes a run of
// fresh frames costs must stay within 2 % of the frames themselves.
func TestFrameChunkFillsItsSizeClass(t *testing.T) {
	m, _, a := newAlloc(1)
	c := m.CPU(0)
	const n = 64 * frameChunk
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		a.Alloc(c)
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / n
	if size := float64(unsafe.Sizeof(Frame{})); perFrame > 1.02*size {
		t.Errorf("a fresh frame costs %.1f heap bytes, want <= %.1f (1.02 x its %.0f-byte size)", perFrame, 1.02*size, size)
	}
}
