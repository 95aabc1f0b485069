// Package mem is the physical memory substrate: a page-frame allocator with
// per-core free lists, NUMA home tracking, and Refcache-based frame
// reference counts — the role the research kernel's physical allocator
// plays under RadixVM.
//
// Frames are reference counted because distinct virtual regions may share
// physical pages (fork, shared file mappings); a frame returns to its home
// core's free list when Refcache determines its true count reached zero.
package mem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"radixvm/internal/hw"
	"radixvm/internal/refcache"
)

// PageSize is the machine's base page size in bytes.
const PageSize = 4096

// Frame is one physical page. Its reference count is an embedded
// refcache.Obj; the actual byte contents are allocated lazily (only
// workloads that compute on data, such as Metis, materialize them).
//
// The count is reinitialized (via refcache.InitObj) on each trip through the
// allocator, so allocating a recycled frame touches no heap at all — the
// last allocation on the page-fault path. Frames never hand out weak
// references that outlive a lifetime, which is what makes the reuse sound
// (see InitObj). While the frame sits on a free list its count is dead, so
// a reference count adjusted on it panics as a use-after-free.
//
// A frame is an element of one of the allocator's chunks and never moves or
// goes away once created, so a *Frame held across any number of later Allocs
// stays the frame ByPFN returns for its PFN. Every workload fault can create
// one, so its size is the simulator's main host-memory cost (TestFrameStaysSmall).
type Frame struct {
	PFN  uint64 // physical frame number
	Home int32  // core whose free list owns this frame

	// cowShares counts the copy-on-write mappings currently referencing
	// this frame — the role struct page's mapcount plays in a real COW
	// break. Unlike the reference count it is an eagerly shared atomic,
	// which is fine because it is touched only by fork, COW breaks, and
	// unmaps of still-COW pages, never by the per-access hot path.
	cowShares atomic.Int32

	obj  refcache.Obj    // embedded count, reinitialized per lifetime
	data *[PageSize]byte // lazily materialized contents
	line hw.Line         // the frame's first data line (write tracking)
}

// Data returns the frame's backing bytes, materializing them on first use.
// Only call from the core currently holding a reference.
func (f *Frame) Data() []byte {
	if f.data == nil {
		f.data = new([PageSize]byte)
	}
	return f.data[:]
}

// CopyFrom copies src's materialized contents into f — the data half of a
// COW break. Frames without materialized bytes (most simulated workloads)
// copy nothing; the cycle cost is the caller's to charge. Safe to call
// while other cores also read src (concurrent breakers of one frame), but
// not while anyone writes it — which the COW protocol guarantees, since a
// writer must first finish its own break.
func (f *Frame) CopyFrom(src *Frame) {
	if src.data == nil {
		return
	}
	copy(f.Data(), src.data[:])
}

// AddCOWShares records n more copy-on-write mappings of f (fork: parent and
// child, or just the new child when the parent's mapping was already COW).
// Charged as a write to the frame's line: fork touches every shared frame's
// bookkeeping, exactly as a real fork touches every struct page.
func (f *Frame) AddCOWShares(cpu *hw.CPU, n int32) {
	cpu.Write(&f.line)
	f.cowShares.Add(n)
}

// COWShares returns the number of COW mappings currently referencing f.
func (f *Frame) COWShares() int32 { return f.cowShares.Load() }

// DropCOWShare removes one COW mapping of f (a break that copied the frame
// or took ownership, or an unmap of a still-COW page).
func (f *Frame) DropCOWShare(cpu *hw.CPU) {
	cpu.Write(&f.line)
	f.cowShares.Add(-1)
}

// frameChunk is how many frames the allocator creates at a time. A run
// shorter than the two Refcache epochs a frame needs to recycle creates one
// frame per fault, and one heap object (plus a slot in a reallocating
// pointer slice) per frame was most of what such a run allocated.
//
// A chunk holds pointers, so the Go runtime puts an 8-byte malloc header in
// front of it and bills it at the next size class up. The count fills the
// 16 KiB class: 73 × 224 B + 8 B = 16 360 B of 16 384 (64 frames would
// waste 2 040 B; TestFrameChunkFillsItsSizeClass holds it).
const frameChunk = 73

// dirFan is the fan-out of both levels of the chunk directory: 1024 × 1024
// chunks of 73 frames, 292 GiB of simulated memory.
const dirFan = 1024

// chunkDir is a block of the directory's second level: chunk pointers.
type chunkDir [dirFan]atomic.Pointer[[frameChunk]Frame]

// Allocator hands out reference-counted frames with per-core free lists.
// Frames are created in chunks of frameChunk: a new frame is the next unused
// element of the newest chunk. Chunks are published in a fixed two-level
// directory that is never copied, so frames have stable addresses and ByPFN
// takes no lock.
type Allocator struct {
	m        *hw.Machine
	rc       *refcache.Refcache
	pageZero uint64                       // m.Config().PageZero, hoisted out of Alloc
	freeFn   func(*hw.CPU, *refcache.Obj) // shared free callback (frame in Obj.Data)

	lists []freelist

	allocated atomic.Int64 // live frames
	totals    atomic.Int64 // frames ever created; written under regMu

	// Frame pfn is element (pfn-1)%frameChunk of chunk k = (pfn-1)/frameChunk,
	// which is dir[k/dirFan][k%dirFan]. Frames are created under regMu, and
	// a chunk and its frames' fields are stored before totals counts them,
	// so a reader that loads totals first finds them all in place.
	regMu sync.Mutex
	dir   [dirFan]atomic.Pointer[chunkDir]
}

type freelist struct {
	mu     sync.Mutex
	frames []*Frame
	_      [40]byte // avoid false sharing between cores' lists
}

// NewAllocator creates a frame allocator over machine m using rc for frame
// reference counts.
func NewAllocator(m *hw.Machine, rc *refcache.Refcache) *Allocator {
	a := &Allocator{
		m:        m,
		rc:       rc,
		pageZero: m.Config().PageZero,
		lists:    make([]freelist, m.NCores()),
	}
	// One shared free callback for every frame (the frame rides in
	// Obj.Data), instead of a fresh closure per Alloc.
	a.freeFn = func(c *hw.CPU, o *refcache.Obj) { a.release(c, o.Data.(*Frame)) }
	return a
}

// Alloc returns a zeroed frame with reference count 1, charged to cpu. The
// frame comes from cpu's local free list when possible (no coherence
// traffic); page zeroing cost is charged either way, as the paper's local
// benchmark attributes most of its cache misses to zeroing.
func (a *Allocator) Alloc(cpu *hw.CPU) *Frame {
	id := cpu.ID()
	fl := &a.lists[id]
	fl.mu.Lock()
	var f *Frame
	if n := len(fl.frames); n > 0 {
		f = fl.frames[n-1]
		fl.frames = fl.frames[:n-1]
	}
	fl.mu.Unlock()
	if f == nil {
		// The PFN is the frame's position in the chunks, so the frame is
		// taken and numbered under one lock: numbered outside it, two cores
		// creating frames at once could number them out of position order
		// and ByPFN would hand the baselines the wrong frame from then on.
		a.regMu.Lock()
		n := uint64(a.totals.Load())
		k := n / frameChunk
		if n%frameChunk == 0 {
			if k == dirFan*dirFan {
				panic(fmt.Sprintf("mem: more than %d frames", n))
			}
			d := a.dir[k/dirFan].Load()
			if d == nil {
				d = new(chunkDir)
				a.dir[k/dirFan].Store(d)
			}
			d[k%dirFan].Store(new([frameChunk]Frame))
		}
		f = &a.chunk(k)[n%frameChunk]
		f.PFN, f.Home = n+1, int32(id)
		a.totals.Store(int64(n + 1))
		a.regMu.Unlock()
	}
	a.rc.InitObj(&f.obj, 1, a.freeFn)
	f.obj.Data = f
	f.cowShares.Store(0)
	if f.data != nil {
		// The zeroing this call charges below must be real for recycled
		// frames with materialized contents, or a new lifetime would read
		// the previous one's bytes.
		clear(f.data[:])
	}
	cpu.TickAs(hw.CausePageZero, a.pageZero)
	cpu.Stats().PagesZeroed++
	a.allocated.Add(1)
	return f
}

// IncRef takes an additional reference to f on cpu.
func (a *Allocator) IncRef(cpu *hw.CPU, f *Frame) { a.rc.Inc(cpu, &f.obj) }

// DecRef drops a reference to f on cpu. When the true count reaches zero,
// Refcache returns the frame to its home free list within two epochs.
func (a *Allocator) DecRef(cpu *hw.CPU, f *Frame) { a.rc.Dec(cpu, &f.obj) }

// release returns a dead frame to its home free list. Freeing from a
// different core models the "return freed pages to their home nodes"
// synchronization the paper observes in the pipeline benchmark.
func (a *Allocator) release(cpu *hw.CPU, f *Frame) {
	fl := &a.lists[f.Home]
	if cpu.ID() != int(f.Home) {
		cpu.Write(&f.line)
	}
	fl.mu.Lock()
	fl.frames = append(fl.frames, f)
	fl.mu.Unlock()
	a.allocated.Add(-1)
}

// ByPFN returns the frame with the given PFN (hardware page tables store
// only the PFN, so baseline VMs use this to recover the frame at munmap).
func (a *Allocator) ByPFN(pfn uint64) *Frame {
	if pfn == 0 || pfn > uint64(a.totals.Load()) {
		return nil
	}
	return &a.chunk((pfn - 1) / frameChunk)[(pfn-1)%frameChunk]
}

// chunk returns chunk k, which must have been published.
func (a *Allocator) chunk(k uint64) *[frameChunk]Frame {
	return a.dir[k/dirFan].Load()[k%dirFan].Load()
}

// Live returns the number of frames currently allocated (reference held or
// awaiting Refcache reclamation).
func (a *Allocator) Live() int64 { return a.allocated.Load() }

// Created returns the number of distinct frames ever created.
func (a *Allocator) Created() int64 { return a.totals.Load() }
