package main

import (
	"runtime"
	"time"

	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/pagetable"
	"radixvm/internal/radix"
	"radixvm/internal/refcache"
	"radixvm/internal/tlb"
	"radixvm/internal/vm"
)

// A layer probe is a micro-driver that calls one lower layer's public
// functions on a fresh machine, from outside, and reports host ns per call
// and virtual cycles per call. Each runs inside the traced run of the
// workload whose hot path it mirrors (see workloads); its host number is
// what a change to that layer should move first.
type probeDef struct {
	name     string
	hostOnly bool // the layer has no virtual cost (tlb, FlushAll)
	allocs   bool // also report Go heap KB per call
	run      func() probeOut
}

type probeOut struct {
	hostNs  float64 // median over probeBatches batches
	vcyc    float64 // mean over every call
	allocKB float64
}

const probeBatches = 5

// sample times probeBatches batches of n calls of op. prep, when non-nil,
// runs untimed before each batch. The virtual cost is the advance of the
// given cores' clocks over the timed calls.
func sample(cpus []*hw.CPU, n int, prep func(), op func(i int)) probeOut {
	clocks := func() (sum uint64) {
		for _, c := range cpus {
			sum += c.Now()
		}
		return sum
	}
	host := make([]float64, probeBatches)
	var vcyc, alloc uint64
	var m0, m1 runtime.MemStats
	for b := range host {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&m0)
		v0, t0 := clocks(), time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		host[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		vcyc += clocks() - v0
		runtime.ReadMemStats(&m1)
		alloc += m1.TotalAlloc - m0.TotalAlloc
	}
	calls := float64(n * probeBatches)
	return probeOut{hostNs: median(host), vcyc: float64(vcyc) / calls, allocKB: float64(alloc) / calls / 1024}
}

// yieldTick is the virtual work between two yields of the gang probes.
const yieldTick = 100

// gangYields times rounds*64 yields of a 64-member gang, run by drive on
// a fresh machine per batch.
func gangYields(rounds int, drive func(m *hw.Machine, rounds int)) probeOut {
	host := make([]float64, probeBatches)
	for b := range host {
		m := hw.NewMachine(hw.DefaultConfig(fullCores))
		t0 := time.Now()
		drive(m, rounds)
		host[b] = float64(time.Since(t0).Nanoseconds()) / float64(rounds*fullCores)
	}
	return probeOut{hostNs: median(host)}
}

func probeDetGangYield() probeOut {
	return gangYields(400, func(m *hw.Machine, rounds int) {
		hw.RunGangDet(m, fullCores, 4000, func(c *hw.CPU, g *hw.Gang) {
			for i := 0; i < rounds; i++ {
				c.Tick(yieldTick)
				g.Sync(c)
			}
		})
	})
}

func probeSchedYield() probeOut {
	return gangYields(400, func(m *hw.Machine, rounds int) {
		s := hw.NewSched(0)
		for i := 0; i < fullCores; i++ {
			s.Spawn(i, func(tc *hw.Ctx) {
				for k := 0; k < rounds; k++ {
					tc.CPU().Tick(yieldTick)
					tc.Yield()
				}
			})
		}
		s.Run(m, fullCores, 4000)
	})
}

// probeIPI sends shootdown rounds from core 0 to the next fanout cores.
// The targets' mailboxes are drained untimed between batches, as their own
// goroutines would drain them.
func probeIPI(fanout int) func() probeOut {
	return func() probeOut {
		m := hw.NewMachine(hw.DefaultConfig(fullCores))
		c0 := m.CPU(0)
		var targets hw.CoreSet
		for id := 1; id <= fanout; id++ {
			targets.Add(id)
		}
		drain := func() {
			for id := 1; id <= fanout; id++ {
				m.CPU(id).AdvanceTo(c0.Now() + 1<<20)
			}
		}
		return sample([]*hw.CPU{c0}, 64, drain, func(int) {
			c0.SendIPIs(targets, func(*hw.CPU) {})
		})
	}
}

func probeLineReadHit() probeOut {
	m := hw.NewMachine(hw.DefaultConfig(fullCores))
	c := m.CPU(0)
	var l hw.Line
	c.Write(&l)
	return sample([]*hw.CPU{c}, 20000, nil, func(int) { c.Read(&l) })
}

// probeLineWriteXfer bounces one line between core 0 and core 10, the
// first core of the next socket: every write is a cross-socket transfer.
func probeLineWriteXfer() probeOut {
	m := hw.NewMachine(hw.DefaultConfig(fullCores))
	cs := []*hw.CPU{m.CPU(0), m.CPU(10)}
	var l hw.Line
	return sample(cs, 20000, nil, func(i int) { cs[i&1].Write(&l) })
}

// probePages is the span the radix and page-table probes work over: one
// full leaf node.
const probePages = 512

type probeVal struct{ x uint64 }

// radixTree builds a tree on a 1-core machine with probePages per-page
// values in one leaf, the shape a faulted-in region has.
func radixTree() (*hw.CPU, *refcache.Refcache, *radix.Tree[probeVal], uint64) {
	m := hw.NewMachine(hw.DefaultConfig(1))
	rc := refcache.New(m)
	t := radix.NewCopy[probeVal](m, rc)
	c := m.CPU(0)
	lo := uint64(probePages * 8)
	for v := lo; v < lo+probePages; v++ {
		r := t.LockPage(c, v)
		r.Entry(0).SetClone(&probeVal{x: v})
		r.Unlock()
	}
	return c, rc, t, lo
}

func probeRadixLookup() probeOut {
	c, _, t, lo := radixTree()
	return sample([]*hw.CPU{c}, 20000, nil, func(i int) { t.Lookup(c, lo+uint64(i%probePages)) })
}

func probeRadixLockPage() probeOut {
	c, _, t, lo := radixTree()
	return sample([]*hw.CPU{c}, 20000, nil, func(i int) { t.LockPage(c, lo+uint64(i%probePages)).Unlock() })
}

func probeRadixLockRange() probeOut {
	c, _, t, lo := radixTree()
	return sample([]*hw.CPU{c}, 2000, nil, func(int) { t.LockRange(c, lo, lo+probePages).Unlock() })
}

// probeRadixForkRelease is one child's life on the metadata alone: an O(1)
// generation fork, one divergence, release. The dead nodes are reclaimed
// untimed between batches.
func probeRadixForkRelease() probeOut {
	c, rc, t, lo := radixTree()
	reclaim := func() { epochs(rc, 3) }
	return sample([]*hw.CPU{c}, 500, reclaim, func(i int) {
		child := t.ForkLazy(c)
		child.LockPage(c, lo+uint64(i%probePages)).Unlock()
		child.Release(c)
	})
}

func probeRefcacheIncDec() probeOut {
	m := hw.NewMachine(hw.DefaultConfig(1))
	rc := refcache.New(m)
	c := m.CPU(0)
	o := rc.NewObj(1, nil)
	return sample([]*hw.CPU{c}, 20000, nil, func(int) {
		rc.Inc(c, o)
		rc.Dec(c, o)
	})
}

// maintainTick is the virtual time between two Maintain calls of the
// probe, about one local-benchmark iteration: a flush falls due once in
// ~4000 calls, as it does for the workloads.
const maintainTick = 6000

func probeRefcacheMaintain() probeOut {
	m := hw.NewMachine(hw.DefaultConfig(1))
	rc := refcache.New(m)
	c := m.CPU(0)
	out := sample([]*hw.CPU{c}, 20000, nil, func(int) {
		c.Tick(maintainTick)
		rc.Maintain(c)
	})
	out.vcyc -= maintainTick
	return out
}

// probeRefcacheFlushAll times one whole-machine epoch with a few cached
// deltas on every core, the unit the leak check and FileServe's drain repeat.
func probeRefcacheFlushAll() probeOut {
	m := hw.NewMachine(hw.DefaultConfig(fullCores))
	rc := refcache.New(m)
	objs := make([]*refcache.Obj, 16)
	for i := range objs {
		objs[i] = rc.NewObj(1, nil)
	}
	dirty := func() {
		for id := 0; id < fullCores; id++ {
			for _, o := range objs {
				rc.Inc(m.CPU(id), o)
				rc.Dec(m.CPU(id), o)
			}
		}
	}
	host := make([]float64, 0, 4*probeBatches)
	for range cap(host) {
		dirty()
		t0 := time.Now()
		rc.FlushAll()
		host = append(host, float64(time.Since(t0).Nanoseconds()))
	}
	return probeOut{hostNs: median(host)}
}

func probePageTableMapUnmap() probeOut {
	m := hw.NewMachine(hw.DefaultConfig(1))
	pt := pagetable.New(m)
	c := m.CPU(0)
	return sample([]*hw.CPU{c}, 20000, nil, func(i int) {
		vpn := uint64(i % probePages)
		pt.Map(c, vpn, vpn+1, pagetable.PermR|pagetable.PermW)
		pt.Unmap(c, vpn)
	})
}

func probePageTableLookup() probeOut {
	m := hw.NewMachine(hw.DefaultConfig(1))
	pt := pagetable.New(m)
	c := m.CPU(0)
	for vpn := uint64(0); vpn < probePages; vpn++ {
		pt.Map(c, vpn, vpn+1, pagetable.PermR|pagetable.PermW)
	}
	return sample([]*hw.CPU{c}, 20000, nil, func(i int) { pt.Lookup(c, uint64(i%probePages)) })
}

// tlbPages exceeds the TLB's capacity, so inserts evict as they do when a
// core walks a region larger than its TLB.
const tlbPages = 2 * tlb.DefaultCapacity

func probeTLBInsertLookup() probeOut {
	t := tlb.New(0)
	e := tlb.Entry{PFN: 1, Readable: true, Writable: true}
	return sample(nil, 20000, nil, func(i int) {
		vpn := uint64(i % tlbPages)
		t.Insert(vpn, e)
		t.Lookup(vpn)
	})
}

func probeTLBFlushPage() probeOut {
	t := tlb.New(0)
	e := tlb.Entry{PFN: 1, Readable: true}
	const n = 1024
	fill := func() {
		for vpn := uint64(0); vpn < n; vpn++ {
			t.Insert(vpn, e)
		}
	}
	return sample(nil, n, fill, func(i int) { t.FlushPage(uint64(i)) })
}

// memEnv builds a 1-core machine with a frame allocator; reclaim frees
// every dead frame back to the allocator's free list.
func memEnv() (c *hw.CPU, a *mem.Allocator, reclaim func()) {
	m := hw.NewMachine(hw.DefaultConfig(1))
	rc := refcache.New(m)
	return m.CPU(0), mem.NewAllocator(m, rc), func() { epochs(rc, 3) }
}

func probeMemAllocDecRef() probeOut {
	c, a, reclaim := memEnv()
	return sample([]*hw.CPU{c}, 2000, reclaim, func(int) { a.DecRef(c, a.Alloc(c)) })
}

func probePageCacheHit() probeOut {
	c, a, _ := memEnv()
	pc := mem.NewPageCache(a)
	file := pc.NewFileID()
	for off := uint64(0); off < probePages; off++ {
		pc.Page(c, mem.PageKey{File: file, Off: off})
	}
	return sample([]*hw.CPU{c}, 20000, nil, func(i int) {
		pc.Page(c, mem.PageKey{File: file, Off: uint64(i % probePages)})
	})
}

func probePageCacheFill() probeOut {
	c, a, reclaim := memEnv()
	pc := mem.NewPageCache(a)
	file := pc.NewFileID()
	empty := func() {
		for _, fr := range pc.DropRange(file, 0, ^uint64(0)) {
			a.DecRef(c, fr)
		}
		reclaim()
	}
	return sample([]*hw.CPU{c}, probePages, empty, func(i int) {
		pc.Page(c, mem.PageKey{File: file, Off: uint64(i)})
	})
}

// probeWriteback64 revokes a 64-page window of a file that four cores of
// one radixvm address space have all read: per page, the sharer-set walk
// and a targeted shootdown. The readers re-fault the file untimed before
// every batch.
func probeWriteback64() probeOut {
	const readers, window = 4, 64
	m := hw.NewMachine(hw.DefaultConfig(readers))
	rc := refcache.New(m)
	a := mem.NewAllocator(m, rc)
	as := vm.New(m, rc, a, nil)
	file := vm.NewFile(a)
	const base = uint64(1) << 20
	c0 := m.CPU(0)
	if err := as.Mmap(c0, base, probePages, vm.MapOpts{Prot: vm.ProtRead, File: file}); err != nil {
		panic(err)
	}
	refault := func() {
		for id := 0; id < readers; id++ {
			for v := base; v < base+probePages; v++ {
				if err := as.Access(m.CPU(id), v, false); err != nil {
					panic(err)
				}
			}
		}
	}
	return sample([]*hw.CPU{c0}, probePages/window, refault, func(i int) {
		file.Writeback(c0, uint64(i*window), window)
	})
}

var probes = []probeDef{
	{name: "hw.detgang.yield64", hostOnly: true, run: probeDetGangYield},
	{name: "hw.sched.yield64", hostOnly: true, run: probeSchedYield},
	{name: "hw.ipi.send1", run: probeIPI(1)},
	{name: "hw.ipi.send63", run: probeIPI(63)},
	{name: "hw.line.read_hit", run: probeLineReadHit},
	{name: "hw.line.write_xfer", run: probeLineWriteXfer},
	{name: "radix.lookup", run: probeRadixLookup},
	{name: "radix.lockpage", run: probeRadixLockPage},
	{name: "radix.lockrange512", run: probeRadixLockRange},
	{name: "radix.forklazy_release", allocs: true, run: probeRadixForkRelease},
	{name: "refcache.incdec", run: probeRefcacheIncDec},
	{name: "refcache.maintain", run: probeRefcacheMaintain},
	{name: "refcache.flushall", hostOnly: true, run: probeRefcacheFlushAll},
	{name: "pagetable.map_unmap", run: probePageTableMapUnmap},
	{name: "pagetable.lookup", run: probePageTableLookup},
	{name: "tlb.insert_lookup", hostOnly: true, run: probeTLBInsertLookup},
	{name: "tlb.flushpage", hostOnly: true, run: probeTLBFlushPage},
	{name: "mem.alloc_decref", run: probeMemAllocDecRef},
	{name: "mem.pagecache.page_hit", run: probePageCacheHit},
	{name: "mem.pagecache.page_fill", run: probePageCacheFill},
	{name: "vm.file.writeback64", run: probeWriteback64},
}
