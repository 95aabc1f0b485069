// Package radixvm is a faithful reproduction of "RadixVM: Scalable address
// spaces for multithreaded applications" (Clements, Kaashoek, Zeldovich,
// EuroSys 2013) as a Go library.
//
// RadixVM makes mmap, munmap, and pagefault on non-overlapping regions of
// a shared address space scale perfectly with core count by combining a
// radix tree with per-slot range locking (internal/radix), the Refcache
// scalable reference counter (internal/refcache), and per-core page tables
// with precisely targeted TLB shootdowns (internal/vm).
//
// Because the paper's results come from an 80-core machine running a
// research kernel, this package runs everything on a simulated machine
// (internal/hw): each simulated core has a virtual clock, a deterministic
// schedule (RunGang's and the figures') steps the cores in one loop, lowest
// clock first, and shared cache lines are serialization resources with
// modeled coherence costs. The data structures are really concurrent — their
// tests drive them from parallel goroutines under the race detector; only
// time is simulated — so the library reproduces both the semantics and the
// scalability curves of the paper on any host. README.md ("The simulated
// machine") gives the full substitution argument.
//
// # Quick start
//
//	m := radixvm.New(8)                       // 8 simulated cores
//	as := m.NewAddressSpace()                 // a RadixVM address space
//	cpu := m.CPU(0)                           // run as core 0
//	as.Mmap(cpu, 0x1000, 16, radixvm.MapOpts{Prot: radixvm.ProtRead | radixvm.ProtWrite})
//	as.Access(cpu, 0x1000, true)              // page fault + allocate
//	as.Munmap(cpu, 0x1000, 16)                // targeted shootdown (none needed here)
//	fmt.Println(m.Stats().Transfers)          // cache-line movement observed
//
// All addresses are virtual page numbers (4 KB pages). Each simulated core
// must be driven by exactly one goroutine at a time.
package radixvm

import (
	"radixvm/internal/bonsaivm"
	"radixvm/internal/hw"
	"radixvm/internal/linuxvm"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
)

// Re-exported core types; see the internal packages for full documentation.
type (
	// CPU is a simulated core's execution context.
	CPU = hw.CPU
	// Config is the simulated machine's cost model.
	Config = hw.Config
	// Stats counts coherence and VM events.
	Stats = hw.Stats
	// AddressSpace is a RadixVM address space.
	AddressSpace = vm.AddressSpace
	// System is the interface all VM systems implement (RadixVM and the
	// Linux-like and Bonsai-like baselines).
	System = vm.System
	// MapOpts configures an Mmap call.
	MapOpts = vm.MapOpts
	// Prot is a page-protection mask.
	Prot = vm.Prot
	// File is a mappable page-cache-backed object.
	File = vm.File
	// Gang keeps simulated cores' virtual clocks in step; use it when
	// driving several cores concurrently.
	Gang = hw.Gang
)

// Protection bits.
const (
	ProtRead  = vm.ProtRead
	ProtWrite = vm.ProtWrite
	ProtExec  = vm.ProtExec
)

// ErrSegv is returned for accesses to unmapped pages; ErrProt for
// accesses a mapping exists for but forbids (write to read-only, fetch
// from no-exec).
var (
	ErrSegv = vm.ErrSegv
	ErrProt = vm.ErrProt
)

// Machine bundles the simulated hardware with the kernel-side substrate
// every address space shares: the Refcache domain and the physical page
// allocator.
type Machine struct {
	hw    *hw.Machine
	rc    *refcache.Refcache
	alloc *mem.Allocator
}

// New creates a machine with n simulated cores using the default cost
// model (shaped on the paper's 8-socket Intel E7-8870).
func New(n int) *Machine {
	return NewWithConfig(hw.DefaultConfig(n))
}

// NewWithConfig creates a machine with an explicit cost model.
func NewWithConfig(cfg Config) *Machine {
	m := hw.NewMachine(cfg)
	rc := refcache.New(m)
	return &Machine{hw: m, rc: rc, alloc: mem.NewAllocator(m, rc)}
}

// NCores returns the simulated core count.
func (m *Machine) NCores() int { return m.hw.NCores() }

// CPU returns core i's context. Exactly one goroutine may drive a CPU at
// a time.
func (m *Machine) CPU(i int) *CPU { return m.hw.CPU(i) }

// NewAddressSpace creates a RadixVM address space: radix tree, per-core
// page tables, targeted shootdown.
func (m *Machine) NewAddressSpace() *AddressSpace {
	return vm.New(m.hw, m.rc, m.alloc, nil)
}

// NewSharedTableAddressSpace creates a RadixVM address space with a
// traditional shared page table and broadcast shootdowns (the Figure 9
// ablation).
func (m *Machine) NewSharedTableAddressSpace() *AddressSpace {
	return vm.New(m.hw, m.rc, m.alloc, vm.NewSharedMMU(m.hw))
}

// NewLinuxAddressSpace creates the Linux-like baseline (rwlock-protected
// red-black VMA tree, shared page table, broadcast shootdown).
func (m *Machine) NewLinuxAddressSpace() System {
	return linuxvm.New(m.hw, m.rc, m.alloc)
}

// NewBonsaiAddressSpace creates the Bonsai baseline (lock-free pagefault,
// serialized mmap/munmap).
func (m *Machine) NewBonsaiAddressSpace() System {
	return bonsaivm.New(m.hw, m.rc, m.alloc)
}

// NewFile creates a page-cache-backed mappable file; mappings of the same
// offset share physical pages.
func (m *Machine) NewFile() *File { return vm.NewFile(m.alloc) }

// Maintain performs cpu's periodic Refcache work; call it regularly from
// each core's loop (the kernel would do this from its timer tick).
func (m *Machine) Maintain(cpu *CPU) { m.rc.Maintain(cpu) }

// Quiesce drives enough Refcache epochs to reclaim everything whose true
// reference count has reached zero. Call only while no cores are running
// VM operations.
func (m *Machine) Quiesce() {
	for i := 0; i < 20; i++ {
		m.rc.FlushAll()
	}
}

// Stats sums the per-core statistics.
func (m *Machine) Stats() Stats { return m.hw.TotalStats() }

// ResetStats clears statistics (virtual clocks are preserved).
func (m *Machine) ResetStats() { m.hw.ResetStats() }

// MaxClock returns the machine's virtual wall-clock time in cycles.
func (m *Machine) MaxClock() uint64 { return m.hw.MaxClock() }

// LiveFrames returns the number of physical frames currently allocated.
func (m *Machine) LiveFrames() int64 { return m.alloc.Live() }

// RunGang runs fn on cores [0, n) under the deterministic schedule: one
// core at a time, lowest virtual clock first, so the clocks stay in step and
// every run prints the same numbers. fn must call g.Sync(cpu) once per loop
// iteration; that is where another core may run.
func (m *Machine) RunGang(n int, fn func(cpu *CPU, g *Gang)) {
	hw.RunGangDet(m.hw, n, 0, fn)
}
