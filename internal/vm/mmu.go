package vm

import (
	"radixvm/internal/hw"
	"radixvm/internal/pagetable"
	"radixvm/internal/tlb"
)

// PermBits converts a mapping protection into hardware PTE permission
// bits. Exported so the baseline VM systems share one encoding of the
// protection model instead of re-deriving it. Any non-empty protection is
// readable (x86: writable and executable pages can be loaded from); only
// PROT_NONE yields an entry with no rights at all.
func PermBits(p Prot) pagetable.Perm {
	var perm pagetable.Perm
	if p != 0 {
		perm |= pagetable.PermR
	}
	if p&ProtWrite != 0 {
		perm |= pagetable.PermW
	}
	if p&ProtExec != 0 {
		perm |= pagetable.PermX
	}
	return perm
}

func tlbEntry(pfn uint64, perm pagetable.Perm) tlb.Entry {
	return tlb.Entry{
		PFN:      pfn,
		Readable: perm&pagetable.PermR != 0,
		Writable: perm&pagetable.PermW != 0,
		Exec:     perm&pagetable.PermX != 0,
	}
}

// TLBEntry converts a walked PTE into the TLB entry caching it — one
// encoding shared by all three systems' walk paths.
func TLBEntry(pte pagetable.PTE) tlb.Entry { return tlbEntry(pte.PFN, pte.Perm) }

// right is the one PTE permission bit access kind k needs (x86: a load
// needs the readable bit any non-empty protection sets, a store the
// writable bit, a fetch the executable one). Prot.Permits, PTEAllows and
// TLBAllows all check through it.
func right(k Kind) pagetable.Perm {
	switch k {
	case KindWrite:
		return pagetable.PermW
	case KindExec:
		return pagetable.PermX
	default:
		return pagetable.PermR
	}
}

// TLBAllows reports whether cached translation e carries the right access
// kind k needs — the hardware check all three systems' TLB-hit paths share.
func TLBAllows(e tlb.Entry, k Kind) bool {
	switch right(k) {
	case pagetable.PermW:
		return e.Writable
	case pagetable.PermX:
		return e.Exec
	default:
		return e.Readable
	}
}

// PTEAllows is TLBAllows for a walked page table entry.
func PTEAllows(p pagetable.PTE, k Kind) bool { return p.Perm&right(k) != 0 }

// MMU abstracts the hardware mapping layer under an address space, the
// paper's "MMU abstraction" component (Table 1): it is "implemented both
// for per-core page tables, which provide targeted TLB shootdowns, and for
// traditional shared page tables".
type MMU interface {
	// Name identifies the mode ("percore" or "shared").
	Name() string
	// Fill installs vpn→pfn with the given permissions for the faulting
	// core and caches it in that core's TLB. Filling a present entry
	// overwrites it (a protection fault after mprotect re-fills with the
	// mapping's current rights).
	Fill(cpu *hw.CPU, vpn, pfn uint64, perm pagetable.Perm)
	// Lookup performs the hardware walk a TLB miss would: it consults
	// the faulting core's view of the page tables. A walk that a Reset
	// overtook — the table was swapped out while the walk was between two
	// of its line touches — finds nothing, as the hardware walk that the
	// shootdown interrupted would.
	Lookup(cpu *hw.CPU, vpn uint64) (pagetable.PTE, bool)
	// TLB returns core id's translation cache.
	TLB(id int) *tlb.TLB
	// Shootdown removes [lo, hi) translations. precise is the set of
	// cores the mapping metadata saw fault the range in; active is every
	// core using the address space. Per-core tables interrupt only
	// precise; shared tables must broadcast to active. The caller's own
	// core is handled synchronously, not by IPI.
	Shootdown(cpu *hw.CPU, lo, hi uint64, precise, active hw.CoreSet)
	// Unmap is Shootdown without its interrupt round, for a caller that
	// batches the rounds of many ranges into one (a file-page revocation,
	// across every space it visits). It does the whole functional clear of
	// [lo, hi) — by proxy and charged to the caller, as a shootdown's
	// handlers are (hw.SendIPIs) — and returns the cores the round owes; the
	// caller sends it before it releases the pages. Per-core tables clear
	// the precise cores' tables and TLBs (a core clears only the ranges that
	// named it: a table walk materializes what it walks) and return precise;
	// the shared table is cleared once, every active core's TLB flushed, and
	// active returned.
	Unmap(cpu *hw.CPU, lo, hi uint64, precise, active hw.CoreSet) hw.CoreSet
	// Protect rewrites [lo, hi)'s installed translations to perm and
	// flushes the affected TLBs — the hardware half of an mprotect that
	// revokes rights (§3.4's write-protect shootdown). Translations stay
	// present, so still-permitted accesses re-fill from a hardware walk
	// instead of a fault. Targeting mirrors Shootdown: per-core tables
	// interrupt precise, shared tables broadcast to active.
	Protect(cpu *hw.CPU, lo, hi uint64, perm pagetable.Perm, precise, active hw.CoreSet)
	// Reset wholesale-invalidates every translation of the address space:
	// the page tables are dropped (rebuilt on demand by later faults) and the
	// TLBs flushed, on the cores holding translations (shared tables: on every
	// active core). This is fork's one up-front hardware cost, and Exit's,
	// independent of the tree size: with none surviving, every later access
	// re-faults through the metadata, which diverges and COW-arms its pages.
	Reset(cpu *hw.CPU, active hw.CoreSet)
	// Bytes reports page-table memory (Table 2 / §5.4 accounting).
	Bytes() uint64
}

// Access is the hardware's half of a user-level access, the same on all
// three systems: TLB hit, then a walk of the faulting core's view of the page
// tables, then the trap into fault — the system's handler, which never
// outlives the call. A TLB or walk hit whose cached rights forbid the access
// traps like a miss (trapped is true: the ProtFault is already counted), and
// the handler consults the metadata and either re-fills with wider rights (an
// mprotect upgrade being realized lazily), resolves a copy-on-write, or
// reports ErrProt. A walk's last preemption point is the touch of its PTE's
// line, before the PTE is read, so the walk and its TLB insert are atomic
// against shootdowns, as hardware's are (and MMU.Lookup reports a walk that
// a Reset overtook as a miss).
func Access(cpu *hw.CPU, mmu MMU, vpn uint64, k Kind, fault func(cpu *hw.CPU, vpn uint64, k Kind, trapped bool) error) error {
	t := mmu.TLB(cpu.ID())
	if e, ok := t.Lookup(vpn); ok {
		if TLBAllows(e, k) {
			cpu.Tick(AccessCost)
			return nil
		}
		// Hardware raises the permission trap straight from the TLB entry;
		// no page walk happens first.
		cpu.Stats().ProtFaults++
		return fault(cpu, vpn, k, true)
	}
	if pte, ok := mmu.Lookup(cpu, vpn); ok {
		if !PTEAllows(pte, k) {
			// The walk found a translation lacking the needed right — the
			// same permission trap the TLB branch raises.
			cpu.Stats().ProtFaults++
			return fault(cpu, vpn, k, true)
		}
		cpu.Tick(WalkCost)
		t.Insert(vpn, TLBEntry(pte))
		return nil
	}
	return fault(cpu, vpn, k, false)
}

// PerCoreMMU gives every core its own page table, so the mapping metadata
// knows exactly which cores may cache each page and munmap interrupts only
// those — zero IPIs when a region never left its core (§3.3).
type PerCoreMMU struct {
	m *hw.Machine
	// slots is each core's table, walker and TLB, built on the core's first
	// Fill or TLB call. Every path that only scans or clears reads an
	// unbuilt (nil) slot as a nil table and an empty TLB, charges what it
	// charges for those, and builds nothing.
	slots[coreMMU]
}

// slots holds one T per core, built on the core's first use: a forked child
// runs on one or two cores of 64, and an MMU is built at every fork. It must
// not be copied after reserve.
type slots[T any] struct {
	cores []*T
	// spare is where the next slots are built: first the two allocated with
	// the MMU, so a child that runs on two cores adds no heap object, then one
	// chunk for every other core: a space that outgrows two cores pays for all
	// of them at once, which no forked child of the benchmark's workloads
	// does. Builds are host bookkeeping, at most once per core for the
	// space's life, charged nothing.
	spare []T
	first [2]T
}

// reserve sizes s for ncores cores, none built.
func (s *slots[T]) reserve(ncores int) {
	s.cores = make([]*T, ncores)
	s.spare = s.first[:]
}

// core returns core id's slot, nil if it was never built.
func (s *slots[T]) core(id int) *T { return s.cores[id] }

// build returns core id's slot, building it on first use.
func (s *slots[T]) build(id int) *T {
	if c := s.cores[id]; c != nil {
		return c
	}
	return s.add(id)
}

func (s *slots[T]) add(id int) *T {
	if len(s.spare) == 0 {
		s.spare = make([]T, len(s.cores)-len(s.first))
	}
	c := &s.spare[0]
	s.spare = s.spare[1:]
	s.cores[id] = c
	return c
}

// coreMMU is one core's page table, its walker and TLB. A fork's Reset
// replaces the whole table with nil while the owner may be filling it; the
// fault path's fork-epoch validation undoes such a fill (AddressSpace.fault).
// The owner's walks go through w, so a fault's Lookup and Fill share one
// cached path. w is rebound whenever pt is replaced; a walk that a Reset
// overtook may leave it the path of the dropped table, which no walk
// follows: the owner walks only after mapTable, which rebinds a nil table's
// walker to the new one.
type coreMMU struct {
	pt  *pagetable.PageTable
	w   pagetable.Walker
	tlb tlb.TLB
}

// NewPerCoreMMU builds the per-core-page-table MMU. Tables are allocated
// lazily, matching the paper's observation that most applications touch a
// small fraction of the address space per core.
func NewPerCoreMMU(m *hw.Machine) *PerCoreMMU {
	mmu := &PerCoreMMU{m: m}
	mmu.reserve(m.NCores())
	return mmu
}

// Name implements MMU.
func (mmu *PerCoreMMU) Name() string { return "percore" }

// mapTable allocates the slot's table on first use and binds w to it.
func (c *coreMMU) mapTable(m *hw.Machine) {
	if c.pt == nil {
		c.pt = pagetable.New(m)
		c.w.Reset(c.pt)
	}
}

// Fill implements MMU: only the faulting core's table is written, so
// faults on different cores share nothing.
func (mmu *PerCoreMMU) Fill(cpu *hw.CPU, vpn, pfn uint64, perm pagetable.Perm) {
	c := mmu.build(cpu.ID())
	c.mapTable(mmu.m)
	c.w.Map(cpu, vpn, pfn, perm)
	c.tlb.Insert(vpn, tlbEntry(pfn, perm))
}

// Lookup implements MMU.
func (mmu *PerCoreMMU) Lookup(cpu *hw.CPU, vpn uint64) (pagetable.PTE, bool) {
	c := mmu.core(cpu.ID())
	if pt := c.table(); pt != nil {
		if pte, ok := c.w.Lookup(cpu, vpn); ok && c.pt == pt {
			return pte, true
		}
	}
	return pagetable.PTE{}, false
}

// TLB implements MMU.
func (mmu *PerCoreMMU) TLB(id int) *tlb.TLB { return &mmu.build(id).tlb }

// round is the per-core tables' one interrupt round, under Shootdown,
// Protect and Reset: op runs on the caller's own slot synchronously if
// targets names it, then on every other core targets names by IPI —
// executed by proxy, its cost charged to the target by SendIPIs. A round
// that names no other core is no shootdown at all: the common local case
// (§3.3).
func (mmu *PerCoreMMU) round(cpu *hw.CPU, targets hw.CoreSet, op func(c *coreMMU)) {
	self := cpu.ID()
	if targets.Has(self) {
		op(mmu.core(self))
		targets.Remove(self)
	}
	if targets.Empty() {
		return
	}
	cpu.Stats().Shootdowns++
	cpu.SendIPIs(targets, func(t *hw.CPU) { op(mmu.core(t.ID())) })
}

// Shootdown implements MMU: targeted. The unmapping core clears its own
// state synchronously and interrupts exactly the cores the metadata saw.
func (mmu *PerCoreMMU) Shootdown(cpu *hw.CPU, lo, hi uint64, precise, _ hw.CoreSet) {
	mmu.round(cpu, precise, func(c *coreMMU) { c.unmap(cpu, lo, hi) })
}

// Unmap implements MMU.
func (mmu *PerCoreMMU) Unmap(cpu *hw.CPU, lo, hi uint64, precise, _ hw.CoreSet) hw.CoreSet {
	precise.ForEach(func(id int) { mmu.core(id).unmap(cpu, lo, hi) })
	return precise
}

// Protect implements MMU: targeted, like Shootdown, but PTEs are rewritten
// in place instead of cleared, so a core that re-touches a still-permitted
// page pays a hardware walk, not a fault.
func (mmu *PerCoreMMU) Protect(cpu *hw.CPU, lo, hi uint64, perm pagetable.Perm, precise, _ hw.CoreSet) {
	mmu.round(cpu, precise, func(c *coreMMU) { c.protect(cpu, lo, hi, perm) })
}

// Reset implements MMU: each active core's table is swapped out whole and
// its TLB flushed. A fault concurrently filling the old table is caught by
// the caller's fork-epoch validation (see AddressSpace.fault).
//
// Only holders are interrupted (§3.3: per-core tables say exactly which cores
// can hold a translation). A TLB entry is only installed through the core's
// own table — Fill creates it, Access's walk needs it non-nil — and reset
// stores nil before it flushes, so a core with no table and an empty TLB (read
// too: another fork's reset may stand between its store and its flush) holds
// nothing since its last reset. A core that fills after the scan passed it is
// the fault the epoch validation undoes: the caller bumped the epoch before
// Reset, so that fault's table CAS follows the scan's load and its post-fill
// epoch read follows the bump. The scan is charged as reads of the per-core
// pointers: a hit for a non-holder's, a line transfer for a holder's. The
// caller resets its own slot whether or not it holds anything.
func (mmu *PerCoreMMU) Reset(cpu *hw.CPU, active hw.CoreSet) {
	self := cpu.ID()
	active.Remove(self)
	cfg := mmu.m.Config()
	var holders hw.CoreSet
	holders.Add(self)
	active.ForEach(func(id int) {
		switch c := mmu.core(id); {
		case !c.holds():
			cpu.TickAs(hw.CauseLineHit, cfg.LocalHit)
			return
		case mmu.m.Socket(id) == cpu.Socket():
			cpu.TickAs(hw.CauseLineXfer, cfg.SameSocketXfer)
		default:
			cpu.TickAs(hw.CauseLineXfer, cfg.CrossSocketXfer)
		}
		holders.Add(id)
	})
	mmu.round(cpu, holders, (*coreMMU).reset)
}

// table, holds, reset, unmap and protect read or clear a slot without
// building it: a nil slot is a nil table and an empty TLB. Allocating a table
// or a slot to clear it would make the core a holder (Reset).
func (c *coreMMU) table() *pagetable.PageTable {
	if c == nil {
		return nil
	}
	return c.pt
}

func (c *coreMMU) holds() bool { return c.table() != nil || c != nil && c.tlb.Len() != 0 }

func (c *coreMMU) reset() {
	if c != nil {
		c.pt = nil
		c.w.Reset(nil)
		c.tlb.FlushAll()
	}
}

// unmap and protect are one core's share of a shootdown.
func (c *coreMMU) unmap(cpu *hw.CPU, lo, hi uint64) {
	if c == nil {
		return
	}
	if pt := c.pt; pt != nil {
		pt.UnmapRange(cpu, lo, hi)
	}
	c.tlb.FlushRange(lo, hi)
}

func (c *coreMMU) protect(cpu *hw.CPU, lo, hi uint64, perm pagetable.Perm) {
	if c == nil {
		return
	}
	if pt := c.pt; pt != nil {
		pt.ProtectRange(cpu, lo, hi, perm)
	}
	c.tlb.FlushRange(lo, hi)
}

// Bytes implements MMU: the sum over per-core tables — the memory overhead
// §5.4 quantifies.
func (mmu *PerCoreMMU) Bytes() uint64 {
	var b uint64
	for id := range mmu.cores {
		if pt := mmu.core(id).table(); pt != nil {
			b += pt.Bytes()
		}
	}
	return b
}

// SharedMMU is the traditional design: one page table for the whole
// address space. The hardware gives no hint of which TLBs cached what, so
// every unmap broadcasts to every core using the address space — Figure
// 9's "Shared" curves.
type SharedMMU struct {
	m *hw.Machine
	// pt is replaced whole by Reset, as coreMMU.pt is, while other cores
	// may be filling it.
	pt *pagetable.PageTable
	// slots is each core's TLB and walker, built on the core's first walk
	// or TLB call, as PerCoreMMU's are. A broadcast or Unmap reads an
	// unbuilt (nil) slot as an empty TLB, charges what it charges for one,
	// and builds nothing.
	slots[sharedCore]
}

// sharedCore is one core's TLB and its Walker of the shared table. A walk
// names the table it walks (Walker), so a Reset rebinds nobody's walker: the
// owner's next walk of the new table does, and a walk that a Reset overtook
// keeps the old table's path on a walker still bound to the old table.
type sharedCore struct {
	tlb tlb.TLB
	w   pagetable.Walker
}

// NewSharedMMU builds the shared-page-table MMU.
func NewSharedMMU(m *hw.Machine) *SharedMMU {
	mmu := &SharedMMU{m: m, pt: pagetable.New(m)}
	mmu.reserve(m.NCores())
	return mmu
}

// Walker returns cpu's Walker of pt, a table of this MMU's (PageTable's, or
// one a Reset has since replaced): a single-entry operation walks through
// it, and keeps its path for the core's next walk of pt.
func (mmu *SharedMMU) Walker(cpu *hw.CPU, pt *pagetable.PageTable) *pagetable.Walker {
	return mmu.build(cpu.ID()).w.On(pt)
}

// Name implements MMU.
func (mmu *SharedMMU) Name() string { return "shared" }

// Fill implements MMU. Writing the shared table contends on its PTE lines.
// If another core's fault already installed the PTE, the entry is adopted
// as-is unless its rights are narrower than the mapping's (a fill after an
// mprotect upgrade), in which case it is rewritten.
func (mmu *SharedMMU) Fill(cpu *hw.CPU, vpn, pfn uint64, perm pagetable.Perm) {
	pt := mmu.pt
	w := mmu.Walker(cpu, pt)
	if !w.MapIfAbsent(cpu, vpn, pfn, perm) {
		// MapIfAbsent already charged the PTE line; Peek re-reads it
		// cost-free.
		if pte, ok := pt.Peek(vpn); ok && pte.Perm&perm != perm {
			w.Map(cpu, vpn, pfn, perm)
		}
	}
	mmu.build(cpu.ID()).tlb.Insert(vpn, tlbEntry(pfn, perm))
}

// Lookup implements MMU.
func (mmu *SharedMMU) Lookup(cpu *hw.CPU, vpn uint64) (pagetable.PTE, bool) {
	pt := mmu.pt
	if pte, ok := mmu.Walker(cpu, pt).Lookup(cpu, vpn); ok && mmu.pt == pt {
		return pte, true
	}
	return pagetable.PTE{}, false
}

// TLB implements MMU.
func (mmu *SharedMMU) TLB(id int) *tlb.TLB { return &mmu.build(id).tlb }

// PageTable exposes the shared table (baseline VMs clear it themselves to
// collect frames before the shootdown).
func (mmu *SharedMMU) PageTable() *pagetable.PageTable { return mmu.pt }

// Shootdown implements MMU: broadcast. The shared table is cleared once
// (by the caller or here), but every active core's TLB must be flushed.
func (mmu *SharedMMU) Shootdown(cpu *hw.CPU, lo, hi uint64, _, active hw.CoreSet) {
	mmu.pt.UnmapRange(cpu, lo, hi)
	mmu.ShootdownTLBOnly(cpu, lo, hi, active)
}

// Unmap implements MMU: the one table, and a broadcast's worth of TLBs.
func (mmu *SharedMMU) Unmap(cpu *hw.CPU, lo, hi uint64, _, active hw.CoreSet) hw.CoreSet {
	mmu.pt.UnmapRange(cpu, lo, hi)
	active.ForEach(func(id int) { mmu.flush(id, func(t *tlb.TLB) { t.FlushRange(lo, hi) }) })
	return active
}

// Protect implements MMU: the shared table is rewritten once, then every
// active core's TLB is flushed — the hardware cannot say which cores cached
// the old rights, so the flush is a broadcast, exactly like the unmap path.
func (mmu *SharedMMU) Protect(cpu *hw.CPU, lo, hi uint64, perm pagetable.Perm, _, active hw.CoreSet) {
	mmu.pt.ProtectRange(cpu, lo, hi, perm)
	mmu.ShootdownTLBOnly(cpu, lo, hi, active)
}

// ShootdownTLBOnly broadcasts TLB invalidations for [lo, hi) without
// touching the page table — for baseline VMs that already cleared the
// shared table themselves while collecting the frames to free.
func (mmu *SharedMMU) ShootdownTLBOnly(cpu *hw.CPU, lo, hi uint64, active hw.CoreSet) {
	mmu.broadcast(cpu, active, func(t *tlb.TLB) { t.FlushRange(lo, hi) })
}

// Reset implements MMU: the shared table is swapped for an empty one — no
// per-page work — and every active core's TLB flushed. A fault filling the
// old table is caught by the caller's fork-epoch validation.
func (mmu *SharedMMU) Reset(cpu *hw.CPU, active hw.CoreSet) {
	mmu.pt = pagetable.New(mmu.m)
	mmu.broadcast(cpu, active, (*tlb.TLB).FlushAll)
}

// broadcast is the shared table's one interrupt round, under
// ShootdownTLBOnly and Reset: flush runs on the caller's own TLB, then on
// every other active core's by IPI.
func (mmu *SharedMMU) broadcast(cpu *hw.CPU, active hw.CoreSet, flush func(t *tlb.TLB)) {
	self := cpu.ID()
	mmu.flush(self, flush)
	active.Remove(self)
	if active.Empty() {
		return
	}
	cpu.Stats().Shootdowns++
	cpu.SendIPIs(active, func(t *hw.CPU) { mmu.flush(t.ID(), flush) })
}

// flush runs flush on core id's TLB if its slot is built: an unbuilt one is
// empty, and a flush charges nothing.
func (mmu *SharedMMU) flush(id int, flush func(t *tlb.TLB)) {
	if c := mmu.core(id); c != nil {
		flush(&c.tlb)
	}
}

// Bytes implements MMU.
func (mmu *SharedMMU) Bytes() uint64 { return mmu.pt.Bytes() }
