// Package pagetable implements x86-64-shaped 4-level hardware page tables:
// 512-entry nodes indexed by 9 bits of virtual page number per level. The
// same structure serves both RadixVM's per-core page tables and the
// shared-table baselines; the MMU abstraction in internal/vm chooses how
// many tables an address space has and who gets shot down.
//
// Walks are lock-free (a new node is installed in its parent's entry with
// CAS); PTE reads and writes are atomic and charge coherence cost on the
// containing line, which is how shared-table contention (Figure 9's "Shared"
// curves) emerges.
package pagetable

import (
	"sync/atomic"

	"radixvm/internal/hw"
)

const (
	// BitsPerLevel is the number of VPN bits each level decodes.
	BitsPerLevel = 9
	// EntriesPerNode is the fan-out of each table node.
	EntriesPerNode = 1 << BitsPerLevel
	// Levels is the depth of the table (48-bit virtual, 4 KB pages).
	Levels = 4
	// MaxVPN is the first VPN beyond the addressable range.
	MaxVPN = uint64(1) << (BitsPerLevel * Levels)
	// NodeBytes is the memory footprint of one table node, as on real
	// hardware (512 8-byte entries).
	NodeBytes = EntriesPerNode * 8
	// slotsPerLine reflects eight 8-byte PTEs per 64-byte cache line.
	slotsPerLine = 8
	linesPerNode = EntriesPerNode / slotsPerLine
)

// Perm is the permission half of a PTE: the readable/writable and
// no-execute-style bits real page tables carry alongside the translation.
// The zero value permits nothing (a PROT_NONE entry: present so mprotect
// can restore it cheaply, but every access traps).
type Perm uint8

// Permission bits.
const (
	PermW Perm = 1 << iota // writable
	PermX                  // executable
	PermR                  // readable
)

// PTE is a page table entry: the present bit, the permission bits, and the
// mapped PFN.
type PTE struct {
	PFN     uint64
	Perm    Perm
	Present bool
}

// Writable reports whether the entry permits stores.
func (p PTE) Writable() bool { return p.Perm&PermW != 0 }

// Raw PTE packing: pfn<<rawShift | perm<<1 | present. Perm's bits (W, X, R)
// already sit in raw-PTE order just above the present bit, so packing is two
// shifts; the array below fails to compile if present bit and Perm stop
// filling exactly the bits under the PFN.
const (
	rawPresent = 1
	rawShift   = 4
	permAll    = PermW | PermX | PermR
)

var _ [0]struct{} = [rawPresent | permAll<<1 ^ (1<<rawShift - 1)]struct{}{}

func pack(pfn uint64, perm Perm) uint64 { return pfn<<rawShift | uint64(perm)<<1 | rawPresent }

func unpack(raw uint64) PTE {
	return PTE{PFN: raw >> rawShift, Perm: Perm(raw>>1) & permAll, Present: raw&rawPresent != 0}
}

// node is one table node as the host pays for it: the first cache line a
// walk touches, held inline, and a directory of the node's 64 lines that
// exists only once walks reach a second one. The simulated node is still
// 4 KB (NodeBytes, what Bytes reports); the host holds one 128-byte object
// per node, plus a 512-byte directory and one block per further touched
// line, because an address space's per-core tables mostly cover sparse
// regions: a forked child that runs on two cores reaches one line in each
// interior node and a few in a leaf. A 4 KB entry array per node was a
// quarter of everything the fleet allocated, and a directory per node
// nearly a fifth of what a filemap run did.
//
// at names the inline line: its index plus one, 0 while no walk has touched
// the node. The first toucher claims the inline line for its line with one
// CAS, and the claim is final, so every toucher of a line agrees on where
// it lives: inline if at names it, in the directory otherwise (whose slot
// for the inline line stays nil). A directory exists only once at is set.
//
// E is the entry type: atomic.Uint64 (a raw PTE) in a leaf, a pointer to the
// next level's node above it. The four levels are four instantiations, so
// the walk is three typed descents rather than a loop over a level field.
type node[E any] struct {
	first line[E]
	at    atomic.Int32
	dir   atomic.Pointer[[linesPerNode]atomic.Pointer[line[E]]]
}

// line is one touched cache line of a node: its coherence model and the
// eight entries it holds. The entries live with the Line because both appear
// at the same moment — the first touch, an absent-entry read included, since
// a read of an empty entry still pulls the line into the reader's cache and
// the next toucher must find that sharer state — so one claim covers both
// (the CAS on at for the inline line, one installing CAS per directory
// line), and an entry of a never-touched line needs no storage: nothing can
// have written it. Losing a race for the same line is harmless — both racers
// then use the winner's line, which charges exactly what a mutex-ordered
// pair of first touches would, and a losing block was never visible to hold
// an entry. Losing the inline claim to another line sends the loser to the
// directory.
type line[E any] struct {
	hw.Line
	e [slotsPerLine]E
}

type (
	leaf = node[atomic.Uint64] // level 0: PTEs, packed as pack describes
	dir1 = node[atomic.Pointer[leaf]]
	dir2 = node[atomic.Pointer[dir1]]
	dir3 = node[atomic.Pointer[dir2]] // level Levels-1: the root
)

// touch returns entry i of n and the cache line holding it, materializing
// the line on first touch: the inline line when no walk has touched n yet,
// else a block in the directory, which the first touch of a second line
// builds.
func (n *node[E]) touch(i int) (*hw.Line, *E) {
	li := int32(i/slotsPerLine) + 1
	at := n.at.Load()
	if at == 0 && !n.at.CompareAndSwap(0, li) {
		at = n.at.Load() // lost the claim: the winner's line is inline
	}
	if at == 0 || at == li { // claimed just now, or by an earlier touch
		return &n.first.Line, &n.first.e[i%slotsPerLine]
	}
	d := n.dir.Load()
	if d == nil {
		d = new([linesPerNode]atomic.Pointer[line[E]])
		if !n.dir.CompareAndSwap(nil, d) {
			d = n.dir.Load()
		}
	}
	p := &d[li-1]
	l := p.Load()
	if l == nil {
		l = new(line[E])
		if !p.CompareAndSwap(nil, l) {
			l = p.Load()
		}
	}
	return &l.Line, &l.e[i%slotsPerLine]
}

// peek returns entry i of n without materializing anything: nil when no
// walk has touched the entry's line yet, so the entry is still zero — or
// when n itself is nil, so a cost-free walk can chain its steps.
func (n *node[E]) peek(i int) *E {
	if n == nil {
		return nil
	}
	li := int32(i/slotsPerLine) + 1
	if n.at.Load() == li {
		return &n.first.e[i%slotsPerLine]
	}
	d := n.dir.Load()
	if d == nil {
		return nil
	}
	l := d[li-1].Load()
	if l == nil {
		return nil
	}
	return &l.e[i%slotsPerLine]
}

// PageTable is one hardware page table tree.
type PageTable struct {
	m     *hw.Machine
	root  dir3
	nodes atomic.Int64 // allocated table nodes, for memory accounting
}

// New creates an empty page table: its root node, which lives in the
// PageTable itself.
func New(m *hw.Machine) *PageTable {
	pt := &PageTable{m: m}
	pt.nodes.Store(1)
	return pt
}

func newNode[N any](pt *PageTable) *N {
	pt.nodes.Add(1)
	return new(N)
}

func idxAt(vpn uint64, level int) int {
	return int(vpn >> (uint(level) * BitsPerLevel) & (EntriesPerNode - 1))
}

// descend is one interior step of a walk: it reads entry i of n, charged to
// cpu, and returns the node it points to, installing a fresh one when the
// entry is empty and create is set. Returns nil when the entry is empty and
// stays so.
func descend[C any](pt *PageTable, cpu *hw.CPU, n *node[atomic.Pointer[C]], i int, create bool) *C {
	l, slot := n.touch(i)
	cpu.Read(l)
	child := slot.Load()
	if child == nil && create {
		fresh := newNode[C](pt)
		if slot.CompareAndSwap(nil, fresh) {
			cpu.Write(l)
			return fresh
		}
		pt.nodes.Add(-1) // lost the race; discard ours
		child = slot.Load()
	}
	return child
}

// walk returns the leaf node for vpn, allocating intermediate nodes when
// create is set. Returns nil when the path does not exist.
func (pt *PageTable) walk(cpu *hw.CPU, vpn uint64, create bool) *leaf {
	d2 := descend(pt, cpu, &pt.root, idxAt(vpn, 3), create)
	if d2 == nil {
		return nil
	}
	d1 := descend(pt, cpu, d2, idxAt(vpn, 2), create)
	if d1 == nil {
		return nil
	}
	return descend(pt, cpu, d1, idxAt(vpn, 1), create)
}

// entry is the one step every single-entry operation takes: it walks to
// vpn's leaf, creating the path when create is set, touches vpn's entry and
// charges its line to cpu, as a write when write is set. Returns nil when
// the path does not exist.
func (pt *PageTable) entry(cpu *hw.CPU, vpn uint64, create, write bool) *atomic.Uint64 {
	n := pt.walk(cpu, vpn, create)
	if n == nil {
		return nil
	}
	l, pte := n.touch(idxAt(vpn, 0))
	if write {
		cpu.Write(l)
	} else {
		cpu.Read(l)
	}
	return pte
}

// each is the one range walk: it runs op on the entry of every vpn in
// [lo, hi), each reached and charged as entry reaches it, and skips the rest
// of a leaf's span when the leaf does not exist.
func (pt *PageTable) each(cpu *hw.CPU, lo, hi uint64, write bool, op func(vpn uint64, pte *atomic.Uint64)) {
	for vpn := lo; vpn < hi; vpn++ {
		if pte := pt.entry(cpu, vpn, false, write); pte != nil {
			op(vpn, pte)
		} else {
			vpn |= EntriesPerNode - 1 // jump to end of this leaf span
		}
	}
}

// Map installs vpn→pfn with the given permissions, charged to cpu. Mapping
// an already-present entry overwrites it (how a protection fault upgrades a
// read-only PTE after mprotect widened the mapping's rights).
func (pt *PageTable) Map(cpu *hw.CPU, vpn, pfn uint64, perm Perm) {
	pt.entry(cpu, vpn, true, true).Store(pack(pfn, perm))
}

// MapIfAbsent installs vpn→pfn only if no translation is present, and
// reports whether it installed. Concurrent faulters on a shared table race
// here; exactly one wins (Linux's equivalent is the PTE lock + recheck).
func (pt *PageTable) MapIfAbsent(cpu *hw.CPU, vpn, pfn uint64, perm Perm) bool {
	return pt.entry(cpu, vpn, true, true).CompareAndSwap(0, pack(pfn, perm))
}

// Unmap clears vpn's entry and reports whether it was present.
func (pt *PageTable) Unmap(cpu *hw.CPU, vpn uint64) bool {
	pte := pt.entry(cpu, vpn, false, true)
	return pte != nil && pte.Swap(0)&rawPresent != 0
}

// UnmapRange clears [lo, hi) and returns how many entries were present.
func (pt *PageTable) UnmapRange(cpu *hw.CPU, lo, hi uint64) int {
	return pt.UnmapRangeFunc(cpu, lo, hi, nil)
}

// UnmapRangeFunc clears [lo, hi), invoking fn for each present entry with
// its VPN and previous PFN (how munmap gathers frames to release), and
// returns how many entries were present.
func (pt *PageTable) UnmapRangeFunc(cpu *hw.CPU, lo, hi uint64, fn func(vpn, pfn uint64)) int {
	cleared := 0
	pt.each(cpu, lo, hi, true, func(vpn uint64, pte *atomic.Uint64) {
		if old := pte.Swap(0); old&rawPresent != 0 {
			cleared++
			if fn != nil {
				fn(vpn, old>>rawShift)
			}
		}
	})
	return cleared
}

// ForEachRange invokes fn for every present entry in [lo, hi) without
// modifying the table — how fork walks the parent's translations to copy
// them into the child and downgrade them in place. Each visited leaf line
// is charged as a read.
func (pt *PageTable) ForEachRange(cpu *hw.CPU, lo, hi uint64, fn func(vpn uint64, pte PTE)) {
	pt.each(cpu, lo, hi, false, func(vpn uint64, pte *atomic.Uint64) {
		if raw := pte.Load(); raw&rawPresent != 0 {
			fn(vpn, unpack(raw))
		}
	})
}

// Replace atomically swaps vpn's entry from old to (pfn, perm), reporting
// whether it installed. COW breaks on a shared table race here: two cores
// resolving the same page each prepare a private copy, and exactly one
// wins — the loser discards its copy and adopts the winner's (the role the
// per-PTE lock plays in Linux).
func (pt *PageTable) Replace(cpu *hw.CPU, vpn uint64, old PTE, pfn uint64, perm Perm) bool {
	pte := pt.entry(cpu, vpn, false, true)
	return pte != nil && pte.CompareAndSwap(pack(old.PFN, old.Perm), pack(pfn, perm))
}

// ProtectRange rewrites the permission bits of every present entry in
// [lo, hi) — the PTE half of an mprotect: translations stay installed (no
// re-fault needed for still-permitted accesses once TLBs are flushed), only
// their rights change. Each visited entry's line is dirtied, like
// UnmapRange. Returns how many present entries the sweep covered.
func (pt *PageTable) ProtectRange(cpu *hw.CPU, lo, hi uint64, perm Perm) int {
	changed := 0
	pt.each(cpu, lo, hi, true, func(_ uint64, pte *atomic.Uint64) {
		for {
			old := pte.Load()
			if old&rawPresent == 0 {
				return
			}
			newRaw := pack(old>>rawShift, perm)
			if old == newRaw || pte.CompareAndSwap(old, newRaw) {
				changed++
				return
			}
		}
	})
	return changed
}

// Lookup performs a hardware-style walk for vpn.
func (pt *PageTable) Lookup(cpu *hw.CPU, vpn uint64) (PTE, bool) {
	return present(pt.entry(cpu, vpn, false, false))
}

// Peek returns vpn's entry without charging simulated cost — for callers
// that just touched (and paid for) the entry's line and need to re-read it,
// and for the walk/shootdown recheck: real hardware's page walk and TLB
// insert are atomic against the shootdown protocol (the IPI ack round
// orders them), the Go-level walk+insert is not, so the MMU re-validates
// its insert through Peek. The recheck is an emulation artifact, not a
// modeled memory operation, so it is cost-free. Peek materializes nothing:
// an entry on a line no walk has touched is absent.
func (pt *PageTable) Peek(vpn uint64) (PTE, bool) {
	d2 := peekChild(&pt.root, idxAt(vpn, 3))
	d1 := peekChild(d2, idxAt(vpn, 2))
	return present(peekChild(d1, idxAt(vpn, 1)).peek(idxAt(vpn, 0)))
}

// present reads an entry, reporting whether it holds a translation; a nil
// entry (no path to it, or a line no walk has touched) holds none.
func present(pte *atomic.Uint64) (PTE, bool) {
	if pte == nil {
		return PTE{}, false
	}
	if raw := pte.Load(); raw&rawPresent != 0 {
		return unpack(raw), true
	}
	return PTE{}, false
}

// peekChild returns the node that entry i of n points to, nil when there is
// none.
func peekChild[C any](n *node[atomic.Pointer[C]], i int) *C {
	slot := n.peek(i)
	if slot == nil {
		return nil
	}
	return slot.Load()
}

// Bytes returns the memory consumed by table nodes, matching how the paper
// accounts hardware page table overhead (Table 2, §5.4).
func (pt *PageTable) Bytes() uint64 {
	return uint64(pt.nodes.Load()) * NodeBytes
}

// Nodes returns the number of allocated table nodes.
func (pt *PageTable) Nodes() int64 { return pt.nodes.Load() }
