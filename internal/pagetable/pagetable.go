// Package pagetable implements x86-64-shaped 4-level hardware page tables:
// 512-entry nodes indexed by 9 bits of virtual page number per level. The
// same structure serves both RadixVM's per-core page tables and the
// shared-table baselines; the MMU abstraction in internal/vm chooses how
// many tables an address space has and who gets shot down.
//
// Walks take no lock; PTE reads and writes charge coherence cost on the
// containing line, which is how shared-table contention (Figure 9's "Shared"
// curves) emerges. A walk touches a line before it reads the entries there,
// so what it reads is current at its last preemption point. Entries and
// directories are plain words: the simulated cores run one at a time
// (hw.Sched), so nothing but the touch of a line orders them.
package pagetable

import "radixvm/internal/hw"

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
// the node. The first toucher claims the inline line for its line, and the
// claim is final, so every toucher of a line agrees on where it lives:
// inline if at names it, in the directory otherwise (whose slot for the
// inline line stays nil). A directory exists only once at is set.
//
// E is the entry type: a raw PTE in a leaf, a pointer to the next level's
// node above it. The four levels are four instantiations, so
// the walk is three typed descents rather than a loop over a level field.
type node[E any] struct {
	first line[E]
	at    int32
	dir   *[linesPerNode]*line[E]
}

// line is one touched cache line of a node: its coherence model and the
// eight entries it holds. The entries live with the Line because both appear
// at the same moment — the first touch, an absent-entry read included, since
// a read of an empty entry still pulls the line into the reader's cache and
// the next toucher must find that sharer state — so one claim covers both,
// and an entry of a never-touched line needs no storage: nothing can have
// written it.
type line[E any] struct {
	hw.Line
	e [slotsPerLine]E
}

type (
	leaf = node[uint64] // level 0: PTEs, packed as pack describes
	dir1 = node[*leaf]
	dir2 = node[*dir1]
	dir3 = node[*dir2] // level Levels-1: the root
)

// touch returns entry i of n and the cache line holding it, materializing
// the line on first touch.
func (n *node[E]) touch(i int) (*hw.Line, *E) {
	l := n.lineOf(i)
	return &l.Line, &l.e[i%slotsPerLine]
}

// lineOf returns the line holding entry i of n, materializing it on first
// touch: the inline line when no walk has touched n yet, else a block in the
// directory, which the first touch of a second line builds.
func (n *node[E]) lineOf(i int) *line[E] {
	li := int32(i/slotsPerLine) + 1
	if n.at == 0 {
		n.at = li // the first touch claims the inline line
	}
	if n.at == li {
		return &n.first
	}
	if n.dir == nil {
		n.dir = new([linesPerNode]*line[E])
	}
	p := &n.dir[li-1]
	if *p == nil {
		*p = new(line[E])
	}
	return *p
}

// peek returns entry i of n without materializing anything: nil when no
// walk has touched the entry's line yet, so the entry is still zero — or
// when n itself is nil, so a cost-free walk can chain its steps.
func (n *node[E]) peek(i int) *E {
	if n == nil {
		return nil
	}
	li := int32(i/slotsPerLine) + 1
	if n.at == li {
		return &n.first.e[i%slotsPerLine]
	}
	if n.dir == nil || n.dir[li-1] == nil {
		return nil
	}
	return &n.dir[li-1].e[i%slotsPerLine]
}

// PageTable is one hardware page table tree.
type PageTable struct {
	m     *hw.Machine
	root  dir3
	nodes int64 // allocated table nodes, for memory accounting
}

// New creates an empty page table: its root node, which lives in the
// PageTable itself.
func New(m *hw.Machine) *PageTable {
	return &PageTable{m: m, nodes: 1}
}

func newNode[N any](pt *PageTable) *N {
	pt.nodes++
	return new(N)
}

func idxAt(vpn uint64, level int) int {
	return int(vpn >> (uint(level) * BitsPerLevel) & (EntriesPerNode - 1))
}

// descend is one interior step of a walk: it reads entry i of n, charged to
// cpu, and returns the line it read and the node the entry points to,
// installing a fresh one when the entry is empty and create is set. The
// node is nil when the entry is empty and stays so.
func descend[C any](pt *PageTable, cpu *hw.CPU, n *node[*C], i int, create bool) (*hw.Line, *C) {
	l, slot := n.touch(i)
	cpu.Read(l)
	if *slot == nil && create {
		*slot = newNode[C](pt)
		cpu.Write(l)
	}
	return l, *slot
}

// Walker walks one page table and keeps the path of its last walk that
// reached a leaf: the three interior lines it read, the leaf, and the leaf
// line it last touched. A walk to a vpn under the same leaf reads the same
// three lines in the same order, which is the whole charge of a fresh walk
// down a path that exists, and skips the descents. A cached path cannot go
// stale: table nodes and their lines are never freed or replaced (an
// interior entry goes from empty to a node once and keeps it), so every
// later walk to that leaf would find the same path. A walk that stops at an
// empty entry caches nothing, and the next one starts from the root, as an
// uncached walk would.
//
// The same core read those lines one walk earlier, so they are usually
// still local hits, and so is the entry's line once a walk has touched it:
// a cached walk charges its four touches in one step (hw.CPU.HitRun). When
// that refuses — on the explorer, where every touch is a preemption point,
// when a line has moved, or when a mailbox message falls due by the run's
// end — it charges the three path reads as one run if that holds, else one
// by one, and then touches the entry's line, which is where a run most
// often misses. Either way it charges what a fresh walk would.
//
// A range walk uses one Walker for the whole range; a single-entry
// operation is a zero Walker's one walk, or a walk of a Walker the caller
// keeps for its table, as a per-core table keeps its core's and each core
// of a shared table keeps its own (On). A Walker is for one core.
type Walker struct {
	pt   *PageTable
	span uint64 // vpn>>BitsPerLevel + 1 for the cached leaf; 0 while none
	path [Levels - 1]*hw.Line
	leaf *leaf
	lat  uint64 // vpn/slotsPerLine + 1 for the cached leaf line; 0 while none
	ln   *line[uint64]
}

// Walker returns a Walker of pt with no path cached.
func (pt *PageTable) Walker() *Walker { return &Walker{pt: pt} }

// Reset rebinds w to pt with no path cached: how the keeper of a Walker
// follows its table being replaced (nil while there is none).
func (w *Walker) Reset(pt *PageTable) { *w = Walker{pt: pt} }

// On returns w bound to pt: w itself, rebound with no path cached unless it
// walks pt already. A keeper that names the table at each walk, as a shared
// table's cores do while a fork may replace it, keeps w's path across walks
// of one table.
func (w *Walker) On(pt *PageTable) *Walker {
	if w.pt != pt {
		w.Reset(pt)
	}
	return w
}

// walk returns the leaf node for vpn through descents from the root,
// allocating intermediate nodes when create is set, and caches the path.
// Returns nil when the path does not exist.
func (w *Walker) walk(cpu *hw.CPU, vpn uint64, create bool) *leaf {
	pt := w.pt
	l3, d2 := descend(pt, cpu, &pt.root, idxAt(vpn, 3), create)
	if d2 == nil {
		return nil
	}
	l2, d1 := descend(pt, cpu, d2, idxAt(vpn, 2), create)
	if d1 == nil {
		return nil
	}
	l1, n := descend(pt, cpu, d1, idxAt(vpn, 1), create)
	if n == nil {
		return nil
	}
	w.span, w.path, w.leaf = vpn>>BitsPerLevel+1, [Levels - 1]*hw.Line{l3, l2, l1}, n
	return n
}

// lineFor returns the line of the cached leaf that holds vpn's entry,
// materializing it on first touch, and caches it.
func (w *Walker) lineFor(vpn uint64) *line[uint64] {
	if at := vpn/slotsPerLine + 1; at != w.lat {
		w.ln, w.lat = w.leaf.lineOf(idxAt(vpn, 0)), at
	}
	return w.ln
}

// entry is the one step every entry operation takes: it walks to vpn's
// leaf, creating the path when create is set, touches vpn's entry and
// charges its line to cpu, as a write when write is set. Returns nil when
// the path does not exist. What it needs of w it reads before its first
// touch: w's keeper may reset it at any preemption point.
func (w *Walker) entry(cpu *hw.CPU, vpn uint64, create, write bool) *uint64 {
	if vpn>>BitsPerLevel+1 == w.span {
		path, ln := w.path, w.lineFor(vpn)
		if !cpu.HitRun(path[:], &ln.Line, write) {
			if !cpu.HitRun(path[:Levels-2], path[Levels-2], false) {
				for _, l := range path {
					cpu.Read(l)
				}
			}
			touchAs(cpu, &ln.Line, write)
		}
		return &ln.e[vpn%slotsPerLine]
	}
	if w.walk(cpu, vpn, create) == nil {
		return nil
	}
	ln := w.lineFor(vpn)
	touchAs(cpu, &ln.Line, write)
	return &ln.e[vpn%slotsPerLine]
}

// touchAs charges cpu a touch of l, as a write when write is set.
func touchAs(cpu *hw.CPU, l *hw.Line, write bool) {
	if write {
		cpu.Write(l)
	} else {
		cpu.Read(l)
	}
}

// each is the one range walk: it runs op on the entry of every vpn in
// [lo, hi), each reached and charged as entry reaches it, and skips the rest
// of a leaf's span when the leaf does not exist.
//
// Once entry has touched an entry's path and line, each later entry of the
// same leaf line is charged as its Levels touches in one step
// (hw.CPU.ChargeHits), without HitRun's proof that they hit, and goes
// through entry only where that refuses: on the explorer, or when a mailbox
// message falls due inside the run. The charge is exact by two invariants.
// Off the explorer no other core runs between two entries of one walk:
// bodies yield only between operations, an interrupt's handler runs on its
// sender's turn, and no op of a range walk sends one. And a core's own touches never turn
// its own hit into a miss, so nothing op charges — fork's Maps into the
// child's table, the references it takes, or its downgrade of the parent's
// entry through a second Walker, which upgrades the line this walk read —
// can make those touches miss.
func (pt *PageTable) each(cpu *hw.CPU, lo, hi uint64, write bool, op func(vpn uint64, pte *uint64)) {
	w := pt.Walker()
	for vpn := lo; vpn < hi; vpn++ {
		pte := w.entry(cpu, vpn, false, write)
		if pte == nil {
			vpn |= EntriesPerNode - 1 // jump to end of this leaf span
			continue
		}
		op(vpn, pte)
		for ln := w.ln; (vpn+1)%slotsPerLine != 0 && vpn+1 < hi && cpu.ChargeHits(Levels); {
			vpn++
			op(vpn, &ln.e[vpn%slotsPerLine])
		}
	}
}

// Map is PageTable.Map through w's cached path.
func (w *Walker) Map(cpu *hw.CPU, vpn, pfn uint64, perm Perm) {
	*w.entry(cpu, vpn, true, true) = pack(pfn, perm)
}

// Map installs vpn→pfn with the given permissions, charged to cpu. Mapping
// an already-present entry overwrites it (how a protection fault upgrades a
// read-only PTE after mprotect widened the mapping's rights).
func (pt *PageTable) Map(cpu *hw.CPU, vpn, pfn uint64, perm Perm) {
	pt.Walker().Map(cpu, vpn, pfn, perm)
}

// MapIfAbsent installs vpn→pfn only if no translation is present, and
// reports whether it installed. Concurrent faulters on a shared table race
// here; exactly one wins (Linux's equivalent is the PTE lock + recheck).
func (w *Walker) MapIfAbsent(cpu *hw.CPU, vpn, pfn uint64, perm Perm) bool {
	return swapIf(w.entry(cpu, vpn, true, true), 0, pack(pfn, perm))
}

// swapIf stores to in *pte if it holds from, and reports whether it did:
// the step a racing faulter or COW breaker wins or loses. It runs between
// two preemption points, so no other core's step comes between its load and
// its store.
func swapIf(pte *uint64, from, to uint64) bool {
	if pte == nil || *pte != from {
		return false
	}
	*pte = to
	return true
}

// Unmap clears vpn's entry and reports whether it was present.
func (pt *PageTable) Unmap(cpu *hw.CPU, vpn uint64) bool {
	pte := pt.Walker().entry(cpu, vpn, false, true)
	if pte == nil {
		return false
	}
	old := *pte
	*pte = 0
	return old&rawPresent != 0
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
	pt.each(cpu, lo, hi, true, func(vpn uint64, pte *uint64) {
		old := *pte
		*pte = 0
		if old&rawPresent != 0 {
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
	pt.each(cpu, lo, hi, false, func(vpn uint64, pte *uint64) {
		if raw := *pte; raw&rawPresent != 0 {
			fn(vpn, unpack(raw))
		}
	})
}

// Replace swaps vpn's entry from old to (pfn, perm), reporting
// whether it installed. COW breaks on a shared table race here: two cores
// resolving the same page each prepare a private copy, and exactly one
// wins — the loser discards its copy and adopts the winner's (the role the
// per-PTE lock plays in Linux).
func (w *Walker) Replace(cpu *hw.CPU, vpn uint64, old PTE, pfn uint64, perm Perm) bool {
	return swapIf(w.entry(cpu, vpn, false, true), pack(old.PFN, old.Perm), pack(pfn, perm))
}

// ProtectRange rewrites the permission bits of every present entry in
// [lo, hi) — the PTE half of an mprotect: translations stay installed (no
// re-fault needed for still-permitted accesses once TLBs are flushed), only
// their rights change. Each visited entry's line is dirtied, like
// UnmapRange. Returns how many present entries the sweep covered.
func (pt *PageTable) ProtectRange(cpu *hw.CPU, lo, hi uint64, perm Perm) int {
	changed := 0
	pt.each(cpu, lo, hi, true, func(_ uint64, pte *uint64) {
		if old := *pte; old&rawPresent != 0 {
			*pte = pack(old>>rawShift, perm)
			changed++
		}
	})
	return changed
}

// Lookup performs a hardware-style walk for vpn.
func (pt *PageTable) Lookup(cpu *hw.CPU, vpn uint64) (PTE, bool) {
	return pt.Walker().Lookup(cpu, vpn)
}

// Lookup is PageTable.Lookup through w's cached path.
func (w *Walker) Lookup(cpu *hw.CPU, vpn uint64) (PTE, bool) {
	return present(w.entry(cpu, vpn, false, false))
}

// Peek returns vpn's entry without charging simulated cost, for callers
// that just touched (and paid for) the entry's line and need to re-read it.
// Peek materializes nothing: an entry on a line no walk has touched is
// absent.
func (pt *PageTable) Peek(vpn uint64) (PTE, bool) {
	d2 := peekChild(&pt.root, idxAt(vpn, 3))
	d1 := peekChild(d2, idxAt(vpn, 2))
	return present(peekChild(d1, idxAt(vpn, 1)).peek(idxAt(vpn, 0)))
}

// present reads an entry, reporting whether it holds a translation; a nil
// entry (no path to it, or a line no walk has touched) holds none.
func present(pte *uint64) (PTE, bool) {
	if pte == nil {
		return PTE{}, false
	}
	if raw := *pte; raw&rawPresent != 0 {
		return unpack(raw), true
	}
	return PTE{}, false
}

// peekChild returns the node that entry i of n points to, nil when there is
// none.
func peekChild[C any](n *node[*C], i int) *C {
	if slot := n.peek(i); slot != nil {
		return *slot
	}
	return nil
}

// Bytes returns the memory consumed by table nodes, matching how the paper
// accounts hardware page table overhead (Table 2, §5.4).
func (pt *PageTable) Bytes() uint64 {
	return uint64(pt.nodes) * NodeBytes
}

// Nodes returns the number of allocated table nodes.
func (pt *PageTable) Nodes() int64 { return pt.nodes }
