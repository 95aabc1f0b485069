// Package radix implements the RadixVM paper's core index structure (§3.2):
// a fixed-depth radix tree over virtual page numbers, 9 bits per level,
// structurally similar to a hardware page table.
//
// Properties the paper's design depends on, all implemented here:
//
//   - Point values are stored per page in leaf slots, but a range whose
//     pages all carry identical metadata can be *folded* into a single
//     interior slot, so vast mappings cost a handful of slots.
//   - Each slot (interior and leaf) reserves a lock bit. Operations lock
//     the slots covering their range strictly left-to-right, so operations
//     on overlapping ranges serialize on the leftmost overlapping slot and
//     operations on disjoint ranges touch disjoint lock bits.
//   - Traversal takes no locks: descending pins each node through a
//     Refcache weak reference, which also lets the tree revive a node that
//     went empty before Refcache got around to deleting it.
//   - Expanding a folded slot allocates a child node whose slots all carry
//     the parent's value with the lock bit propagated to every entry, then
//     unlocks the parent slot — exactly the paper's protocol.
//   - Interior slots are written only at initialization (expansion) or by
//     folded-range operations, so lookups on disjoint keys induce no cache
//     line transfers, unlike a balanced tree or skip list.
//
// # Copy-on-diverge node representation
//
// A node *simulates* the paper's 8 KB page of 512 (value, lock-bit) slots,
// but its real Go-side state — per-slot values, virtual-time gates, and
// cache-line models — lives in slotGroups, one per cache line of four slots,
// which get storage only when something touches that line: a lookup's read,
// a locker's write, an expansion installing a child link. The node's header
// stands for every other slot: one fill value (the expansion fill, or none),
// one compact gate table recording the bulk lock-bit propagation and release
// (uniformGates), and the packed lock bits, which are always present. Slots
// nobody has touched cost nothing beyond their lock bit. The life of a group,
// one routine per transition:
//
//	born by                 without storage                  given storage when
//	───────                 ───────────────                  ──────────────────
//	newNode ──────────────▶ absent (uniform): the header ──▶ its line is first touched:
//	                        stands for its slots             materialized (initGroup)
//
//	cloneShell of a ──────▶ image-born: present in the ────▶ its line is first touched:
//	frozen node             directory, slots read through    realized (nodeImage.fill)
//	(divergeChild)          to the source's image (peek)
//	   └─ the image cannot serve (shell.abandon) ─┐
//	                                              ▼
//	cloneShell of a ───────────────────────────────────────▶ the copier's sweep reaches it:
//	live root (ForkLazy)                                     mirrored (shell.cell, forkGroup)
//
// Every transition into storage is exact — the group holds what stood for its
// slots: copies of the fill with gates restored from the table (materialized),
// copies of the image's or the source's values behind a cold line and free
// gates (realized, mirrored) — so the representation moves no virtual cycle;
// only host memory follows what a tree's owner touches (a child touching 32
// pages of a 512-page leaf pays for eight groups, not 128). An image
// (nodeImage) is the one immutable record, shared by all copies of a node no
// tree can write anymore (lazy.go), of what each slot of a copy is born
// holding.
//
// Node lifetime: each node's Refcache object counts its non-empty slots
// plus transient traversal pins; when the true count reaches zero the node
// is reclaimed, clearing its parent slot through the weak-reference kill
// protocol. Reclaimed nodes recycle through per-CPU pools, keeping their
// materialized groups for the next incarnation.
package radix

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"radixvm/internal/hw"
	"radixvm/internal/refcache"
)

const (
	// BitsPerLevel is the number of VPN bits decoded per tree level.
	BitsPerLevel = 9
	// SlotsPerNode is each node's fan-out.
	SlotsPerNode = 1 << BitsPerLevel
	// Levels gives a 36-bit VPN space (paper Figure 3).
	Levels = 4
	// MaxVPN is the first VPN beyond the tree's range.
	MaxVPN = uint64(1) << (BitsPerLevel * Levels)
	// NodeBytes approximates one node's simulated memory footprint for
	// Table 2 accounting: 512 slots of 16 bytes (value pointer +
	// lock/state). For the real Go-side footprint see FootprintBytes.
	NodeBytes = SlotsPerNode * 16
	// slotsPerLine: four 16-byte slots share a 64-byte cache line, the
	// granularity of false sharing (§5.5) and of slot state (slotGroup).
	slotsPerLine = 4
	// groupsPerNode is the size of a node's slot-group directory.
	groupsPerNode = SlotsPerNode / slotsPerLine
)

// Tree is a concurrent radix tree mapping VPNs to values of type V. A slot
// holds its own plain copy (c := *v) of its value: splitting a folded range
// into per-page slots copies the folded value into each.
type Tree[V any] struct {
	m        *hw.Machine
	rc       *refcache.Refcache
	pageZero uint64 // m.Config().PageZero, hoisted out of newNode
	root     *node[V]

	// cpus is the per-CPU scratch state (see cpuState), built on a core's
	// first operation: a lazily forked child runs on two or three cores of
	// a 64-core machine. family is the tree NewCopy built, kept reachable by
	// every tree it forks for its per-CPU states' Range carriers they borrow.
	cpus   []atomic.Pointer[cpuState[V]]
	family *Tree[V]

	// gen is the tree's current generation. Nodes record the generation
	// they were created (or last adopted) under; a node whose gen differs
	// from the tree's — or that belongs to another tree outright — is
	// *foreign*: shared with a lazily forked snapshot and copied on first
	// write (see lazy.go). A tree that was never forked never bumps gen.
	gen atomic.Uint64

	// The fork's value hooks (SetHooks), inherited by ForkLazy children; nil
	// for a tree of plain values.
	hooks Hooks[V]

	// The per-CPU holds (cpuState.hold) and lazyForks form the quiescence
	// gate that gives ForkLazy its whole-tree snapshot atomicity (lazy.go):
	// every LockRange/LockPage raises its CPU's hold flag for its critical
	// section (no shared-line traffic, no virtual-time cost), and ForkLazy
	// raises lazyForks and drains all holds before taking its snapshot, so
	// no locked operation straddles the generation bump.
	lazyForks atomic.Int32

	nodesLive    atomic.Int64
	nodesEver    atomic.Int64
	groupsEver   atomic.Int64 // slot groups given storage (fresh allocations)
	groupsLive   atomic.Int64 // slot groups with storage attached to live or pooled nodes
	carriersEver atomic.Int64 // value carriers heap-allocated (the carrier-leak tripwire)
}

// uniformGates is the compact virtual-time gate state shared by every slot
// whose group has not materialized. Expansion primes all 512 gates at one
// instant (the bulk lock-bit propagation, §3.4) and then releases them in
// a handful of bursts — all-but-one slot at one time in the fault path
// (releaseAllExcept), a prefix and a suffix at two times in the range-lock
// path (bulkRelease from lockedDescend) — so the state is a step function
// over slot indices with very few steps ("plateaus"). Only those two bulk
// paths append here, and within one node they release ascending contiguous
// index runs at non-decreasing times, which appending plateaus represents
// exactly; every other release goes through a group's own gate. Both paths
// work on a node newNode just gave an empty table and add at most two
// plateaus to it, so a full table is a bug (release panics).
type uniformGates struct {
	busyStart uint64 // bulk Prime time; 0 if the node was born unlocked
	n         int8
	idx       [maxPlateaus]int32  // plateau p covers slots [idx[p], idx[p+1])
	free      [maxPlateaus]uint64 // release time of plateau p's slots
}

const maxPlateaus = 4

// freeAt returns the gate release time a materializing group must restore
// for slot i (0 before the first plateau). Slots still locked may report a
// plateau time prematurely, which is unobservable — no core can arrive at a
// held bit's gate, and the eventual release maxes the real end time in.
func (u *uniformGates) freeAt(i int) uint64 {
	var free uint64
	for p := 0; p < int(u.n); p++ {
		if int32(i) >= u.idx[p] {
			free = u.free[p]
		}
	}
	return free
}

// release records the bulk release of slot i at virtual time t.
func (u *uniformGates) release(i int, t uint64) {
	if u.n > 0 && u.free[u.n-1] == t {
		return // extends the open plateau
	}
	if int(u.n) == maxPlateaus {
		panic("radix: bulk lock-bit releases at more than maxPlateaus distinct times in one node")
	}
	u.idx[u.n] = int32(i)
	u.free[u.n] = t
	u.n++
}

// slotGroup is the per-slot state of the slotsPerLine slots sharing one
// simulated cache line: the line model, the per-slot virtual-time gates, and
// the per-slot states, with embedded slabs backing the slots' private copies
// so giving a group storage is a single allocation. All of it belongs to one
// node of one tree: a line or a gate two trees charged would move virtual
// time, so what copies of a node share is never a group but an image.
type slotGroup[V any] struct {
	line  hw.Line
	gates [slotsPerLine]hw.Gate
	sts   [slotsPerLine]atomic.Pointer[slotState[V]]
	slab  [slotsPerLine]slotState[V] // backs the states of slots holding a copy
	vals  [slotsPerLine]V            // backs the copies
}

// node simulates the paper's 8 KB radix node (Figure 3): 512 slots, each a
// 16-byte (value pointer, lock bit) pair, as a compact header plus a directory
// of slot groups (package comment). The 512 lock bits are packed into 8
// atomic words and always present (the lock really is one bit of the slot,
// as in the paper).
type node[V any] struct {
	tree      *Tree[V]
	level     int    // 0 at leaves
	base      uint64 // first VPN covered by this node
	parent    *node[V]
	parentIdx int
	obj       *refcache.Obj // counts used slots + traversal pins

	// gen is the tree generation this node was created (or last adopted)
	// under; compared against tree.gen to detect foreign (snapshot-shared)
	// nodes. links counts how many parent slots — across all trees sharing
	// this node — currently reference it; the last dropLink releases the
	// node's contents (see lazy.go). Both are written only while the node
	// is private or under its parent slot's lock bit.
	gen   uint64
	links atomic.Int32

	// uniSt is the slot state every unmaterialized slot holds (nil for an
	// empty node). It is written only while the node is unpublished and
	// immutable afterwards: post-publication writes go through a slot's
	// materialized group. uniStore and uniVal are its embedded backing: the
	// node allocates nothing for its fill and never aliases caller-owned
	// storage — in particular not a value carrier's, which lets folded-slot
	// expansion retire the carrier it just expanded.
	uniSt    *slotState[V]
	uniStore slotState[V]
	uniVal   V

	// matMu serializes group materialization against uniform-gate
	// updates (bulk lock-bit releases). Taken once per group lifetime
	// and once per bulk release; never on steady-state paths.
	matMu sync.Mutex
	uni   uniformGates

	// forkBusy/forkForks (matMu) track in-progress forks holding this
	// node's slot bits: forkForks counts them and forkBusy is the earliest
	// arrival among them — the start of the busy period forkUnlock will
	// merge into uni. A group materializing mid-fork merges it into its
	// restored gates (initGroup): a locker could otherwise carry a later
	// busyStart and pass the gate without waiting out the fork's critical
	// section.
	forkBusy  uint64
	forkForks int32

	bits [SlotsPerNode / 64]atomic.Uint64 // packed slot lock bits
	dir  atomic.Pointer[groupDir[V]]      // the node's slot groups; nil = none

	// img is the image this node was born from, if it is a path copy of a
	// frozen node. peek reads it with no lock, so it is set while the copy
	// is still private and stays set for the copy's lifetime; only the next
	// incarnation (recycle, cloneShell) replaces it. copyImg is the other
	// side: the image of this node's own copies, cached here by the first
	// tree that path-copied it once no tree could write it anymore.
	img     *nodeImage[V]
	copyImg atomic.Pointer[nodeImage[V]]
}

// nodeImage is the state every path copy of one frozen node is born with.
//
// A node foreign to every tree (lazy.go) is never written in place again, so
// all its copies are born identical: the same groups, each slot holding the
// same child link or a copy of the same value, which the OnDiverge hook has
// turned into the same thing. The first tree to diverge the node records that
// in an image, caches it on the source, and every copy — its own included —
// is born as a header whose directory has the image's groups without storage.
//
// An image is immutable once its sweep ends, and it describes the source as
// of the directory it was built over: a lookup that materializes a group in
// the frozen source publishes a new directory, and the next divergence builds
// a new image. A repeat sweep also checks each source slot against src as it
// goes, and falls back to mirroring if one has changed (shell.abandon).
type nodeImage[V any] struct {
	over   *groupDir[V] // the source's directory when the image was built
	bits   groupSet
	groups []imageGroup[V] // dense, ascending; never reallocated (sts point into vals)
}

// imageGroup is one group of an image.
type imageGroup[V any] struct {
	src  [slotsPerLine]*slotState[V] // what the source's slots held
	sts  [slotsPerLine]slotState[V]  // what a copy's slots are born holding; zero = empty
	vals [slotsPerLine]V             // backs sts, like slotGroup.vals
}

// group returns the image's group gi, or nil if copies are born without it.
func (im *nodeImage[V]) group(gi int) *imageGroup[V] {
	if !im.bits.has(gi) {
		return nil
	}
	return &im.groups[im.bits.rank(gi)]
}

// grow adds group gi to an image under construction, which adds them in
// ascending order. It returns nil if the source turned out to have more groups
// than the image was sized for (one materialized mid-sweep).
func (im *nodeImage[V]) grow(gi int) *imageGroup[V] {
	k := len(im.groups)
	if k == cap(im.groups) {
		return nil
	}
	im.bits.add(gi)
	im.groups = im.groups[:k+1]
	return &im.groups[k]
}

// agrees reports whether the image was built from a source whose slot idx
// held st, mirror saying whether a copy's header fails to stand for that (so
// that the slot's group is one copies have).
func (im *nodeImage[V]) agrees(idx int, st *slotState[V], mirror bool) bool {
	if ig := im.group(idx / slotsPerLine); ig != nil {
		return ig.src[idx%slotsPerLine] == st
	}
	return !mirror
}

// peek returns what slot j of group gi is born holding: a state inside the
// image, shared by every copy and read-only.
func (im *nodeImage[V]) peek(gi, j int) *slotState[V] {
	st := &im.group(gi).sts[j]
	if st.child == nil && st.val == nil {
		return nil
	}
	return st
}

// fill gives g, zeroed storage for group gi of a copy born from im, the first
// upto slots' born state: the child links, and private copies of the values.
func (im *nodeImage[V]) fill(g *slotGroup[V], gi, upto int) {
	ig := im.group(gi)
	for j := 0; j < upto; j++ {
		switch st := &ig.sts[j]; {
		case st.child != nil:
			g.slab[j] = slotState[V]{child: st.child}
		case st.val != nil:
			copyInto(&g.slab[j], &g.vals[j], st.val)
		default:
			continue
		}
		storePlain(&g.sts[j], &g.slab[j])
	}
}

// copyInto makes st the slot state of a copy of v backed by store, and
// returns the copy.
func copyInto[V any](st *slotState[V], store *V, v *V) *V {
	*store = *v
	*st = slotState[V]{val: store}
	return store
}

// groupSet is a set of group indices. A node's directory and an image each
// pair one with a dense slice holding an element per member, in ascending
// group order.
type groupSet [groupsPerNode / 64]uint64

func (s *groupSet) has(gi int) bool { return s[gi>>6]&(1<<(uint(gi)&63)) != 0 }
func (s *groupSet) add(gi int)      { s[gi>>6] |= 1 << (uint(gi) & 63) }

// rank returns the number of members below gi: gi's position in the dense
// slice, member or not.
func (s *groupSet) rank(gi int) int {
	r := bits.OnesCount64(s[gi>>6] & (1<<(uint(gi)&63) - 1))
	if gi >= 64 {
		r += bits.OnesCount64(s[0]) // the set is two words (asserted below)
	}
	return r
}

var _ [2]uint64 = groupSet{}

func (s *groupSet) count() int { return bits.OnesCount64(s[0]) + bits.OnesCount64(s[1]) }

// below returns the members of s that are smaller than gi.
func (s groupSet) below(gi int) groupSet {
	for w := range s {
		switch {
		case w > gi>>6:
			s[w] = 0
		case w == gi>>6:
			s[w] &= 1<<(uint(gi)&63) - 1
		}
	}
	return s
}

// groupDir is a node's directory of slot groups: a presence bitmap plus a
// dense slice with one entry per present group, in ascending group index
// order — one pointer per present group, four of them inline, since the
// typical node diverges in zero, one, or two groups. Only an image-born group
// (package comment) is present without storage: its entry stays nil until it
// is realized.
//
// A published groupDir's membership is immutable. Adding groups
// (materializeLocked under matMu) builds a new directory and publishes it
// with one atomic pointer store, so lock-free readers get a consistent
// bitmap+slice snapshot from a single load; giving a present group its
// storage is one atomic store into the entry it already has. A node still
// private to the goroutine constructing it has its directory filled in place.
type groupDir[V any] struct {
	bits   groupSet
	groups []atomic.Pointer[slotGroup[V]]
	few    [dirInline]atomic.Pointer[slotGroup[V]] // backs groups while it fits
}

// dirInline is the number of directory entries a groupDir holds inline.
const dirInline = 4

// newGroupDir returns an empty, private directory with room for n groups.
func newGroupDir[V any](n int) *groupDir[V] {
	d := &groupDir[V]{}
	if n <= dirInline {
		d.groups = d.few[:0]
	} else {
		d.groups = make([]atomic.Pointer[slotGroup[V]], 0, n)
	}
	return d
}

// newGroupDirOf returns a private directory in which exactly the groups of
// set are present, none with storage yet.
func newGroupDirOf[V any](set groupSet) *groupDir[V] {
	n := set.count()
	d := newGroupDir[V](n)
	d.bits = set
	d.groups = d.groups[:n]
	return d
}

// insert makes g group gi of a directory still private to the goroutine
// filling it, which adds groups in ascending order.
func (d *groupDir[V]) insert(gi int, g *slotGroup[V]) {
	d.bits.add(gi)
	d.groups = append(d.groups, atomic.Pointer[slotGroup[V]]{})
	d.groups[len(d.groups)-1].Store(g)
}

// entry returns group gi's directory entry, or nil if the group is absent.
func (d *groupDir[V]) entry(gi int) *atomic.Pointer[slotGroup[V]] {
	if d == nil || !d.bits.has(gi) {
		return nil
	}
	return &d.groups[d.bits.rank(gi)]
}

// get returns the storage of group gi, or nil if it is absent or present
// without any.
func (d *groupDir[V]) get(gi int) *slotGroup[V] {
	if d == nil || !d.bits.has(gi) {
		return nil
	}
	return d.groups[d.bits.rank(gi)].Load()
}

// groupLoad returns the node's group gi, or nil if nothing has touched its
// line yet.
func (n *node[V]) groupLoad(gi int) *slotGroup[V] {
	return n.dir.Load().get(gi)
}

// forEachGroup calls fn for every group that has storage, in ascending
// group index order.
func (n *node[V]) forEachGroup(fn func(gi int, g *slotGroup[V])) {
	d := n.dir.Load()
	if d == nil {
		return
	}
	k := 0
	for w := range d.bits {
		bw := d.bits[w]
		for bw != 0 {
			b := bits.TrailingZeros64(bw)
			bw &^= 1 << uint(b)
			if g := d.groups[k].Load(); g != nil {
				fn(w*64+b, g)
			}
			k++
		}
	}
}

// group returns slot idx's group, giving it storage if needed: the caller is
// about to touch its line or gates (pure value reads use peek).
func (n *node[V]) group(idx int) *slotGroup[V] {
	gi := idx / slotsPerLine
	if g := n.groupLoad(gi); g != nil {
		return g
	}
	n.materialize(gi, gi)
	return n.groupLoad(gi)
}

// materialize gives groups [g0, g1], whose lines the caller is about to
// touch, their storage if any of them lacks it.
func (n *node[V]) materialize(g0, g1 int) {
	d := n.dir.Load()
	for gi := g0; gi <= g1; gi++ {
		if d.get(gi) == nil {
			n.matMu.Lock()
			n.materializeLocked(g0, g1, true)
			n.matMu.Unlock()
			return
		}
	}
}

// realizeRun is how many neighbouring groups get storage together when an
// image-born group is first touched: the aligned run around it, in one
// allocation. Touches cluster, and nobody can tell a realized group from an
// unrealized one, so rounding out is free in virtual time.
const realizeRun = 4

// materializeLocked gives groups [g0, g1] their storage, in one allocation and
// at most one directory publish. matMu held. A group present without storage
// is realized together with its like in the aligned runs around the range.
// If uniform is set, a group absent from the directory materializes out of the
// node's uniform state; unlike a realization that is visible — a later fork
// mirrors, charges and bills the group — so it happens for exactly the groups
// asked for.
func (n *node[V]) materializeLocked(g0, g1 int, uniform bool) {
	w0, w1 := g0, g1
	if n.img != nil {
		w0, w1 = g0&^(realizeRun-1), g1|(realizeRun-1)
	} else if !uniform {
		return
	}
	d := n.dir.Load()
	var add groupSet
	need := 0
	for gi := w0; gi <= w1; gi++ {
		if e := d.entry(gi); e != nil {
			if e.Load() == nil {
				need++
			}
		} else if uniform && g0 <= gi && gi <= g1 {
			add.add(gi)
			need++
		}
	}
	if need == 0 {
		return
	}
	nd := d
	if add != (groupSet{}) {
		// The new directory: d's entries at their new ranks, the added
		// groups' entries still empty.
		if d != nil {
			for w := range add {
				add[w] |= d.bits[w]
			}
		}
		nd = newGroupDirOf[V](add)
		for gi, k := 0, 0; d != nil && k < len(d.groups); gi++ {
			if d.bits.has(gi) {
				nd.groups[nd.bits.rank(gi)].Store(d.groups[k].Load())
				k++
			}
		}
	}
	slab := make([]slotGroup[V], need)
	for gi := w0; gi <= w1; gi++ {
		e := nd.entry(gi)
		if e == nil || e.Load() != nil {
			continue
		}
		g := &slab[0]
		slab = slab[1:]
		if d.entry(gi) != nil {
			n.img.fill(g, gi, slotsPerLine)
		} else {
			n.initGroup(g, gi)
		}
		e.Store(g)
	}
	if nd != d {
		n.dir.Store(nd)
	}
	n.tree.groupsEver.Add(int64(need))
	n.tree.groupsLive.Add(int64(need))
}

// initGroup fills g with what the header stands for in slots
// [gi*slotsPerLine, (gi+1)*slotsPerLine): copies of the uniform fill and
// gates restored from the uniform gate history. Called with matMu held
// (post-publication materialization) or with the node unpublished
// (construction/recycling), so plain stores are legal — the group pointer's
// atomic store publishes it.
func (n *node[V]) initGroup(g *slotGroup[V], gi int) {
	base := gi * slotsPerLine
	// A fork in progress has not merged its busy period into uni yet: merge
	// it into the restored gates here (see node.forkBusy).
	busyStart := n.uni.busyStart
	if n.forkForks > 0 && n.forkBusy < busyStart {
		busyStart = n.forkBusy
	}
	for j := 0; j < slotsPerLine; j++ {
		var st *slotState[V]
		if n.uniSt != nil {
			st = &g.slab[j]
			copyInto(st, &g.vals[j], n.uniSt.val)
		}
		storePlain(&g.sts[j], st)
		g.gates[j].Restore(n.uni.freeAt(base+j), busyStart)
	}
}

// resetGroup returns a pooled node's group to the empty cold state.
func resetGroup[V any](g *slotGroup[V]) {
	var zeroV V
	g.line.Reset()
	for j := 0; j < slotsPerLine; j++ {
		g.gates[j].Reset()
		storePlain(&g.sts[j], nil)
		g.slab[j] = slotState[V]{}
		g.vals[j] = zeroV // drop value references for the GC
	}
}

// peek reads slot idx's state without giving its group storage: slots of an
// image-born group report what the image holds for them, slots nothing has
// touched the uniform state. Used by pure value reads (expansion's re-read
// under a held bit, teardown), which charge no line cost and so need no line
// model.
func (n *node[V]) peek(idx int) *slotState[V] {
	gi := idx / slotsPerLine
	d := n.dir.Load()
	if d == nil || !d.bits.has(gi) {
		return n.uniSt
	}
	if g := d.groups[d.bits.rank(gi)].Load(); g != nil {
		return g.sts[idx%slotsPerLine].Load()
	}
	return n.img.peek(gi, idx%slotsPerLine)
}

// slot returns slot idx's state word, materializing its group.
func (n *node[V]) slot(idx int) *atomic.Pointer[slotState[V]] {
	return &n.group(idx).sts[idx%slotsPerLine]
}

// line returns slot idx's cache-line model, materializing its group.
func (n *node[V]) line(idx int) *hw.Line {
	return &n.group(idx).line
}

// acquire takes slot idx's lock bit for cpu; the caller must have charged
// the slot's cache line (the acquisition is a CAS on it), which also
// guarantees the group exists.
func (n *node[V]) acquire(cpu *hw.CPU, idx int) {
	g := n.group(idx)
	cpu.AcquireBitIn(&n.bits[idx>>6], uint64(1)<<(uint(idx)&63), &g.gates[idx%slotsPerLine])
}

// release drops slot idx's lock bit through its group's gate (acquire gave
// the group storage): the plateau table cannot represent arbitrary per-slot
// releases.
func (n *node[V]) release(cpu *hw.CPU, idx int) {
	g := n.group(idx)
	cpu.ReleaseBitIn(&n.bits[idx>>6], uint64(1)<<(uint(idx)&63), &g.gates[idx%slotsPerLine])
}

// bulkRelease drops slot idx's lock bit during lock-bit propagation's
// release sweep (lockedDescend walking a freshly expanded child): ascending
// contiguous index runs at at most two distinct virtual times (before and
// after the boundary expansions). A slot whose group has no storage goes into
// the plateau table, with the same gate-before-bit ordering ReleaseBitIn
// provides (a locker that wins the freed bit observes the release time).
func (n *node[V]) bulkRelease(cpu *hw.CPU, idx int) {
	mask := uint64(1) << (uint(idx) & 63)
	n.matMu.Lock()
	if g := n.groupLoad(idx / slotsPerLine); g != nil {
		n.matMu.Unlock()
		cpu.ReleaseBitIn(&n.bits[idx>>6], mask, &g.gates[idx%slotsPerLine])
		return
	}
	n.uni.release(idx, cpu.Now())
	n.matMu.Unlock()
	n.bits[idx>>6].And(^mask)
}

// releaseAllExcept bulk-releases every slot lock bit except keep's, the
// fault path's expansion step (§3.4: expand, then keep only the faulting
// page's lock). All releases happen at one virtual instant, one plateau of
// the uniform gate history; groups with storage (pooled nodes carry them) get
// per-gate releases. Gate state is updated before any bit is cleared, exactly
// as ReleaseBitIn orders it.
func (n *node[V]) releaseAllExcept(cpu *hw.CPU, keep int) {
	now := cpu.Now()
	n.matMu.Lock()
	n.uni.release(0, now) // one plateau covers all unmaterialized slots
	n.forEachGroup(func(gi int, g *slotGroup[V]) {
		for j := 0; j < slotsPerLine; j++ {
			if idx := gi*slotsPerLine + j; idx != keep {
				g.gates[j].Restore(now, n.uni.busyStart)
			}
		}
	})
	n.matMu.Unlock()
	for w := range n.bits {
		mask := ^uint64(0)
		if w == keep>>6 {
			mask &^= uint64(1) << (uint(keep) & 63)
		}
		n.bits[w].And(^mask)
	}
}

// The plain-store fast path below assumes atomic.Pointer is exactly one
// word; the two declarations assert size equality in both directions, so
// compilation fails if a future runtime grows or shrinks the layout.
var (
	_ [unsafe.Sizeof(atomic.Pointer[int]{}) - unsafe.Sizeof(unsafe.Pointer(nil))]byte
	_ [unsafe.Sizeof(unsafe.Pointer(nil)) - unsafe.Sizeof(atomic.Pointer[int]{})]byte
)

// storePlain initializes slot state p with a plain (non-atomic) store.
// Only legal while the containing group is unpublished (group construction
// or pool reset): the atomic store that later publishes the group (or the
// node) orders these writes before any reader's atomic loads.
func storePlain[V any](p *atomic.Pointer[slotState[V]], st *slotState[V]) {
	*(**slotState[V])(unsafe.Pointer(p)) = st
}

// slotState is the content of a slot: either a child link (an interior
// slot that has been expanded) or a value (a per-page value at a leaf, or a
// folded value at an interior slot). nil slotState = empty.
//
// The three pointer words are written once, before the state is first
// published through a slot, and never after — lock-free readers may hold a
// slotState across a concurrent replacement, and immutability of the words
// is what keeps those reads race-free. The *contents* of val follow a weaker
// rule: they may be mutated under the owning slot's lock bit (the pagefault
// path updates mapping metadata in place; a recycled carrier's value is
// rewritten under its new slot's bit), so dereferencing a value obtained
// without the slot's lock yields a point-in-time snapshot only.
type slotState[V any] struct {
	child   *refcache.Obj // Data holds the *node[V]
	val     *V
	carrier *valCarrier[V] // non-nil when this state is carrier-backed
}

// NewCopy creates an empty tree on machine m, using rc for node lifetimes.
// Values are duplicated by plain copy (c := *v): V needs no deep cloning — the
// case of flat metadata structs like VM mappings — which lets slot groups back
// their per-page copies with embedded slabs instead of heap allocations.
func NewCopy[V any](m *hw.Machine, rc *refcache.Refcache) *Tree[V] {
	t := treeShell[V](m, rc)
	t.family = t
	t.root = t.newNode(nil, Levels-1, 0, nil, 0, false)
	// The root is permanent: its object holds one immortal reference.
	return t
}

// treeShell builds a tree without its root — shared by NewCopy and ForkLazy,
// whose root is a structural clone rather than an empty node.
func treeShell[V any](m *hw.Machine, rc *refcache.Refcache) *Tree[V] {
	return &Tree[V]{
		m:        m,
		rc:       rc,
		pageZero: m.Config().PageZero,
		cpus:     make([]atomic.Pointer[cpuState[V]], m.NCores()),
	}
}

// cpuState is one CPU's scratch state on a tree: recycled nodes, the fork
// family's Range carrier, recycled value carriers and the SetClone template
// — which together make the steady-state lock, fault and mmap/munmap paths
// allocation-free — plus the CPU's slot in the lazy-fork quiescence gate.
// All of it but hold.flag is owner-goroutine state, like Refcache's delta
// caches: touched only by the goroutine driving that CPU (one at a time, not
// one forever). Each is a heap object of its own (~300 B; ~1 KB with the
// carrier), which keeps two CPUs' hot words out of one host cache line.
type cpuState[V any] struct {
	hold     opHold
	pool     []*node[V]     // recycled nodes (pool.go)
	carriers carrierPool[V] // recycled value carriers (carrier.go)
	template V              // see Tree.Template
	rng      *Range[V]      // the family's Range carrier for this CPU (lock.go)

	// born and bornSt stand in for a copy's slot when a divergence sweep
	// finds the slot's born state in an image already: the dst the
	// OnDiverge hook is still handed. (A local would escape through the
	// hook's func value: one allocation per slot.)
	born   V
	bornSt slotState[V]
}

// cpu returns cpu's scratch state, building it on the CPU's first use of
// the tree. Only the CPU's own goroutine stores its slot; the pointer is
// atomic because ForkLazy scans every slot's hold flag.
func (t *Tree[V]) cpu(cpu *hw.CPU) *cpuState[V] {
	p := &t.cpus[cpu.ID()]
	if cs := p.Load(); cs != nil {
		return cs
	}
	var cs *cpuState[V]
	if t.family != t {
		cs = &cpuState[V]{rng: t.family.cpu(cpu).rng}
	} else { // one allocation for the state and the family's carrier
		s := new(struct {
			cpuState[V]
			rng Range[V]
		})
		cs, s.cpuState.rng = &s.cpuState, &s.rng
	}
	p.Store(cs)
	return cs
}

// Template returns cpu's scratch value for building what Entry.SetClone
// copies into a slot without a per-call allocation. Owner-goroutine only; the
// contents do not survive the CPU's next use of it.
func (t *Tree[V]) Template(cpu *hw.CPU) *V { return &t.cpu(cpu).template }

// opHold is one CPU's slot in the lazy-fork quiescence gate. depth is
// owner-goroutine state; flag is the published in-critical-section marker
// ForkLazy scans.
type opHold struct {
	depth int32
	flag  atomic.Int32
}

// opEnter marks cpu as inside a locked operation on t, waiting out a
// draining ForkLazy first. Nested ranges on one CPU just deepen the existing
// hold. A CPU's first operation publishes its state before raising the flag,
// so a ForkLazy that scanned the slot while it was still empty is one this
// operation then sees in lazyForks.
func (t *Tree[V]) opEnter(cpu *hw.CPU) *cpuState[V] {
	cs := t.cpu(cpu)
	h := &cs.hold
	h.depth++
	if h.depth > 1 {
		return cs
	}
	for {
		h.flag.Store(1)
		if t.lazyForks.Load() == 0 {
			return cs
		}
		h.flag.Store(0)
		for t.lazyForks.Load() != 0 {
			runtime.Gosched()
		}
	}
}

// opExit ends cpu's hold (when the outermost range unlocks).
func (t *Tree[V]) opExit(cpu *hw.CPU) {
	h := &t.cpu(cpu).hold
	h.depth--
	if h.depth == 0 {
		h.flag.Store(0)
	}
}

// newNode allocates (or recycles) a node at the given level, born uniform:
// its slots all logically hold copies of fill (nil for an empty node). If
// locked, every slot's lock bit is taken by the caller (lock-bit propagation
// during expansion). The caller receives the node with one traversal pin
// already held on cpu (none for the root, which instead gets an immortal
// reference); the node is private until the caller publishes it through the
// parent slot's atomic store.
func (t *Tree[V]) newNode(cpu *hw.CPU, level int, base uint64, fill *V, used int64, locked bool) *node[V] {
	n := t.header(cpu, level, base)
	if fill != nil {
		// Copy the fill into node-owned storage: the caller's value (often
		// a carrier's, see expand) stays free to be recycled.
		n.uniSt = &n.uniStore
		copyInto(n.uniSt, &n.uniVal, fill)
	}
	if locked {
		// Lock-bit propagation (§3.4) in bulk: the node is unpublished,
		// so no contention is possible and no cost is charged — exactly
		// as acquiring 512 fresh, free bits.
		n.uni.busyStart = cpu.Now()
		for w := range n.bits {
			n.bits[w].Store(^uint64(0))
		}
	}
	// A pooled node may carry groups from its previous incarnation (at
	// most poolGroupCap); re-fill them from the new uniform state.
	n.forEachGroup(func(gi int, g *slotGroup[V]) { n.initGroup(g, gi) })
	initial := used
	if cpu == nil {
		initial = 1 // the root's immortal self-reference
	} else {
		initial += 1 // the creator's traversal pin
		cpu.Tick(t.pageZero)
	}
	n.obj = t.rc.NewObj(initial, freeNode[V])
	n.obj.Data = n
	return n
}

// header returns a node of t at level and base — recycled from cpu's pool if
// it has one (no cpu: the first root) — with the header every birth starts
// from: no fill, an empty gate table, native to t's current generation,
// linked once. Its directory is the previous incarnation's, for the caller
// to re-fill (newNode) or replace (cloneShell).
func (t *Tree[V]) header(cpu *hw.CPU, level int, base uint64) *node[V] {
	var n *node[V]
	if cpu != nil {
		n = t.getNode(cpu)
	}
	if n == nil {
		n = &node[V]{}
	}
	n.tree, n.level, n.base = t, level, base
	n.uniSt = nil
	n.uni = uniformGates{}
	n.forkBusy, n.forkForks = 0, 0
	n.gen = t.gen.Load()
	n.links.Store(1)
	t.nodesLive.Add(1)
	t.nodesEver.Add(1)
	return n
}

// freeNode is the Refcache callback that reclaims an empty node: it clears
// the parent's slot (racing fairly with concurrent lockers via CAS), drops
// the used-slot reference the child link held on the parent, and recycles
// the node.
func freeNode[V any](cpu *hw.CPU, o *refcache.Obj) {
	n := o.Data.(*node[V])
	t := n.tree
	t.nodesLive.Add(-1)
	p := n.parent
	if p == nil {
		return // root (never freed in practice)
	}
	s := p.slot(n.parentIdx)
	st := s.Load()
	if st != nil && st.child == o && s.CompareAndSwap(st, nil) {
		cpu.Write(p.line(n.parentIdx))
		t.rc.Dec(cpu, p.obj)
	}
	// If the CAS failed, a locker already replaced the dead link and took
	// over the accounting. Either way no core can reach n anymore (its true
	// count is zero: no pins, no used slots), so it is safe to recycle.
	o.Data = nil
	t.recycle(cpu, n)
}

// span returns the number of VPNs one slot of a node at this level covers.
func span(level int) uint64 { return uint64(1) << (uint(level) * BitsPerLevel) }

func (n *node[V]) slotIndex(vpn uint64) int {
	return int((vpn - n.base) / span(n.level))
}

func (n *node[V]) slotBase(idx int) uint64 {
	return n.base + uint64(idx)*span(n.level)
}

// NodesLive returns the number of currently allocated tree nodes.
func (t *Tree[V]) NodesLive() int64 { return t.nodesLive.Load() }

// Bytes returns the tree's simulated structural memory footprint, the
// paper's Table 2 accounting (every node is an 8 KB page there).
func (t *Tree[V]) Bytes() uint64 { return uint64(t.nodesLive.Load()) * NodeBytes }

// FootprintBytes estimates the tree's real Go-side memory: compact node
// headers plus the slot groups that have storage (each charged one directory
// pointer for its dense groupDir entry). Groups a path copy holds only in its
// source's image are not counted: the image is shared, and charged to nobody.
// Nodes shared with a lazily forked snapshot are charged to the tree that
// created them (nodesLive is a creating-tree counter), so a fresh ForkLazy
// child's footprint is one root header, growing only as divergence
// path-copies nodes into it.
func (t *Tree[V]) FootprintBytes() uint64 {
	return uint64(t.nodesLive.Load())*uint64(unsafe.Sizeof(node[V]{})) +
		uint64(t.groupsLive.Load())*uint64(unsafe.Sizeof(slotGroup[V]{})+unsafe.Sizeof(uintptr(0)))
}

func checkRange(lo, hi uint64) {
	if lo >= hi || hi > MaxVPN {
		panic(fmt.Sprintf("radix: invalid range [%d, %d)", lo, hi))
	}
}

// loadChild resolves a slot's child link by taking a traversal pin through
// the weak reference. It returns the pinned node, or nil if the child is
// dead (in which case the caller sees the slot as empty after cleanup).
func (t *Tree[V]) loadChild(cpu *hw.CPU, n *node[V], idx int, st *slotState[V]) *node[V] {
	obj := t.rc.TryGet(cpu, st.child.Weak())
	if obj == nil {
		// The child died. Whoever swings the slot to nil does the
		// parent accounting; the loser simply moves on.
		if n.slot(idx).CompareAndSwap(st, nil) {
			cpu.Write(n.line(idx))
			t.rc.Dec(cpu, n.obj)
		}
		return nil
	}
	return obj.Data.(*node[V])
}

// unpin drops a traversal pin.
func (t *Tree[V]) unpin(cpu *hw.CPU, n *node[V]) {
	t.rc.Dec(cpu, n.obj)
}

// foreign reports whether n is shared with a lazily forked snapshot and
// must be path-copied before t writes under it: either n belongs to another
// tree outright (a ForkLazy child still linking parent nodes) or n predates
// t's current generation (the parent side after ForkLazy bumped it).
func (t *Tree[V]) foreign(n *node[V]) bool {
	return n.tree != t || n.gen != t.gen.Load()
}

// Hooks are the fork's value hooks: what the tree's owner does to a value
// when a snapshot-shared node is path-copied and when its last copy goes. One
// interface rather than two funcs, so that an owner that implements it wires
// a forked tree without allocating (a pointer in an interface is free; a
// method value is a closure).
type Hooks[V any] interface {
	// OnDiverge is invoked once per distinct value copied when a
	// snapshot-shared node is path-copied on first write, with the VPN range
	// the value covers. It runs under every slot bit of src's node and may
	// write *src. dst arrives as a copy of *src for the hook to finish, and
	// what it leaves there may depend on src alone: the tree keeps the
	// finished copy in the node's image and gives every tree that diverges
	// from src a copy of it, so on all divergences but the first dst is a
	// scratch value, handed over for the hook's other effects and then
	// forgotten.
	OnDiverge(cpu *hw.CPU, lo, hi uint64, src, dst *V)
	// OnRelease is invoked once per distinct value dropped when the last tree
	// referencing a shared subtree releases it (Tree.Release, or a divergence
	// unlinking the old copy) — on the hooks of the tree the node was built
	// in, whichever tree's operation dropped the last link. It must not write
	// *v: the value of a slot its tree never touched may live in an image
	// other trees' copies read.
	OnRelease(cpu *hw.CPU, lo, hi uint64, v *V)
}

// SetHooks registers the fork's value hooks. ForkLazy children inherit them
// until their owner sets its own.
func (t *Tree[V]) SetHooks(h Hooks[V]) { t.hooks = h }

// Lookup returns the value covering vpn, or nil if unmapped. It takes no
// locks: interior nodes are only read, so concurrent lookups of disjoint
// keys against concurrent inserts of disjoint keys move no cache lines
// (Figure 7's property). It allocates nothing in steady state — the
// traversal pins live in a fixed on-stack array; only the first-ever touch of
// a slot group materializes it.
func (t *Tree[V]) Lookup(cpu *hw.CPU, vpn uint64) *V {
	checkRange(vpn, vpn+1)
	n := t.root
	var pinned [Levels]*node[V]
	np := 0
	var ret *V
	for {
		idx := n.slotIndex(vpn)
		g := n.group(idx)
		cpu.Read(&g.line)
		st := g.sts[idx%slotsPerLine].Load()
		if st == nil {
			break
		}
		if st.child != nil {
			child := t.loadChild(cpu, n, idx, st)
			if child == nil {
				break
			}
			pinned[np] = child
			np++
			n = child
			continue
		}
		ret = st.val
		break
	}
	for i := np - 1; i >= 0; i-- {
		t.unpin(cpu, pinned[i])
	}
	return ret
}
