package radix

import (
	"runtime"

	"radixvm/internal/hw"
)

// Tree.Fork structurally clones a tree — the radix half of an address-space
// fork. It sweeps every slot lock bit in the tree strictly left-to-right in
// the same global order every Range operation uses (ascending VPN, parent
// slot before the child node covering the same VPNs), but unlike a Range it
// does not hold the whole sweep at once: each *node* is copied under all of
// its bits and released (one merged busy period) before the fork descends
// into that node's children — hand-over-hand at node granularity.
//
// What that buys and what it costs:
//
//   - Concurrent forks of one parent pipeline instead of fully serializing:
//     fork B enters a subtree as soon as fork A has released it, so a spawn
//     server's N simultaneous forks cost ~one tree sweep plus N pipeline
//     stages, not N full sweeps back to back. This is the contention path
//     the spawn workload measures.
//   - Snapshot atomicity is *node-granular*: a concurrent Range operation
//     whose slots all live in one node is observed entirely or not at all
//     (it mutates only while holding its whole range, and the fork holds
//     every bit of a node across that node's copy), and single-page
//     operations — faults, COW breaks — are always atomic. A Range
//     operation *spanning nodes* can land in the released/not-yet-copied
//     gap between two node copies and be reflected partially, split at a
//     node boundary. Operations on disjoint regions commute with fork
//     either way — the §3.4 property the workloads rely on.
//   - ForkLazy (lazy.go) strengthens this to whole-tree snapshot
//     atomicity: the snapshot is taken entirely under the root's bits, and
//     a shared node diverges only after acquiring all of its bits —
//     serializing with any in-flight multi-node Range op, which therefore
//     lands entirely before or entirely after the snapshot. Callers
//     needing Linux-style whole-space fork atomicity use ForkLazy (the
//     regression test TestLazyForkRangeAtomicity pins this down); the
//     eager sweep keeps the node-granular relaxation in exchange for
//     billing all copy cost up front at fork time.
//
// The child preserves the parent's uniform/diverged representation without
// materializing anything on either side: a parent node's unmaterialized
// slots are covered by acquiring their packed bit words directly (their
// virtual-time wait comes from the node's uniform gate table, consulted
// once per node), and the child mirrors exactly the slot groups the parent
// has materialized — uniform parent nodes yield uniform children, so
// forking a large, mostly-folded address space copies compact headers, not
// 8 KB pages of slots.

// Fork cost model: a cloned node is billed by the *logical* size of what
// fork actually copies, at the page-copy rate (PageZero cycles per 4 KB).
// A uniform node is one compact header — the fill value, the packed lock
// bits, the plateau table, and the group directory — so cloning it costs a
// header-sized virtual copy, not a full simulated 8 KB page; each
// materialized group adds its cache line of four 16-byte slots. A fully
// diverged node therefore pays the full page-copy rate for its 8 KB of
// slots while a vast folded mapping forks in header-sized steps — the
// virtual-time mirror of the real-memory win the structural clone already
// delivers. The same by-logical-size rule prices the baselines' fork
// (vm.MetaCopyCost: VMA structs and PTEs), keeping the comparison fair.
const (
	// ForkHeaderBytes is the logical size of a uniform node header billed
	// per cloned node (~1.2 KB: fill slot, 8 lock-bit words, plateau
	// table, 128-entry group directory).
	ForkHeaderBytes = 1216
	// ForkGroupBytes is the logical size billed per materialized group
	// mirrored into the child: its cache line of four 16-byte slots.
	ForkGroupBytes = 64
	// forkPageBytes is the page-copy rate's denominator: PageZero is the
	// cost of touching one 4 KB page.
	forkPageBytes = 4096
)

// ForkNodeCost returns the virtual cycles fork charges for cloning one
// node with the given number of materialized groups, given the machine's
// PageZero cost (exported so tests can assert the billing exactly).
func ForkNodeCost(pageZero uint64, groups int) uint64 {
	return pageZero * (ForkHeaderBytes + uint64(groups)*ForkGroupBytes) / forkPageBytes
}

type forkCtx[V any] struct {
	nt    *Tree[V]
	visit func(lo, hi uint64, src, dst *V)
	flush func(cpu *hw.CPU)
}

// forkKid records a pinned source child whose subtree copy is deferred
// until the current node's bits are released (the hand-over-hand step),
// plus the dst slot the finished copy's link goes into.
type forkKid[V any] struct {
	child *node[V]
	cell  *slotState[V]
	idx   int
}

// Fork clones t's mapped structure into a fresh tree of the same kind on
// the same machine and Refcache domain. visit is invoked once per distinct
// stored value with the VPN range it covers: leaf slots get one page,
// folded interior slots their whole span, and a uniform node's shared fill
// is visited once for the node's entire range (its logical per-slot copies
// are identical by construction, so one visit covers them all). src is the
// parent's value — mutable in place, since fork holds the covering slot's
// lock bit while visiting — and dst the child's fresh copy. On cloneShared
// trees src and dst are the same pointer (values are shared by
// construction).
func (t *Tree[V]) Fork(cpu *hw.CPU, visit func(lo, hi uint64, src, dst *V)) *Tree[V] {
	return t.ForkFlush(cpu, visit, nil)
}

// ForkFlush is Fork with a per-node flush hook: after each source node has
// been fully copied — every visit for its slots done — and *before* its
// lock bits are released, flush runs. The VM layer uses it to issue the
// write-protect shootdowns for the pages just flagged COW while the slots
// are still locked, so no parent write can slip through a stale writable
// translation between the snapshot of a page and the revocation of its
// write rights.
func (t *Tree[V]) ForkFlush(cpu *hw.CPU, visit func(lo, hi uint64, src, dst *V), flush func(cpu *hw.CPU)) *Tree[V] {
	nt := treeShell(t.m, t.rc, t.clone, t.kind)
	ctx := &forkCtx[V]{nt: nt, visit: visit, flush: flush}
	nt.root = t.forkNode(cpu, ctx, t.root, 1) // +1: the root's immortal ref
	return nt
}

// forkNode locks src's slots left-to-right (ascending within each node, at
// most one node held at a time, so the sweep is deadlock-free), copies
// them into the child tree's counterpart, then releases all of src's bits
// and only afterwards descends into the child nodes it pinned along the
// way — hand-over-hand, so a trailing fork (or any locker) enters this
// node the moment its copy is done rather than when the whole fork
// finishes. Within one node the copy is a two-phase atomic snapshot;
// across nodes the snapshot is only node-granular (see the package comment
// above). extra is added to the new node's reference count (the root's
// immortal reference).
func (t *Tree[V]) forkNode(cpu *hw.CPU, ctx *forkCtx[V], src *node[V], extra int64) *node[V] {
	arrive := cpu.Now()
	// Unmaterialized slots' bits carry no per-slot gates; their pending
	// virtual-time state lives in the node's uniform plateau table. Wait
	// out its latest busy period once, under the usual overlap rule. While
	// here, register this fork's busy period on the node so groups
	// materializing mid-fork restore gates that include it (see initGroup).
	src.matMu.Lock()
	src.waitUniformLocked(cpu, arrive)
	src.forkForks++
	if src.forkForks == 1 || arrive < src.forkBusy {
		src.forkBusy = arrive
	}
	src.materializeLocked(0, groupsPerNode-1, false) // see linkCopy
	src.matMu.Unlock()

	nt := ctx.nt
	dst := nt.cloneShell(cpu, src, false)
	var kidsBuf [8]forkKid[V]
	kids := kidsBuf[:0]
	fill := dst.uniSt != nil
	var used int64
	if fill {
		used = SlotsPerNode
	}
	sp := span(src.level)
	for idx := 0; idx < SlotsPerNode; idx++ {
		g, st, child := t.sweepSlot(cpu, src, idx)
		// A slot the copy's header does not already stand for — one that
		// diverged from src's fill, to empty included, or anything a node
		// without a fill holds — goes into the mirrored group.
		if g == nil || st == nil && !fill {
			continue
		}
		cell, store := dst.cell(nt, nil, src, idx, st)
		switch {
		case st == nil:
			used--
		case child != nil:
			// Pinned: the child cannot be reclaimed. Defer its subtree copy
			// until src's bits are released (the dst slot is filled in
			// below; dst is private until Fork returns, so the order is
			// unobservable).
			kids = append(kids, forkKid[V]{child: child, cell: cell, idx: idx})
		default:
			lo := src.slotBase(idx)
			ctx.visit(lo, lo+sp, st.val, nt.copyInto(cell, store, st.val))
		}
		if st != nil && !fill {
			used++
		}
	}
	// A concurrent fork may have merged its busy period into the uniform
	// table after our entry wait — whether or not we ever observed one of
	// its bits held (it can release between our entry and our first bit
	// load). Consult the merged table once more now that every bit is
	// ours, so overlapping forks serialize in virtual time regardless of
	// how the real-time race resolved.
	src.matMu.Lock()
	src.waitUniformLocked(cpu, arrive)
	src.matMu.Unlock()
	// The uniform fill's single visit runs here, with every bit of the
	// node held (the sweep above took them all), so the visit contract —
	// src mutable under the covering slots' locks — holds for folded
	// state too; a trailing concurrent fork is still parked on the bits.
	if fill {
		hi := src.base + uint64(SlotsPerNode)*sp
		ctx.visit(src.base, hi, src.uniSt.val, nt.copyInto(&dst.uniStore, &dst.uniVal, src.uniSt.val))
	}
	dst.obj = nt.rc.NewObj(used+extra, freeNode[V])
	dst.obj.Data = dst.node
	// The node is fully copied. Flush (the VM layer's shootdowns for this
	// node's pages) while the bits are still held, then release them all in
	// one merged busy period so trailing forks and lockers can proceed.
	if ctx.flush != nil {
		ctx.flush(cpu)
	}
	src.forkUnlock(cpu, arrive)
	// Hand-over-hand descent: copy the pinned children left-to-right, each
	// locking only its own subtree.
	for i := range kids {
		k := &kids[i]
		dchild := t.forkNode(cpu, ctx, k.child, 0)
		dchild.parent = dst.node
		dchild.parentIdx = k.idx
		*k.cell = slotState[V]{child: dchild.obj}
		t.unpin(cpu, k.child)
	}
	return dst.node
}

// sweepSlot takes slot idx's lock bit for a fork's sweep of src and reads the
// slot under it: the slot's group (nil if it has none — its state is then
// src's uniform fill), its state, and for a child link the child, pinned. A
// link whose child died mid-reclaim reads as the empty slot it has become.
func (t *Tree[V]) sweepSlot(cpu *hw.CPU, src *node[V], idx int) (g *slotGroup[V], st *slotState[V], child *node[V]) {
	gi := idx / slotsPerLine
	j := idx % slotsPerLine
	mask := uint64(1) << (uint(idx) & 63)
	w := &src.bits[idx>>6]
	g = src.groupLoad(gi)
	if g != nil {
		cpu.Write(&g.line)
		cpu.AcquireBitIn(w, mask, &g.gates[j])
	} else {
		// No group: the bit is normally free (held groupless bits
		// exist only transiently, mid-expansion — or for a whole
		// critical section, when a concurrent fork holds them). Spin
		// out any such holder; its virtual-time cost is settled by
		// the post-sweep merged-table wait. No line exists to
		// charge, in keeping with the copy-on-diverge rule that
		// untouched slots cost nothing.
		for {
			old := w.Load()
			if old&mask == 0 {
				if w.CompareAndSwap(old, old|mask) {
					break
				}
				continue
			}
			runtime.Gosched()
		}
		// A concurrent locker may have materialized the group while
		// we raced for the bit; re-read so the state load sees it.
		if g = src.groupLoad(gi); g == nil {
			return nil, src.uniSt, nil
		}
	}
	st = g.sts[j].Load()
	if st != nil && st.child != nil {
		if child = t.loadChild(cpu, src, idx, st); child == nil {
			st = nil
		}
	}
	return g, st, child
}

// cloneShell builds the child-tree counterpart of src: same level and
// base, a kind-appropriate copy of the uniform fill, and the means to place
// the groups the caller is about to sweep slot by slot (see shell). t is the
// child tree. The metadata copy is billed by its logical size
// (ForkNodeCost): a header-sized tick for the uniform state plus a cache
// line per materialized source group, instead of the flat full-page charge
// the pre-cost-model fork paid.
func (t *Tree[V]) cloneShell(cpu *hw.CPU, src *node[V], frozen bool) shell[V] {
	n := t.getNode(cpu)
	if n == nil {
		n = &node[V]{}
	}
	n.tree = t
	n.level = src.level
	n.base = src.base
	n.uni = uniformGates{}
	// Whether src has a fill is fixed at its birth; the fill's value is copied
	// once the sweep holds src's bits (another tree's hook may be writing it).
	n.uniSt = nil
	if src.uniSt != nil {
		n.uniSt = &n.uniStore
	}
	n.forkBusy, n.forkForks = 0, 0
	n.gen = t.gen.Load()
	n.links.Store(1)
	// Count the source's groups: they price the clone (logical-size billing
	// below). Those the copy will have too — every group of a node with a
	// fill, the groups holding anything in a node without one — size what
	// holds them. The source is not locked yet, so under real concurrency the
	// count can come out short; see forkGroup and nodeImage.grow.
	sd := src.dir.Load()
	srcGroups, mirrored := 0, 0
	if sd != nil {
		srcGroups = len(sd.groups)
		mirrored = srcGroups
		if src.uniSt == nil {
			mirrored = 0
			src.forEachGroup(func(_ int, g *slotGroup[V]) {
				for j := range g.sts {
					if g.sts[j].Load() != nil {
						mirrored++
						break
					}
				}
			})
		}
	}
	sh := shell[V]{node: n}
	if frozen && mirrored > 0 {
		// Born in src's image: the cached one if it still describes src,
		// else a new one, which the sweep fills and then publishes along
		// with the copy's directory. A pooled node's groups are
		// dropped; the ones the owner touches are realized in runs.
		t.groupsLive.Add(-countGroups(n))
		if sh.img = src.copyImg.Load(); sh.img != nil && sh.img.over == sd {
			n.dir.Store(newGroupDirOf[V](sh.img.bits))
		} else {
			sh.img = &nodeImage[V]{over: sd, groups: make([]imageGroup[V], 0, mirrored)}
			sh.build = true
			n.dir.Store(nil)
		}
	} else {
		// Mirrored into groups of its own: a directory filled in place and
		// one slab for all of them, so copying a full node makes three
		// allocations where inserting group by group made three per group.
		// A pooled node may carry recycled groups where src has none; drop
		// them so the child's materialization shape is exactly the parent's.
		var nd *groupDir[V]
		if mirrored > 0 {
			nd = newGroupDir[V](mirrored)
		}
		n.forEachGroup(func(gi int, g *slotGroup[V]) {
			if sd.get(gi) != nil {
				if nd == nil {
					nd = newGroupDir[V](0)
				}
				nd.insert(gi, g)
			} else {
				t.groupsLive.Add(-1)
			}
		})
		n.dir.Store(nd)
		if nd != nil && mirrored > len(nd.groups) {
			sh.spare = make([]slotGroup[V], mirrored-len(nd.groups))
		}
	}
	n.img = sh.img
	cpu.Tick(ForkNodeCost(t.pageZero, srcGroups))
	t.nodesLive.Add(1)
	t.nodesEver.Add(1)
	return sh
}

// shell is a copy under construction: the node, private to the copying
// goroutine until its parent slot publishes it, and where the sweep puts what
// the copy's slots are born holding. A copy of a live source is mirrored
// into groups of its own, taken from spare, its directory filled in place. A
// copy of a frozen source is born in img, the source's image: the sweep fills
// it if build is set, and otherwise has nothing to write.
type shell[V any] struct {
	*node[V]
	spare []slotGroup[V]
	img   *nodeImage[V]
	build bool
}

// cell returns the storage for what slot idx of the copy is born holding — a
// slot state, and on cloneCopy trees the value behind it — for the sweep to
// fill; st is what src's slot holds (nil: empty). The slot is one the copy's
// header does not stand for. A mirrored copy's cell is in its group, created
// at need; the cell of a copy whose sweep builds an image is in the image.
// When the image is there already the sweep has nothing to write and cell
// returns nil — unless the slot holds a value and there is an onDiverge hook
// to hand a dst to: cs's scratch cell, filled and forgotten.
func (sh *shell[V]) cell(t *Tree[V], cs *cpuState[V], src *node[V], idx int, st *slotState[V]) (*slotState[V], *V) {
	gi, j := idx/slotsPerLine, idx%slotsPerLine
	if sh.build {
		ig := sh.img.group(gi)
		if ig == nil {
			ig = sh.img.grow(gi)
		}
		if ig != nil {
			ig.src[j] = st
			return &ig.sts[j], &ig.vals[j]
		}
		sh.abandon(t, src, idx)
	}
	if sh.img != nil {
		if st == nil || st.child != nil || t.onDiverge == nil {
			return nil, nil
		}
		return &cs.bornSt, &cs.born
	}
	dg := sh.forkGroup(t, gi)
	if st == nil {
		storePlain(&dg.sts[j], nil)
	} else {
		storePlain(&dg.sts[j], &dg.slab[j])
	}
	return &dg.slab[j], &dg.vals[j]
}

// abandon turns a copy being born in an image into a mirrored one, when the
// sweep finds at slot idx that the image cannot serve: the source no
// longer reads as the image recorded (a child of a frozen interior node died
// since, or a lookup materialized a group mid-sweep), or has more groups than
// a new image was sized for. Everything before that slot agreed with the
// image, so the groups swept so far become real groups filled from it; the
// sweep mirrors the rest. The source's cached image, if this is it, is
// dropped: the next divergence builds a current one.
func (sh *shell[V]) abandon(t *Tree[V], src *node[V], idx int) {
	im := sh.img
	gi, j := idx/slotsPerLine, idx%slotsPerLine
	upto := gi
	if j > 0 && im.bits.has(gi) {
		upto++ // partly swept: its first j slots are the image's
	}
	d := newGroupDirOf[V](im.bits.below(upto))
	slab := make([]slotGroup[V], len(d.groups))
	for k, g := 0, 0; k < len(slab); g++ {
		if d.bits.has(g) {
			slots := slotsPerLine
			if g == gi {
				slots = j
			}
			im.fill(t, &slab[k], g, slots)
			d.groups[k].Store(&slab[k])
			k++
		}
	}
	t.groupsEver.Add(int64(len(slab)))
	t.groupsLive.Add(int64(len(slab)))
	sh.dir.Store(d)
	sh.node.img, sh.img, sh.build = nil, nil, false
	src.copyImg.CompareAndSwap(im, nil)
}

// forkGroup returns the mirrored copy's group gi, creating it zeroed if
// absent (a fresh child group's gates start free, as in a brand-new address
// space). Unlike materialize it does not pre-fill slot states: the copy loops
// overwrite every slot of a mirrored group explicitly. nt is the tree the
// copy belongs to.
func (sh *shell[V]) forkGroup(nt *Tree[V], gi int) *slotGroup[V] {
	d := sh.dir.Load()
	if d == nil {
		d = newGroupDir[V](0)
		sh.dir.Store(d)
	} else if g := d.get(gi); g != nil {
		return g
	}
	var g *slotGroup[V]
	if len(sh.spare) > 0 {
		g, sh.spare = &sh.spare[0], sh.spare[1:]
	} else {
		g = new(slotGroup[V])
	}
	// The copy loops ask in ascending slot order, so this appends unless a
	// recycled group sits further right.
	d.insert(gi, g)
	nt.groupsEver.Add(1)
	nt.groupsLive.Add(1)
	return g
}

// waitUniformLocked waits out the node's latest merged busy period for an
// arrival at virtual time at, under the usual overlap rule (an arrival
// predating the busy period passes through). Caller holds matMu.
func (n *node[V]) waitUniformLocked(cpu *hw.CPU, at uint64) {
	if u := &n.uni; u.n > 0 {
		if f := u.free[u.n-1]; f > at && at >= u.busyStart {
			cpu.AdvanceTo(f)
		}
	}
}

// forkUnlock releases every slot bit of n at the end of a fork. The
// uniform gate table is rewritten to one merged busy period — begun at the
// fork's arrival (or the table's earlier busyStart) and free now — which
// is exactly the state per-slot gates would hold and can never overflow
// the plateau capacity. Materialized groups release through their own
// gates. A group materialized *mid-fork* restored its gates with the
// fork's busy period merged in (initGroup consults forkBusy), so a
// concurrent locker waits out the fork's critical section exactly as it
// would behind any other holder.
func (n *node[V]) forkUnlock(cpu *hw.CPU, arrive uint64) {
	now := cpu.Now()
	n.matMu.Lock()
	n.forkForks--
	if n.forkForks == 0 {
		n.forkBusy = 0
	}
	merged := uniformGates{busyStart: arrive, n: 1}
	merged.free[0] = now
	if u := &n.uni; u.n > 0 {
		if u.busyStart < merged.busyStart {
			merged.busyStart = u.busyStart
		}
		if f := u.free[u.n-1]; f > now {
			merged.free[0] = f
		}
	}
	n.uni = merged
	for gi := groupsPerNode - 1; gi >= 0; gi-- {
		base := gi * slotsPerLine
		if g := n.groupLoad(gi); g != nil {
			for j := slotsPerLine - 1; j >= 0; j-- {
				idx := base + j
				cpu.ReleaseBitIn(&n.bits[idx>>6], uint64(1)<<(uint(idx)&63), &g.gates[j])
			}
		} else {
			n.bits[base>>6].And(^(uint64(0xF) << (uint(base) & 63)))
		}
	}
	n.matMu.Unlock()
}
