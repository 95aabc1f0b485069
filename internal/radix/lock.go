package radix

import "radixvm/internal/hw"

// Inline capacities for a Range's entry and pin lists. LockPage needs at
// most 1 entry and 2·(Levels-1) pins (a descend pin plus an expansion pin
// per level). Larger ranges spill to heap-backed slices, whose capacity the
// core's Range carrier then retains for its whole fork family.
const (
	inlineEntries = 16
	inlinePins    = 8
)

// Range is a set of locked slots covering a VPN range, produced by
// LockRange or LockPage. Entries appear in ascending VPN order; each entry
// is either a leaf slot (one page) or an interior slot whose whole span is
// inside the range (a folded entry). The caller reads and writes entries,
// then calls Unlock, after which the Range is invalid: it is the CPU's
// carrier for every tree of the fork family (cpuState.rng).
type Range[V any] struct {
	t   *Tree[V]
	cpu *hw.CPU
	Lo  uint64
	Hi  uint64

	entries []Entry[V]
	pins    []*node[V]

	eInline [inlineEntries]Entry[V]
	pInline [inlinePins]*node[V]
	busy    bool
}

// getRange returns the Range carrier in cs, cpu's scratch state, or a fresh
// one if that carrier is in use (nested locking).
func (t *Tree[V]) getRange(cs *cpuState[V], cpu *hw.CPU, lo, hi uint64) *Range[V] {
	r := cs.rng
	if r.busy {
		r = new(Range[V])
	}
	if r.entries == nil {
		r.entries, r.pins = r.eInline[:0], r.pInline[:0]
	}
	r.busy = true
	r.t, r.cpu, r.Lo, r.Hi = t, cpu, lo, hi
	return r
}

// Entry is one locked slot of a Range.
type Entry[V any] struct {
	r   *Range[V]
	n   *node[V]
	idx int
	// Lo and Hi delimit the VPNs this entry covers within the range.
	Lo, Hi uint64
}

// LockRange locks every slot covering [lo, hi), strictly left-to-right, so
// concurrent operations on overlapping ranges serialize on the leftmost
// overlapping slot (§3.4). Folded or absent interior slots that the range
// only partially covers are expanded on the way down, propagating the lock
// bit into the freshly allocated child.
func (t *Tree[V]) LockRange(cpu *hw.CPU, lo, hi uint64) *Range[V] {
	checkRange(lo, hi)
	r := t.getRange(t.opEnter(cpu), cpu, lo, hi)
	t.lockIn(r, t.root, lo, hi)
	return r
}

func (t *Tree[V]) lockIn(r *Range[V], n *node[V], lo, hi uint64) {
	cpu := r.cpu
	sp := span(n.level)
	// The walk below reads the line of every slot of n the range covers, so
	// every one of their groups comes to exist: make the missing ones at
	// once, in one allocation and one directory publish per node.
	n.materialize(n.slotIndex(lo)/slotsPerLine, n.slotIndex(hi-1)/slotsPerLine)
	for idx := n.slotIndex(lo); ; idx++ {
		slotLo := n.slotBase(idx)
		if slotLo >= hi {
			return
		}
		slotHi := slotLo + sp
		clipLo, clipHi := max(lo, slotLo), min(hi, slotHi)
		if n.level == 0 {
			n.lockLeaf(cpu, idx)
			r.entries = append(r.entries, Entry[V]{r: r, n: n, idx: idx, Lo: clipLo, Hi: clipHi})
			continue
		}
		switch child, st := t.step(r, n, idx); {
		case child != nil:
			t.lockIn(r, child, clipLo, clipHi)
		case clipLo == slotLo && clipHi == slotHi:
			// Wholly inside the range: a folded entry.
			r.entries = append(r.entries, Entry[V]{r: r, n: n, idx: idx, Lo: clipLo, Hi: clipHi})
		default:
			// Partially covered: expand, propagating the lock bit.
			child = t.expand(cpu, n, idx, st)
			r.pins = append(r.pins, child)
			t.lockedDescend(r, child, clipLo, clipHi)
		}
	}
}

// step is one interior slot of a lock walk, LockRange's or LockPage's: it
// reads slot idx of n and either pins the child the slot links to into r —
// path-copying it first if it is snapshot-shared (lazy.go) — and returns it,
// or takes the bit of a terminal slot and returns a nil child and the slot's
// state (nil if empty). It re-reads the slot whenever it changed under it.
func (t *Tree[V]) step(r *Range[V], n *node[V], idx int) (*node[V], *slotState[V]) {
	cpu := r.cpu
	for {
		g := n.group(idx)
		cpu.Read(&g.line)
		st := g.sts[idx%slotsPerLine].Load()
		if st != nil && st.child != nil {
			// Interior link: descend pinned, not locked.
			child := t.loadChild(cpu, n, idx, st)
			if child == nil {
				continue // dead child cleaned; re-read
			}
			if t.foreign(child) {
				if child = t.divergeChild(cpu, n, idx, child); child == nil {
					continue // slot changed under us; re-read
				}
			}
			r.pins = append(r.pins, child)
			return child, nil
		}
		// Terminal slot. It was read before the CAS because above the
		// leaves a slot may be a link, which is read shared, not taken
		// exclusive (a leaf slot takes its bit first: lockLeaf). Take the
		// lock bit, then re-check, since the slot may have gained a child
		// while we waited for the bit.
		cpu.Write(&g.line) // CAS on the lock bit
		n.acquire(cpu, idx)
		if st = g.sts[idx%slotsPerLine].Load(); st != nil && st.child != nil {
			n.release(cpu, idx)
			continue
		}
		return nil, st
	}
}

// lockLeaf takes leaf slot idx's lock bit. A leaf slot is never a link, so
// nothing needs reading shared before the bit: the CAS is the line's one
// ownership fetch, and the slot load under the bit hits. On a line the core
// already owns this costs what read-then-CAS does; on one another core wrote
// last, one transfer instead of two.
func (n *node[V]) lockLeaf(cpu *hw.CPU, idx int) {
	g := n.group(idx)
	cpu.Write(&g.line) // CAS on the lock bit
	n.acquire(cpu, idx)
	cpu.Read(&g.line) // the slot load under the bit
}

// expand replaces a terminal interior slot (lock bit held by the caller)
// with a freshly allocated child node whose slots all carry copies of the
// slot's folded value and whose lock bits are all held by the caller. The
// parent's lock bit is released after the child is installed (§3.4). The
// returned child carries one traversal pin for the caller.
//
// A carrier-backed folded value (a slot Mmap wrote through SetClone) is
// retired to the expanding CPU's pool once the child is installed: the
// child's uniform fill is a node-owned copy of the value (see newNode), so
// nothing references the carrier's storage anymore.
func (t *Tree[V]) expand(cpu *hw.CPU, n *node[V], idx int, st *slotState[V]) *node[V] {
	var fill *V
	if st != nil {
		fill = st.val
	}
	var used int64
	if fill != nil {
		used = SlotsPerNode
	}
	child := t.newNode(cpu, n.level-1, n.slotBase(idx), fill, used, true)
	child.parent = n
	child.parentIdx = idx
	// The child inherits the parent *node's* generation, not the tree's
	// current one: an op that validated n as native can race a concurrent
	// ForkLazy gen bump, and a child stamped with the newer generation
	// would look native to this tree while being reachable from the
	// snapshot through n — the snapshot could then observe in-place writes.
	// Stamping n.gen keeps the child exactly as foreign as its parent.
	child.gen = n.gen
	n.slot(idx).Store(&slotState[V]{child: child.obj})
	cpu.Write(n.line(idx))
	if st == nil {
		t.rc.Inc(cpu, n.obj) // slot went empty -> used
	} else if st.carrier != nil {
		t.retireCarrier(cpu, st.carrier)
	}
	n.release(cpu, idx)
	return child
}

// lockedDescend processes a freshly expanded child whose lock bits are all
// held: slots outside [lo, hi) are released in bulk, slots wholly inside
// become entries, and boundary interior slots are expanded further.
func (t *Tree[V]) lockedDescend(r *Range[V], n *node[V], lo, hi uint64) {
	cpu := r.cpu
	sp := span(n.level)
	for idx := 0; idx < SlotsPerNode; idx++ {
		slotLo := n.slotBase(idx)
		slotHi := slotLo + sp
		if slotHi <= lo || slotLo >= hi {
			n.bulkRelease(cpu, idx)
			continue
		}
		clipLo, clipHi := max(lo, slotLo), min(hi, slotHi)
		if n.level == 0 || (clipLo == slotLo && clipHi == slotHi) {
			r.entries = append(r.entries, Entry[V]{r: r, n: n, idx: idx, Lo: clipLo, Hi: clipHi})
			continue
		}
		st := n.peek(idx) // stable: we hold the bit
		child := t.expand(cpu, n, idx, st)
		r.pins = append(r.pins, child)
		t.lockedDescend(r, child, clipLo, clipHi)
	}
}

// LockPage locks the single slot governing vpn, expanding folded mappings
// down to the leaf so the page gets a private metadata copy — the
// pagefault path (§3.4). The resulting Range has exactly one entry; if its
// Value is nil the page is unmapped (and the holder still serializes against
// concurrent mmaps of the region). The walk reads each interior slot before
// it CASes the slot's bit, since the slot may be a link, read shared; the
// leaf slot, never a link, is CASed first and read under its bit (lockLeaf).
func (t *Tree[V]) LockPage(cpu *hw.CPU, vpn uint64) *Range[V] {
	checkRange(vpn, vpn+1)
	r := t.getRange(t.opEnter(cpu), cpu, vpn, vpn+1)
	n := t.root
	for {
		idx := n.slotIndex(vpn)
		if n.level == 0 {
			n.lockLeaf(cpu, idx)
			r.entries = append(r.entries, Entry[V]{r: r, n: n, idx: idx, Lo: vpn, Hi: vpn + 1})
			return r
		}
		switch child, st := t.step(r, n, idx); {
		case child != nil:
			n = child
		case st == nil:
			// Unmapped interior slot: the faulting page's lock.
			r.entries = append(r.entries, Entry[V]{r: r, n: n, idx: idx, Lo: vpn, Hi: vpn + 1})
			return r
		default:
			// Folded mapping: expand toward the leaf covering vpn.
			t.expandToward(r, n, idx, st, vpn)
			return r
		}
	}
}

// expandToward expands a folded slot (bit held) down to the leaf covering
// vpn, releasing every other lock bit propagated along the way, and
// appends the leaf entry to r. It finishes the LockPage job itself because
// the caller cannot re-acquire bits it already holds.
func (t *Tree[V]) expandToward(r *Range[V], n *node[V], idx int, st *slotState[V], vpn uint64) {
	cpu := r.cpu
	for {
		child := t.expand(cpu, n, idx, st)
		r.pins = append(r.pins, child)
		keep := child.slotIndex(vpn)
		child.releaseAllExcept(cpu, keep)
		if child.level == 0 {
			r.entries = append(r.entries, Entry[V]{r: r, n: child, idx: keep, Lo: vpn, Hi: vpn + 1})
			return
		}
		n, idx = child, keep
		st = n.peek(idx) // stable under our bit
	}
}

// Entries returns the locked entries in ascending VPN order.
func (r *Range[V]) Entries() []Entry[V] { return r.entries }

// Entry returns the i'th locked entry.
func (r *Range[V]) Entry(i int) *Entry[V] { return &r.entries[i] }

// Unlock releases all lock bits (right to left) and traversal pins, then
// parks the Range as its CPU's carrier, referencing no tree: the carrier
// outlives every tree of the family but the root.
func (r *Range[V]) Unlock() {
	t, cpu := r.t, r.cpu
	for i := len(r.entries) - 1; i >= 0; i-- {
		e := &r.entries[i]
		e.n.release(cpu, e.idx)
	}
	for i := len(r.pins) - 1; i >= 0; i-- {
		t.unpin(cpu, r.pins[i])
	}
	// Drop node references but keep any grown capacity for reuse.
	clear(r.entries)
	clear(r.pins)
	r.entries = r.entries[:0]
	r.pins = r.pins[:0]
	if r.eInline[0].n != nil || r.pInline[0] != nil { // stale copies a spill left behind
		r.eInline, r.pInline = [inlineEntries]Entry[V]{}, [inlinePins]*node[V]{}
	}
	r.t, r.cpu, r.busy = nil, nil, false
	t.opExit(cpu)
}

// Value returns the entry's current value (nil if unmapped). For a folded
// entry the value stands for every page in [Lo, Hi). It is the slot's private
// copy, read through the slot's group: mutating it must not leak to siblings,
// as the pagefault path relies on. It charges nothing: the lock that made the
// entry charged the slot's load — a leaf's Read under its bit (lockLeaf), an
// interior slot's Read before its CAS, or, in a child an expansion made,
// the child's page zero.
func (e *Entry[V]) Value() *V {
	st := e.n.slot(e.idx).Load()
	if st == nil {
		return nil
	}
	return st.val
}

// Set stores v (nil clears the slot), maintaining the node's used-slot
// count. The caller owns the entry's lock bit. Storing the value the slot
// already holds — the pagefault path reads Value, updates the metadata in
// place, and stores it back — reuses the existing slot state, so
// steady-state faults allocate nothing. A replaced carrier-backed state
// returns its carrier to the writing CPU's pool.
func (e *Entry[V]) Set(v *V) {
	t := e.r.t
	cpu := e.r.cpu
	s := e.n.slot(e.idx)
	old := s.Load()
	cpu.Write(e.n.line(e.idx))
	if v == nil {
		s.Store(nil)
		if old != nil {
			t.rc.Dec(cpu, e.n.obj)
			if old.carrier != nil {
				t.retireCarrier(cpu, old.carrier)
			}
		}
		return
	}
	if old != nil && old.child == nil && old.val == v {
		return // identical state: nothing to swap in
	}
	s.Store(&slotState[V]{val: v})
	if old == nil {
		t.rc.Inc(cpu, e.n.obj)
	} else if old.carrier != nil {
		t.retireCarrier(cpu, old.carrier)
	}
}

// SetClone stores a private copy of template v into the slot — what Mmap
// does for every entry of a fresh mapping, including folded interior slots
// that adopt the template for a whole subtree — in a recycled value carrier
// from the writing CPU's pool, so the steady-state mmap path allocates
// nothing. The caller owns the entry's lock bit. v must not be nil.
func (e *Entry[V]) SetClone(v *V) {
	t := e.r.t
	cpu := e.r.cpu
	s := e.n.slot(e.idx)
	old := s.Load()
	cpu.Write(e.n.line(e.idx))
	c := t.getCarrier(cpu)
	c.val = *v
	s.Store(&c.st)
	if old == nil {
		t.rc.Inc(cpu, e.n.obj)
	} else if old.carrier != nil {
		t.retireCarrier(cpu, old.carrier)
	}
}
