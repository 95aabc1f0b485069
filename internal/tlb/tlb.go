// Package tlb models per-core translation lookaside buffers. RadixVM's
// targeted shootdown design needs nothing fancy from the TLB itself — the
// cleverness is in tracking which cores *may* have an entry (the per-page
// core set in mapping metadata) — so this TLB is a bounded hash table (open
// addressing, linear probing) with FIFO eviction, which the owner core fills
// and shootdown senders flush by proxy.
package tlb

import (
	"fmt"

	"radixvm/internal/fifo"
)

// DefaultCapacity approximates a real x86 second-level TLB.
const DefaultCapacity = 1536

// Entry is one cached translation: the physical frame plus the permission
// bits the PTE carried when the entry was filled. A TLB hit that lacks the
// needed permission (a store through a read-only entry, any access through
// a PROT_NONE entry) traps exactly as a missing translation would — real
// TLBs cache rights, not just frames.
type Entry struct {
	PFN      uint64
	Readable bool
	Writable bool
	Exec     bool
}

// packed entry layout: pfn<<3 | readable<<2 | exec<<1 | writable.
func (e Entry) pack() uint64 {
	raw := e.PFN << 3
	if e.Readable {
		raw |= 4
	}
	if e.Exec {
		raw |= 2
	}
	if e.Writable {
		raw |= 1
	}
	return raw
}

func unpack(raw uint64) Entry {
	return Entry{PFN: raw >> 3, Readable: raw&4 != 0, Exec: raw&2 != 0, Writable: raw&1 != 0}
}

// TLB is one core's translation cache. The zero value is an empty TLB of
// DefaultCapacity, so an MMU can hold a TLB by value in the per-core state it
// builds (or in one slice for every core); a TLB must not be copied after
// first use. The translations are held by pointer, not inline, so a TLB that
// never caches anything stays a few words: a forked child fills the TLBs of
// the one or two cores it runs on, and a shared-table MMU holds one TLB per
// core of the machine.
type TLB struct {
	tab      *table // vpn -> packed Entry; nil until the first Insert
	capacity int32  // 0 means DefaultCapacity

	// order is the FIFO eviction queue: one token per Insert of an absent
	// VPN, oldest at the front. Flushing a page leaves its token behind,
	// and a stale token is not inert — when it reaches the front it evicts
	// whatever translation its VPN has by then, so a VPN that was flushed
	// and inserted again can go before its turn. Virtual time depends on
	// that, which is why no token is ever dropped or merged away; the queue
	// is only stored compactly. Consecutive tokens of one VPN (a core that
	// maps, touches and unmaps the same page in a loop queues nothing else)
	// share one word, and the words sit in fifo blocks that are never
	// copied, so a core that fills and flushes thousands of pages between
	// evictions costs its tokens' bytes and no more.
	order fifo.Queue[uint64]

	// Flush statistics.
	Flushes     uint64 // explicit invalidations of present entries
	FullFlushes uint64
}

// A word of the eviction queue is a VPN plus, in the bits no VPN has, how
// many more tokens for the same VPN follow it: a VPN is a 64-bit address
// less its 12 page-offset bits, so its top 12 bits are zero.
const (
	vpnBits = 52
	vpnMask = 1<<vpnBits - 1
	repeat  = 1 << vpnBits // one more token for the word's VPN
)

// New creates a TLB with the given capacity (DefaultCapacity if <= 0). The
// table appears on the first Insert and doubles on demand rather than being
// presized: presizing for 1536 entries per core per address space cost ~1 MB
// and a bulk zeroing per benchmark environment, while most simulated
// workloads touch a few dozen translations — and most cores of a forked
// child's address space none at all.
func New(capacity int) *TLB {
	return &TLB{capacity: int32(max(capacity, 0))}
}

// table is the translations as an open-addressed hash table: one flat array
// of (key, value) words probed linearly from the key's home slot, so a hit
// is a multiply and usually one cache line — the Go map this replaces was a
// fifth of a fault-heavy run's host time. Deletion shifts the rest of the
// probe run back over the hole instead of leaving a tombstone: a TLB deletes
// as often as it inserts (every munmap, every eviction), and tombstones
// would make probe length depend on history rather than on occupancy.
type table struct {
	slots []slot // power-of-two length, at most 3/4 occupied
	n     int    // occupied slots
	shift uint   // 64 - log2(len(slots)): home takes a hash's top bits

	// first is slots until the table first grows, so a table's header and
	// its first slots are one 176-byte allocation: a forked child fills a
	// fresh TLB on each core it runs on.
	first [minSlots]slot
}

// A slot holds key vpn+1, so the zero slot is empty.
type slot struct{ key, val uint64 }

// A table starts at minSlots: most TLBs of a forked child hold a handful of
// translations for a few microseconds.
const (
	minSlotsLog2 = 3
	minSlots     = 1 << minSlotsLog2
)

func newTable() *table {
	tb := &table{shift: 64 - minSlotsLog2}
	tb.slots = tb.first[:]
	return tb
}

// home is the slot a key's probe run starts at: Fibonacci hashing, because
// VPNs arrive in strides (one page per core a GB apart, every 512th page)
// that a mask of the low bits would pile onto one slot.
func (tb *table) home(key uint64) int {
	return int(key * 0x9E3779B97F4A7C15 >> tb.shift)
}

// find returns the slot holding vpn. A nil table holds nothing.
func (tb *table) find(vpn uint64) (int, bool) {
	if tb == nil {
		return 0, false
	}
	key, mask := vpn+1, len(tb.slots)-1
	for i := tb.home(key); ; i = (i + 1) & mask {
		switch tb.slots[i].key {
		case 0: // tested first: vpn+1 wraps to 0 for the one VPN no page has
			return 0, false
		case key:
			return i, true
		}
	}
}

// put adds vpn, which must be absent.
func (tb *table) put(vpn, val uint64) {
	if 4*(tb.n+1) > 3*len(tb.slots) {
		old := tb.slots
		tb.slots, tb.shift = make([]slot, 2*len(old)), tb.shift-1
		for _, s := range old {
			if s.key != 0 {
				tb.place(s)
			}
		}
	}
	tb.place(slot{vpn + 1, val})
	tb.n++
}

// place stores s in the first empty slot of its probe run.
func (tb *table) place(s slot) {
	mask := len(tb.slots) - 1
	i := tb.home(s.key)
	for tb.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	tb.slots[i] = s
}

// removeAt empties slot i and closes the hole: each later member of the
// probe run moves back into it unless that would put it before its home,
// until the run ends at an empty slot. Slot i may hold another key
// afterwards.
func (tb *table) removeAt(i int) {
	mask := len(tb.slots) - 1
	for j := (i + 1) & mask; tb.slots[j].key != 0; j = (j + 1) & mask {
		// The member at j may move to the hole at i iff its home is not in
		// (i, j], taken cyclically.
		if (j-tb.home(tb.slots[j].key))&mask >= (j-i)&mask {
			tb.slots[i] = tb.slots[j]
			i = j
		}
	}
	tb.slots[i] = slot{}
	tb.n--
}

// remove deletes vpn and reports whether it was present.
func (tb *table) remove(vpn uint64) bool {
	i, ok := tb.find(vpn)
	if ok {
		tb.removeAt(i)
	}
	return ok
}

// Insert caches vpn→e, evicting the oldest entry at capacity. Re-inserting
// a present VPN overwrites its entry (how a protection-fault fill upgrades
// a read-only translation in place).
func (t *TLB) Insert(vpn uint64, e Entry) {
	if i, ok := t.tab.find(vpn); ok {
		t.tab.slots[i].val = e.pack()
		return
	}
	if t.tab == nil {
		t.tab = newTable()
	}
	capacity := int(t.capacity)
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	// order may hold stale VPNs flushed earlier; evict until below
	// capacity.
	for t.tab.n >= capacity && t.order.Len() > 0 {
		t.tab.remove(t.pop())
	}
	t.push(vpn)
	t.tab.put(vpn, e.pack())
}

// push appends one eviction token for vpn.
func (t *TLB) push(vpn uint64) {
	if vpn > vpnMask {
		panic(fmt.Sprintf("tlb: %#x is not a page number", vpn))
	}
	if n := t.order.Len(); n > 0 {
		last := t.order.At(n - 1)
		// w+repeat wraps once the word's repeat count is full.
		if w := *last; w&vpnMask == vpn && w+repeat > w {
			*last = w + repeat
			return
		}
	}
	t.order.Push(vpn)
}

// pop removes the oldest eviction token and returns its VPN. The queue must
// not be empty.
func (t *TLB) pop() uint64 {
	first := t.order.At(0)
	w := *first
	if w >= repeat {
		*first = w - repeat
		return w & vpnMask
	}
	t.order.Drop(1)
	return w
}

// Lookup reports the cached translation for vpn.
func (t *TLB) Lookup(vpn uint64) (Entry, bool) {
	i, ok := t.tab.find(vpn)
	if !ok {
		return Entry{}, false
	}
	return unpack(t.tab.slots[i].val), true
}

// FlushPage invalidates vpn (INVLPG) and reports whether it was present.
func (t *TLB) FlushPage(vpn uint64) bool {
	if t.tab.remove(vpn) {
		t.Flushes++
		return true
	}
	return false
}

// FlushRange invalidates [lo, hi) and returns the number of entries dropped.
// Narrow ranges (the common munmap shape: a handful of pages) are flushed
// by per-key INVLPG-style deletes; only ranges wider than the cached set
// pay for a sweep of the whole table. The seed swept per munmap, which
// dominated the shootdown path's real CPU time. An empty TLB — most of the
// targets of a broadcast — returns 0 at once.
func (t *TLB) FlushRange(lo, hi uint64) int {
	tb := t.tab
	if tb == nil || tb.n == 0 {
		return 0
	}
	n := 0
	if hi-lo <= uint64(tb.n) {
		for vpn := lo; vpn < hi; vpn++ {
			if tb.remove(vpn) {
				n++
			}
		}
	} else {
		for i := 0; i < len(tb.slots); {
			key := tb.slots[i].key
			if key == 0 || key-1 < lo || key-1 >= hi {
				i++
				continue
			}
			// Closing the hole may bring another key to slot i (only ever
			// one not yet looked at, or one already passed over and out of
			// range), so the sweep stays on it.
			tb.removeAt(i)
			n++
		}
	}
	t.Flushes += uint64(n)
	return n
}

// FlushAll empties the TLB (CR3 reload). It empties in place: nothing is
// allocated, and a TLB that holds nothing — every core a forked child never
// ran on, at each of its parent's forks and at its own exit — only counts
// the flush.
func (t *TLB) FlushAll() {
	if t.tab != nil && t.tab.n > 0 {
		clear(t.tab.slots)
		t.tab.n = 0
	}
	t.order.Reset()
	t.FullFlushes++
}

// Len returns the number of cached translations.
func (t *TLB) Len() int {
	if t.tab == nil {
		return 0
	}
	return t.tab.n
}
