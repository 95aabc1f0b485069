// Package tlb models per-core translation lookaside buffers. RadixVM's
// targeted shootdown design needs nothing fancy from the TLB itself — the
// cleverness is in tracking which cores *may* have an entry (the per-page
// core set in mapping metadata) — so this TLB is a bounded map with FIFO
// eviction, safe for the owner core plus shootdown-by-proxy senders.
package tlb

import (
	"fmt"
	"sync"
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
// DefaultCapacity, so an MMU can hold its cores' TLBs by value in one slice;
// a TLB must not be copied after first use.
type TLB struct {
	mu       sync.Mutex
	entries  map[uint64]uint64 // vpn -> packed Entry; nil until the first Insert
	capacity int               // 0 means DefaultCapacity

	// order is the FIFO eviction queue: one token per Insert of an absent
	// VPN, oldest at order[head]. Flushing a page leaves its token behind,
	// and a stale token is not inert — when it reaches the head it evicts
	// whatever translation its VPN has by then, so a VPN that was flushed
	// and inserted again can go before its turn. Virtual time depends on
	// that, which is why no token is ever dropped or merged away; the queue
	// is only stored compactly. Consecutive tokens of one VPN (a core that
	// maps, touches and unmaps the same page in a loop queues nothing else)
	// share one word, and the evicted prefix is reclaimed in place.
	order []uint64
	head  int

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
// map appears on the first Insert and grows on demand rather than being
// presized: presizing a 1536-entry map per core per address space cost ~1 MB
// and a bulk zeroing per benchmark environment, while most simulated
// workloads touch a few dozen translations — and most cores of a forked
// child's address space none at all.
func New(capacity int) *TLB {
	return &TLB{capacity: max(capacity, 0)}
}

// Insert caches vpn→e, evicting the oldest entry at capacity. Re-inserting
// a present VPN overwrites its entry (how a protection-fault fill upgrades
// a read-only translation in place).
func (t *TLB) Insert(vpn uint64, e Entry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.entries[vpn]; !ok {
		if t.entries == nil {
			t.entries = make(map[uint64]uint64)
		}
		capacity := t.capacity
		if capacity == 0 {
			capacity = DefaultCapacity
		}
		// order may hold stale VPNs flushed earlier; evict until below
		// capacity.
		for len(t.entries) >= capacity && t.head < len(t.order) {
			delete(t.entries, t.pop())
		}
		t.push(vpn)
	}
	t.entries[vpn] = e.pack()
}

// push appends one eviction token for vpn.
func (t *TLB) push(vpn uint64) {
	if vpn > vpnMask {
		panic(fmt.Sprintf("tlb: %#x is not a page number", vpn))
	}
	if n := len(t.order); n > t.head {
		// w+repeat wraps once the word's repeat count is full.
		if w := t.order[n-1]; w&vpnMask == vpn && w+repeat > w {
			t.order[n-1] = w + repeat
			return
		}
	}
	t.order = append(t.order, vpn)
}

// pop removes the oldest eviction token and returns its VPN. The queue must
// not be empty. Once the evicted prefix is half the array the live words
// move down over it, so a TLB cycling at capacity reuses one backing array.
func (t *TLB) pop() uint64 {
	w := t.order[t.head]
	if w >= repeat {
		t.order[t.head] = w - repeat
		return w & vpnMask
	}
	t.head++
	if 2*t.head >= len(t.order) {
		t.order = t.order[:copy(t.order, t.order[t.head:])]
		t.head = 0
	}
	return w
}

// Lookup reports the cached translation for vpn.
func (t *TLB) Lookup(vpn uint64) (Entry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, ok := t.entries[vpn]
	if !ok {
		return Entry{}, false
	}
	return unpack(raw), true
}

// FlushPage invalidates vpn (INVLPG) and reports whether it was present.
func (t *TLB) FlushPage(vpn uint64) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.entries[vpn]; ok {
		delete(t.entries, vpn)
		t.Flushes++
		return true
	}
	return false
}

// FlushRange invalidates [lo, hi) and returns the number of entries dropped.
// Narrow ranges (the common munmap shape: a handful of pages) are flushed
// by per-key INVLPG-style deletes; only ranges wider than the cached set
// pay for a full map iteration. The seed iterated the whole map per
// munmap, which dominated the shootdown path's real CPU time.
func (t *TLB) FlushRange(lo, hi uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	if hi-lo <= uint64(len(t.entries)) {
		for vpn := lo; vpn < hi; vpn++ {
			if _, ok := t.entries[vpn]; ok {
				delete(t.entries, vpn)
				n++
			}
		}
	} else {
		for vpn := range t.entries {
			if vpn >= lo && vpn < hi {
				delete(t.entries, vpn)
				n++
			}
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
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.entries) > 0 {
		clear(t.entries)
	}
	t.order = t.order[:0]
	t.head = 0
	t.FullFlushes++
}

// Len returns the number of cached translations.
func (t *TLB) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}
