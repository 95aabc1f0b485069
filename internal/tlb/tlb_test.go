package tlb

import (
	"math/rand"
	"testing"
	"unsafe"
)

func ro(pfn uint64) Entry { return Entry{PFN: pfn} }

func TestInsertLookup(t *testing.T) {
	tl := New(4)
	tl.Insert(1, ro(100))
	if e, ok := tl.Lookup(1); !ok || e.PFN != 100 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
	if _, ok := tl.Lookup(2); ok {
		t.Fatal("hit on absent vpn")
	}
	tl.Insert(1, ro(200)) // update in place
	if e, _ := tl.Lookup(1); e.PFN != 200 {
		t.Fatalf("update lost: %d", e.PFN)
	}
	if tl.Len() != 1 {
		t.Fatalf("Len = %d", tl.Len())
	}
}

func TestPermissionBits(t *testing.T) {
	tl := New(0)
	tl.Insert(1, Entry{PFN: 7, Readable: true, Writable: true})
	tl.Insert(2, Entry{PFN: 8, Readable: true, Exec: true})
	tl.Insert(3, Entry{PFN: 9, Readable: true, Writable: true, Exec: true})
	tl.Insert(4, Entry{PFN: 10}) // PROT_NONE: present, no rights
	e, _ := tl.Lookup(1)
	if e.PFN != 7 || !e.Readable || !e.Writable || e.Exec {
		t.Fatalf("entry 1 = %+v", e)
	}
	e, _ = tl.Lookup(2)
	if e.PFN != 8 || !e.Readable || e.Writable || !e.Exec {
		t.Fatalf("entry 2 = %+v", e)
	}
	e, _ = tl.Lookup(3)
	if e.PFN != 9 || !e.Readable || !e.Writable || !e.Exec {
		t.Fatalf("entry 3 = %+v", e)
	}
	e, _ = tl.Lookup(4)
	if e.PFN != 10 || e.Readable || e.Writable || e.Exec {
		t.Fatalf("entry 4 = %+v", e)
	}
	// A prot-fault fill downgrades/upgrades in place.
	tl.Insert(3, Entry{PFN: 9, Readable: true})
	if e, _ := tl.Lookup(3); e.Writable || e.Exec || !e.Readable {
		t.Fatalf("in-place permission update lost: %+v", e)
	}
}

func TestFIFOEviction(t *testing.T) {
	tl := New(2)
	tl.Insert(1, ro(1))
	tl.Insert(2, ro(2))
	tl.Insert(3, ro(3)) // evicts vpn 1
	if _, ok := tl.Lookup(1); ok {
		t.Fatal("oldest entry not evicted")
	}
	if tl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tl.Len())
	}
}

func TestFlushPage(t *testing.T) {
	tl := New(0)
	tl.Insert(9, ro(90))
	if !tl.FlushPage(9) {
		t.Fatal("flush of present entry returned false")
	}
	if tl.FlushPage(9) {
		t.Fatal("flush of absent entry returned true")
	}
	if tl.Flushes != 1 {
		t.Fatalf("Flushes = %d", tl.Flushes)
	}
}

func TestFlushRange(t *testing.T) {
	tl := New(0)
	for vpn := uint64(10); vpn < 20; vpn++ {
		tl.Insert(vpn, ro(vpn))
	}
	if n := tl.FlushRange(12, 15); n != 3 {
		t.Fatalf("FlushRange = %d, want 3", n)
	}
	if _, ok := tl.Lookup(12); ok {
		t.Fatal("flushed entry still present")
	}
	if _, ok := tl.Lookup(15); !ok {
		t.Fatal("entry outside range flushed")
	}
}

func TestFlushAll(t *testing.T) {
	tl := New(0)
	tl.Insert(1, ro(1))
	tl.Insert(2, ro(2))
	tl.FlushAll()
	if tl.Len() != 0 || tl.FullFlushes != 1 {
		t.Fatalf("Len=%d FullFlushes=%d", tl.Len(), tl.FullFlushes)
	}
	// Reuse after a full flush.
	tl.Insert(3, ro(3))
	if _, ok := tl.Lookup(3); !ok {
		t.Fatal("insert after FlushAll lost")
	}
}

func TestStaleOrderAfterFlushDoesNotCorrupt(t *testing.T) {
	tl := New(2)
	tl.Insert(1, ro(1))
	tl.Insert(2, ro(2))
	tl.FlushPage(1) // order still remembers vpn 1
	tl.Insert(3, ro(3))
	tl.Insert(4, ro(4))
	if tl.Len() > 2 {
		t.Fatalf("capacity exceeded: %d", tl.Len())
	}
	if _, ok := tl.Lookup(4); !ok {
		t.Fatal("newest entry lost")
	}
}

func TestZeroValueTLB(t *testing.T) {
	var tl TLB
	if _, ok := tl.Lookup(1); ok || tl.Len() != 0 || tl.FlushPage(1) || tl.FlushRange(0, 8) != 0 {
		t.Fatal("zero-value TLB is not empty")
	}
	tl.FlushAll()
	for vpn := uint64(0); vpn < DefaultCapacity+10; vpn++ {
		tl.Insert(vpn, ro(vpn))
	}
	if tl.Len() != DefaultCapacity || tl.FullFlushes != 1 {
		t.Fatalf("Len=%d FullFlushes=%d, want %d and 1", tl.Len(), tl.FullFlushes, DefaultCapacity)
	}
	if _, ok := tl.Lookup(9); ok {
		t.Fatal("zero-value TLB did not evict at DefaultCapacity")
	}
}

// FlushAll runs once per active core of the parent at every lazy fork, and
// once per core of the child at exit; it used to allocate a presized map
// (~37 KB) each time.
func TestFlushAllAllocatesNothing(t *testing.T) {
	empty := New(0)
	if n := testing.AllocsPerRun(100, empty.FlushAll); n != 0 {
		t.Errorf("FlushAll on an empty TLB: %v allocs, want 0", n)
	}
	full := New(0)
	n := testing.AllocsPerRun(100, func() {
		full.Insert(1, ro(1)) // the map and the queue keep their storage
		full.Insert(2, ro(2))
		full.FlushAll()
	})
	if n != 0 || full.Len() != 0 {
		t.Errorf("FlushAll on a populated TLB: %v allocs, Len=%d, want 0 and 0", n, full.Len())
	}
}

// refTLB is the TLB as it was before the eviction queue was stored in runs:
// a map plus a plain FIFO slice of VPNs in which flushed pages leave stale
// entries. It is the specification the differential test holds TLB to.
type refTLB struct {
	entries              map[uint64]Entry
	order                []uint64
	capacity             int
	flushes, fullFlushes uint64
}

func (r *refTLB) insert(vpn uint64, e Entry) {
	if _, ok := r.entries[vpn]; !ok {
		for len(r.entries) >= r.capacity && len(r.order) > 0 {
			old := r.order[0]
			r.order = r.order[1:]
			delete(r.entries, old)
		}
		r.order = append(r.order, vpn)
	}
	r.entries[vpn] = e
}

func (r *refTLB) flushRange(lo, hi uint64) int {
	n := 0
	for vpn := lo; vpn < hi; vpn++ {
		if _, ok := r.entries[vpn]; ok {
			delete(r.entries, vpn)
			n++
		}
	}
	r.flushes += uint64(n)
	return n
}

func (r *refTLB) flushAll() {
	r.entries = map[uint64]Entry{}
	r.order = r.order[:0]
	r.fullFlushes++
}

// TestDifferentialAgainstReference drives random operations over a VPN
// space three times the capacity, so pages are flushed, re-inserted and
// evicted through stale queue entries constantly. The small capacities live
// in the table's first eight slots; the large ones grow it through five
// doublings, at a stride that scatters the keys, and keep it near its load
// limit, so deletions close holes inside long probe runs, across the table's
// end included (TestDeleteInsideWrappedProbeRun pins that case by hand).
func TestDifferentialAgainstReference(t *testing.T) {
	for _, tc := range []struct {
		capacity int
		stride   uint64
	}{{1, 1}, {3, 1}, {8, 1}, {190, 1}, {190, 5}} {
		capacity, vpns := tc.capacity, 3*tc.capacity
		rng := rand.New(rand.NewSource(int64(capacity)))
		tl := New(capacity)
		ref := &refTLB{entries: map[uint64]Entry{}, capacity: capacity}
		// Start behind a long run of stale tokens for one page — more than
		// one queue word counts — which the random phase then evicts through.
		for i := 0; i < 5000; i++ {
			tl.Insert(3, ro(3))
			ref.insert(3, ro(3))
			tl.FlushPage(3)
			ref.flushRange(3, 4)
		}
		narrow, wide, slots := 0, 0, 0
		for i := 0; i < 20000; i++ {
			vpn := uint64(rng.Intn(vpns)) * tc.stride
			switch op := rng.Intn(100); {
			case op < 45:
				e := Entry{PFN: uint64(i), Readable: true, Writable: rng.Intn(2) == 0}
				tl.Insert(vpn, e)
				ref.insert(vpn, e)
			case op < 75:
				got, ok := tl.Lookup(vpn)
				want, wok := ref.entries[vpn]
				if ok != wok || got != want {
					t.Fatalf("cap %d op %d: Lookup(%d) = %+v, %v; reference %+v, %v", capacity, i, vpn, got, ok, want, wok)
				}
			case op < 88:
				if got, want := tl.FlushPage(vpn), ref.flushRange(vpn, vpn+1) == 1; got != want {
					t.Fatalf("cap %d op %d: FlushPage(%d) = %v; reference %v", capacity, i, vpn, got, want)
				}
			case op < 98:
				// Both FlushRange strategies: narrower and wider than the
				// cached set. Mostly short ranges, or a full table never
				// builds up between two of them.
				width := rng.Intn(8)
				if rng.Intn(4) == 0 {
					width = rng.Intn(vpns)
				}
				hi := vpn + uint64(width)*tc.stride
				if hi-vpn <= uint64(tl.Len()) {
					narrow++
				} else {
					wide++
				}
				if got, want := tl.FlushRange(vpn, hi), ref.flushRange(vpn, hi); got != want {
					t.Fatalf("cap %d op %d: FlushRange(%d, %d) = %d; reference %d", capacity, i, vpn, hi, got, want)
				}
			case i%10 == 0: // a tenth as often as the other ops, so the table fills
				tl.FlushAll()
				ref.flushAll()
			}
			if tl.Len() != len(ref.entries) || tl.Flushes != ref.flushes || tl.FullFlushes != ref.fullFlushes {
				t.Fatalf("cap %d op %d: Len/Flushes/FullFlushes = %d/%d/%d; reference %d/%d/%d", capacity, i,
					tl.Len(), tl.Flushes, tl.FullFlushes, len(ref.entries), ref.flushes, ref.fullFlushes)
			}
			if tl.tab != nil {
				slots = max(slots, len(tl.tab.slots))
			}
		}
		for i := 0; i < vpns; i++ {
			vpn := uint64(i) * tc.stride
			got, ok := tl.Lookup(vpn)
			if want, wok := ref.entries[vpn]; ok != wok || got != want {
				t.Fatalf("cap %d: final Lookup(%d) = %+v, %v; reference %+v, %v", capacity, vpn, got, ok, want, wok)
			}
		}
		if narrow < 100 || wide < 100 {
			t.Errorf("cap %d: %d narrow and %d wide FlushRange calls: the mix no longer reaches both branches", capacity, narrow, wide)
		}
		if want := max(minSlots, capacity*4/3); slots < want || slots >= 4*want {
			t.Errorf("cap %d: the table reached %d slots, want enough for %d entries at 3/4 full and under four times that", capacity, slots, capacity)
		}
	}
}

// homedAt returns n distinct VPNs whose probe runs start at slot home of tb.
func homedAt(tb *table, home, n int) []uint64 {
	var vpns []uint64
	for vpn := uint64(0); len(vpns) < n; vpn++ {
		if tb.home(vpn+1) == home {
			vpns = append(vpns, vpn)
		}
	}
	return vpns
}

// TestDeleteInsideWrappedProbeRun: four colliding keys whose run starts in
// the table's last slot and wraps to its first, followed by a key at home in
// slot 0 that the run pushed along. Deleting from the middle must shift the
// tail back across the table's end — and must not shift the last key to
// before its own home, where no probe would find it.
func TestDeleteInsideWrappedProbeRun(t *testing.T) {
	tl := New(0)
	tl.Insert(1<<40, ro(0)) // the table exists
	tl.FlushAll()
	tb := tl.tab
	last := len(tb.slots) - 1
	run := homedAt(tb, last, 4)
	guest := homedAt(tb, 0, 1)[0]
	for _, vpn := range append(run, guest) {
		tl.Insert(vpn, ro(vpn))
	}
	at := func(i int) uint64 { return tb.slots[i&last].key - 1 }
	if len(tb.slots) != last+1 || at(last) != run[0] || at(0) != run[1] || at(1) != run[2] || at(2) != run[3] || at(3) != guest {
		t.Fatalf("setup: slots %v do not hold the wrapped run %v then %d", tb.slots, run, guest)
	}
	const empty = ^uint64(0) // what at reports for a free slot
	live := map[uint64]bool{run[0]: true, run[1]: true, run[2]: true, run[3]: true, guest: true}
	// drop flushes vpn and checks every key's presence and the slots from
	// the last one on.
	drop := func(vpn uint64, layout ...uint64) {
		t.Helper()
		if !tl.FlushPage(vpn) {
			t.Fatalf("FlushPage(%d) missed a cached page", vpn)
		}
		delete(live, vpn)
		for _, vpn := range append(run, guest) {
			if e, ok := tl.Lookup(vpn); ok != live[vpn] || (ok && e.PFN != vpn) {
				t.Fatalf("after FlushPage: Lookup(%d) = %+v, %v; want present=%v", vpn, e, ok, live[vpn])
			}
		}
		for i, vpn := range layout {
			if at(last+i) != vpn {
				t.Fatalf("slots %v, want VPNs %v from slot %d on", tb.slots, layout, last)
			}
		}
		if tl.Len() != len(live) {
			t.Fatalf("Len = %d, want %d", tl.Len(), len(live))
		}
	}
	drop(run[1], run[0], run[2], run[3], guest, empty) // slot 0: mid-run, just past the wrap
	drop(run[0], run[2], run[3], guest, empty)         // the last slot: the shift itself wraps
	drop(run[2], run[3], guest, empty)
	drop(run[3], empty, guest, empty) // guest is in slot 0, its home, and must stay
}

// TestSteadyStateAllocatesNothing: once the table has grown to hold a TLB's
// working set, hits, misses, a flush and re-insert of a cached page, and an
// insert that evicts all leave the heap alone.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	tl := New(1024)
	for vpn := uint64(0); vpn < 4096; vpn++ {
		tl.Insert(vpn, ro(vpn)) // three times round, so the queue has its storage too
	}
	next := uint64(4096)
	allocs := testing.AllocsPerRun(2000, func() {
		if _, ok := tl.Lookup(next - 1); !ok {
			t.Fatal("miss on the newest page")
		}
		if _, ok := tl.Lookup(next + 1<<30); ok {
			t.Fatal("hit on a page never inserted")
		}
		if !tl.FlushPage(next-2) || tl.FlushPage(next-2) {
			t.Fatal("FlushPage of a cached page, then of a flushed one")
		}
		tl.Insert(next-2, ro(0))  // room without evicting
		tl.Insert(next, ro(next)) // evicts
		next++
	})
	if allocs != 0 || tl.Len() != 1024 {
		t.Errorf("steady state at 1024 entries: %v allocs per round, Len = %d; want 0 and 1024", allocs, tl.Len())
	}
	// AllocsPerRun rounds down, so a queue that grew by a word a round
	// would still read 0 above: hold its words. Each round leaves one stale
	// token, which the next turn of the queue evicts; 2 048 words hold.
	if words := tl.order.Len(); words > 2*1024 {
		t.Errorf("eviction queue of %d words for 1024 entries, want <= %d", words, 2*1024)
	}
}

// TestFirstInsertAllocations: a forked child fills a fresh TLB on each core
// it runs on. New and the first Insert allocate the TLB, its table with the
// first eight slots inside it, and the eviction queue's block index and
// first block — four objects; the slots were a fifth of their own.
func TestFirstInsertAllocations(t *testing.T) {
	var tl *TLB
	allocs := testing.AllocsPerRun(100, func() {
		tl = New(0)
		tl.Insert(1, ro(1))
	})
	if allocs != 4 || tl.Len() != 1 {
		t.Errorf("New + first Insert: %v allocs, Len = %d; want 4 and 1", allocs, tl.Len())
	}
}

// A shared-table address space holds a TLB by value for every core of the
// machine, used or not, and a per-core-table one for every core it runs on;
// the table must stay behind a pointer (inline it cost 1.5 KB more per
// 64-core address space).
func TestTLBStaysSmall(t *testing.T) {
	if size := unsafe.Sizeof(TLB{}); size > 72 {
		t.Errorf("TLB is %d bytes, want <= 72", size)
	}
}

// A flushed page's queue entry is not dead weight: if the page comes back
// while the entry is still queued, the entry evicts it ahead of older pages.
// Dropping entries whose VPN is absent from the map — the obvious way to
// bound the queue — would keep vpn 1 and evict vpn 2 here, and every
// virtual-time figure that reaches TLB capacity after an munmap would move.
func TestStaleQueueEntryEvictsReinsertedPage(t *testing.T) {
	tl := New(3)
	tl.Insert(1, ro(1))
	tl.Insert(2, ro(2))
	tl.Insert(3, ro(3))
	tl.FlushPage(1)     // queue still 1 2 3
	tl.Insert(1, ro(1)) // room without evicting; queue 1 2 3 1
	tl.Insert(4, ro(4)) // the stale head entry evicts the new vpn 1
	if _, ok := tl.Lookup(1); ok {
		t.Fatal("re-inserted page survived its stale queue entry")
	}
	if _, ok := tl.Lookup(2); !ok {
		t.Fatal("vpn 2 evicted: the stale entry for vpn 1 was dropped from the queue")
	}
}

// The local benchmark's loop — map, touch and unmap one page — queues one
// token per iteration without ever evicting; the queue used to grow by a
// word each time for the life of the address space. A TLB cycling at
// capacity used to abandon its queue's backing array every few hundred
// evictions.
func TestEvictionQueueStaysCompact(t *testing.T) {
	loop := New(0)
	for i := 0; i < 10000; i++ {
		loop.Insert(7, ro(7))
		loop.FlushPage(7)
	}
	if loop.order.Len() > 4 {
		t.Fatalf("10000 insert/flush rounds of one page queued %d words", loop.order.Len())
	}

	cycling := New(64)
	for vpn := uint64(0); vpn < 64; vpn++ {
		cycling.Insert(vpn, ro(vpn))
	}
	vpn := uint64(64)
	allocs := testing.AllocsPerRun(10000, func() {
		cycling.Insert(vpn, ro(vpn))
		vpn++
	})
	if allocs != 0 || cycling.order.Blocks() > 1 {
		t.Fatalf("TLB cycling at capacity: %v allocs per insert, queue in %d blocks", allocs, cycling.order.Blocks())
	}
}

// The global benchmark's pattern: a core fills 1 024 distinct pages and the
// munmap flushes them all, below capacity, so no token is ever evicted and
// the queue grows by 1 024 tokens a round. The tokens must cost their own
// 8 bytes, not the spare capacity of a slice outgrowing its array: the
// queue holds them in blocks of one 16 KiB size class that are never copied
// once full (fifo's tests hold both), so after 12 rounds its storage is the
// blocks it reports, at most 8 B a token plus the one block at the back
// that is not yet full. The bound is on the queue's own storage, not on the
// process's allocation counters, which also count whatever else the process
// allocates meanwhile.
func TestFlushedTokensCostTheirOwnBytes(t *testing.T) {
	const pages, rounds, block = 1024, 12, 16384
	tl := New(DefaultCapacity)
	for range rounds {
		for vpn := uint64(0); vpn < pages; vpn++ {
			tl.Insert(vpn, ro(vpn))
		}
		tl.FlushRange(0, pages)
	}
	tokens := tl.order.Len()
	if tokens != rounds*pages {
		t.Fatalf("queue holds %d tokens, want %d", tokens, rounds*pages)
	}
	got, limit := tl.order.Blocks()*block, 8*tokens+block
	if got > limit {
		t.Fatalf("a queue of %d tokens holds %d blocks (%d B), want at most %d B", tokens, tl.order.Blocks(), got, limit)
	}
}

// An empty TLB, new or emptied, flushes a range without counting a flush;
// a populated one is still flushed.
func TestFlushRangeOfEmptyTLB(t *testing.T) {
	tl := New(8)
	emptied := New(8)
	emptied.Insert(5, ro(5))
	emptied.FlushAll()
	for _, tl := range []*TLB{tl, emptied} {
		flushes := tl.Flushes
		if n := tl.FlushRange(0, 1); n != 0 || tl.Flushes != flushes {
			t.Errorf("FlushRange of an empty TLB = %d, Flushes %d -> %d; want 0, unchanged", n, flushes, tl.Flushes)
		}
	}
	tl.Insert(3, ro(3))
	if n := tl.FlushRange(3, 4); n != 1 || tl.Flushes != 1 || tl.Len() != 0 {
		t.Errorf("FlushRange of one entry = %d, Flushes %d, Len %d; want 1, 1, 0", n, tl.Flushes, tl.Len())
	}
}

// The count FlushRange's empty check trusts, the table's, is the number of
// translations Lookup finds after every operation: Insert over capacity
// (evicting, stale tokens included), FlushPage, both FlushRange branches and
// FlushAll.
func TestLiveCountTracksTable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tl := New(16)
	for i := 0; i < 20000; i++ {
		vpn := uint64(rng.Intn(48))
		switch op := rng.Intn(20); {
		case op < 12:
			tl.Insert(vpn, ro(vpn))
		case op < 16:
			tl.FlushPage(vpn)
		case op < 19:
			tl.FlushRange(vpn, vpn+uint64(rng.Intn(40)))
		default:
			tl.FlushAll()
		}
		found := 0
		for v := uint64(0); v < 48; v++ {
			if _, ok := tl.Lookup(v); ok {
				found++
			}
		}
		if n := tl.Len(); n != found {
			t.Fatalf("op %d: table counts %d translations, Lookup finds %d", i, n, found)
		}
	}
}
