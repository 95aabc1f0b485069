package fifo

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// wide is an element large enough that a block holds 31 of them, and it
// holds a pointer, so Drop's clearing matters to the GC.
type wide struct {
	v   uint64
	p   *int
	pad [62]uint64
}

func mkUint(v uint64) uint64   { return v }
func mkWide(v uint64) wide     { return wide{v: v, p: new(int)} }
func valUint(x *uint64) uint64 { return *x }
func valWide(x *wide) uint64   { return x.v }

// run interprets ops as a stream of queue operations on q and on a plain
// slice, and fails at the first difference. Each byte is one operation: its
// low two bits pick it, the other six (a) size it, in entries divided by
// unit (so that a stream crosses about as many blocks of a wide element as
// of a narrow one).
//
//	0, 1  Push a*a/2/unit+1 entries
//	2     Drop min(a*a/unit, Len) entries
//	3     Reset if a == 63, else read At at a few positions
//
// After every operation the queue's length, every entry and the layout
// invariants are checked.
func run[T any](t *testing.T, ops []byte, unit int, mk func(uint64) T, val func(*T) uint64) {
	t.Helper()
	var q Queue[T]
	var ref []uint64
	next := uint64(1)
	for step, b := range ops {
		a := int(b >> 2)
		switch b & 3 {
		case 0, 1:
			for range a*a/2/unit + 1 {
				q.Push(mk(next))
				ref = append(ref, next)
				next++
			}
		case 2:
			k := min(a*a/unit, len(ref))
			q.Drop(k)
			ref = ref[k:]
		case 3:
			if a == 63 {
				q.Reset()
				ref = ref[:0]
				break
			}
			for _, i := range []int{0, len(ref) / 2, len(ref) - 1, a % max(len(ref), 1)} {
				if i >= 0 && i < len(ref) {
					if got := val(q.At(i)); got != ref[i] {
						t.Fatalf("step %d: At(%d) = %d, want %d", step, i, got, ref[i])
					}
				}
			}
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d (op %#x): Len = %d, want %d", step, b, q.Len(), len(ref))
		}
		for i, want := range ref {
			if got := val(q.At(i)); got != want {
				t.Fatalf("step %d (op %#x): At(%d) = %d, want %d", step, b, i, got, want)
			}
		}
		checkLayout(t, &q)
	}
}

// checkLayout checks the storage invariants Len and At rely on, and that no
// slot outside the entries holds anything.
func checkLayout[T any](t *testing.T, q *Queue[T]) {
	t.Helper()
	var zero T
	isZero := func(s []T) bool {
		for i := range s {
			if any(s[i]) != any(zero) {
				return false
			}
		}
		return true
	}
	n, full := len(q.blocks), blockLen[T]()
	if n == 0 {
		if q.head != 0 {
			t.Fatalf("empty queue has head %d", q.head)
		}
		return
	}
	for i, b := range q.blocks {
		if cap(b) > full || i < n-1 && (len(b) != full || cap(b) != full) {
			t.Fatalf("block %d of %d: len %d cap %d, block length %d", i, n, len(b), cap(b), full)
		}
	}
	if q.head > len(q.blocks[0]) || !isZero(q.blocks[0][:q.head]) {
		t.Fatalf("dropped prefix of %d entries not cleared", q.head)
	}
	if last := q.blocks[n-1]; !isZero(last[len(last):cap(last)]) {
		t.Fatal("slots past the back hold entries")
	}
	all := q.blocks[:cap(q.blocks)]
	for i, b := range all[n:] {
		switch {
		case i > 0 && b != nil:
			t.Fatalf("a second spare at %d past the blocks", i)
		case b != nil && (cap(b) != full || !isZero(b[:cap(b)])):
			t.Fatalf("spare block: cap %d, block length %d, or not cleared", cap(b), full)
		}
	}
}

func TestBlockLengths(t *testing.T) {
	if n := blockLen[uint64](); n != 2047 {
		t.Errorf("uint64 block holds %d, want 2047", n)
	}
	if n := blockLen[wide](); n != 31 {
		t.Errorf("wide block holds %d, want 31", n)
	}
	if n := blockLen[[20000]byte](); n != 1 {
		t.Errorf("an element wider than a block: block holds %d, want 1", n)
	}
}

// The queue against a plain slice over random op streams long enough to
// grow past several blocks, drain back through them and reset.
func TestQueueMatchesSlice(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, maxOps)
		rng.Read(ops)
		runBoth(t, ops)
	}
}

// maxOps bounds a stream: at most 200 pushes of 1 985 entries.
const maxOps = 200

// runBoth runs ops on a queue of uint64, 2 047 to a block, and on one of
// wide, 31 to a block, with op sizes scaled down to match.
func runBoth(t *testing.T, ops []byte) {
	run(t, ops, 1, mkUint, valUint)
	run(t, ops, 64, mkWide, valWide)
}

func FuzzQueue(f *testing.F) {
	f.Add([]byte{0xfc, 0xfc, 0xfd, 0x02, 0xfe, 0xfe, 0xfe, 0x03})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > maxOps {
			ops = ops[:maxOps]
		}
		runBoth(t, ops)
	})
}

// A queue cycling at a steady length longer than one block drains its front
// block into the spare and fills it again at the back: nothing is allocated.
func TestCyclingQueueAllocatesNothing(t *testing.T) {
	var q Queue[uint64]
	n := blockLen[uint64]()
	for v := range uint64(n + n/2) {
		q.Push(v)
	}
	v := uint64(n + n/2)
	allocs := testing.AllocsPerRun(1, func() {
		for range 3 * n {
			q.Push(v)
			q.Drop(1)
			v++
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations over %d pushes and drops at length %d", allocs, 3*n, q.Len())
	}
	if got, want := *q.At(0), v-uint64(n+n/2); got != want {
		t.Fatalf("front is %d, want %d", got, want)
	}
}

// One full block and the allocator's header fill the 16 KiB size class and
// no more, for an element without pointers and one with.
func TestQueueBlockFillsItsSizeClass(t *testing.T) {
	type ptrPair struct {
		p *int
		v uint64
	}
	if s := unsafe.Sizeof(ptrPair{}); s != 16 {
		t.Fatalf("ptrPair is %d bytes", s)
	}
	t.Run("uint64", func(t *testing.T) { blockBytesAllocated(t, uint64(1)) })
	t.Run("pointer pair", func(t *testing.T) { blockBytesAllocated(t, ptrPair{p: new(int)}) })
}

// blockBytesAllocated pushes onto a queue whose one block is full, which
// allocates exactly one new block, and checks what that cost the heap.
func blockBytesAllocated[T any](t *testing.T, v T) {
	q := Queue[T]{blocks: make([][]T, 0, 2)}
	for range blockLen[T]() {
		q.Push(v)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	q.Push(v)
	runtime.ReadMemStats(&after)
	block := int(unsafe.Sizeof(v)) * blockLen[T]()
	if got := after.TotalAlloc - before.TotalAlloc; got < uint64(block) || got > 16384 {
		t.Fatalf("a %d-byte block cost %d bytes of heap, want at most 16384", block, got)
	}
	if q.Blocks() != 2 {
		t.Fatalf("queue in %d blocks, want 2", q.Blocks())
	}
}
