// Package fifo is the simulator's unbounded first-in-first-out queue: a
// core's TLB eviction queue and its Refcache review queue. Both can grow to
// thousands of entries and drain from the front while they grow at the back,
// and neither may ever reorder, drop or merge an entry behind its owner's
// back — the order is the model's virtual behaviour.
//
// A slice grown by append copies itself each time it outgrows its array, so
// a queue of n entries costs several times n in copies before it settles. A
// Queue instead stores its entries in blocks of one length that are never
// copied once full: a long queue costs its own bytes, and a queue cycling at
// a steady length reuses the block its front drained.
package fifo

import "unsafe"

// blockBytes is the storage of one full block: with the 8-byte header the
// Go allocator puts in front of a large object that holds pointers, a block
// fills the 16 KiB size class and wastes nothing of it.
const blockBytes = 16384 - 8

// firstLen is the capacity of a queue's first block: most queues (a forked
// child's TLBs, an idle core's review queue) hold a handful of entries.
const firstLen = 8

// blockLen is the length of a full block of T.
func blockLen[T any]() int {
	var zero T
	return max(blockBytes/int(unsafe.Sizeof(zero)), 1)
}

// Queue is a FIFO of T. The zero value is an empty queue; a Queue must not
// be copied after first use.
//
// The entries are blocks[0][head:], then every later block in full. While
// there is one block, it grows by doubling from firstLen up to blockLen;
// after that every block but the last holds exactly blockLen entries, so At
// is two index operations. The block the front drains is kept as a spare for
// the back, in blocks' capacity just past its length, so the spare costs the
// Queue no field: a Queue is as small as the slice and index it replaces.
type Queue[T any] struct {
	blocks [][]T
	head   int // entries of blocks[0] already dropped
}

// Len returns the number of entries in the queue.
func (q *Queue[T]) Len() int {
	n := len(q.blocks)
	if n == 0 {
		return 0
	}
	// With more than one block, blocks[0] is full: its length is blockLen.
	return (n-1)*len(q.blocks[0]) + len(q.blocks[n-1]) - q.head
}

// Blocks returns the number of blocks the entries occupy: the queue's
// storage is about that many times blockLen entries, or less for one block.
func (q *Queue[T]) Blocks() int { return len(q.blocks) }

// At returns the i'th entry from the front, 0 <= i < Len(). The pointer is
// valid until the next Push, Drop or Reset.
func (q *Queue[T]) At(i int) *T {
	i += q.head
	if b := q.blocks[0]; i < len(b) {
		return &b[i]
	}
	n := blockLen[T]()
	return &q.blocks[i/n][i%n]
}

// Push appends v at the back.
func (q *Queue[T]) Push(v T) {
	n := len(q.blocks)
	if n == 0 || len(q.blocks[n-1]) == cap(q.blocks[n-1]) {
		q.grow()
		n = len(q.blocks)
	}
	b := &q.blocks[n-1]
	*b = append(*b, v)
}

// grow makes room for one more entry at the back: the first block, double
// the one block there is, or one more full-length block — the spare if there
// is one.
func (q *Queue[T]) grow() {
	full := blockLen[T]()
	n := len(q.blocks)
	switch {
	case n == 0:
		q.blocks = append(q.blocks, make([]T, 0, min(firstLen, full)))
	case n == 1 && cap(q.blocks[0]) < full:
		b := q.blocks[0][q.head:]
		q.blocks[0] = append(make([]T, 0, min(2*cap(q.blocks[0]), full)), b...)
		q.head = 0
	case n < cap(q.blocks) && q.blocks[:n+1][n] != nil:
		q.blocks = q.blocks[:n+1]
	default:
		q.blocks = append(q.blocks, make([]T, 0, full))
	}
}

// Drop removes the k oldest entries, 0 <= k <= Len(), and clears their
// slots so the queue keeps nothing they point to alive. A block drained at
// the front becomes the spare; a queue down to one block moves its entries
// to the front of it once the dropped prefix is half the block's length, so
// a queue cycling within one block reuses it.
func (q *Queue[T]) Drop(k int) {
	if k < 0 || k > q.Len() {
		panic("fifo: Drop beyond the queue's length")
	}
	for k > 0 {
		b := q.blocks[0]
		d := min(k, len(b)-q.head)
		clear(b[q.head : q.head+d])
		q.head += d
		k -= d
		if q.head == len(b) && len(q.blocks) > 1 {
			q.retireFront()
		}
	}
	if b := q.blocks; len(b) == 1 && q.head > 0 && 2*q.head >= len(b[0]) {
		live := copy(b[0], b[0][q.head:])
		clear(b[0][live:])
		b[0] = b[0][:live]
		q.head = 0
	}
}

// retireFront removes the drained front block and parks it, emptied, as the
// spare just past the remaining blocks, in place of any older spare.
func (q *Queue[T]) retireFront() {
	drained := q.blocks[0][:0]
	n := copy(q.blocks, q.blocks[1:])
	all := q.blocks[:cap(q.blocks)]
	all[n] = drained
	if n+1 < len(all) {
		all[n+1] = nil
	}
	q.blocks = q.blocks[:n]
	q.head = 0
}

// Reset empties the queue. It keeps the first block for the entries to come
// and lets the others go.
func (q *Queue[T]) Reset() {
	if len(q.blocks) == 0 {
		return
	}
	clear(q.blocks[0][q.head:])
	first := q.blocks[0][:0]
	clear(q.blocks[:cap(q.blocks)])
	q.blocks = append(q.blocks[:0], first)
	q.head = 0
}
