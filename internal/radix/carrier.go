package radix

import "radixvm/internal/hw"

// Value carriers make the mmap/munmap control plane's slot writes
// allocation-free, the way the Range carriers do for the lock paths and the
// node pools for expansion.
//
// A carrier owns one slotState and the value it points to. Entry.SetClone
// copies the caller's template into a carrier popped from the writing CPU's
// pool and stores the carrier's state in the slot; when a later Set (the munmap
// clearing the slot, or a remap overwriting it) replaces a carrier-backed
// state, the carrier returns to that CPU's pool, for the next Mmap.
//
// Safety: a retired carrier may be reused immediately because its
// slotState words are written exactly once, at carrier construction, and
// never again: a lock-free reader that read the state before a preemption
// point at which the slot was replaced reads only immutable words. Reuse
// rewrites the carrier's *value*, under its new slot's lock bit: the
// discipline for value contents in the slotState comment (radix.go).
//
// Ownership discipline matches the node pools: a CPU's pool is touched only
// by the proc driving that CPU, and a carrier is retired only by the Set
// that replaces it, under the slot's lock bit, so no carrier can be retired
// twice or from two sides.

// carrierPoolCap bounds each CPU's carrier free list; beyond it retired
// carriers fall back to the GC.
const carrierPoolCap = 256

type valCarrier[V any] struct {
	st   slotState[V]
	val  V
	next *valCarrier[V] // pool free-list link
}

// carrierPool is one CPU's free list of retired carriers (in its cpuState).
type carrierPool[V any] struct {
	head *valCarrier[V]
	n    int
}

// getCarrier pops a carrier for cpu, or builds a fresh one.
func (t *Tree[V]) getCarrier(cpu *hw.CPU) *valCarrier[V] {
	p := &t.cpu(cpu).carriers
	if c := p.head; c != nil {
		p.head = c.next
		p.n--
		c.next = nil
		return c
	}
	t.carriersEver++
	c := &valCarrier[V]{}
	c.st = slotState[V]{val: &c.val, carrier: c}
	return c
}

// retireCarrier returns a replaced carrier to cpu's pool. The caller holds
// the lock bit of the slot that owned it and has already replaced its
// state.
func (t *Tree[V]) retireCarrier(cpu *hw.CPU, c *valCarrier[V]) {
	p := &t.cpu(cpu).carriers
	if p.n >= carrierPoolCap {
		return // let the GC take it
	}
	c.next = p.head
	p.head = c
	p.n++
}
