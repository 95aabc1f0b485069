package skiplist

import "sync/atomic"

// markable is an atomic (pointer, marked) pair, the moral equivalent of
// Java's AtomicMarkableReference: the pair is replaced wholesale by CAS on
// an immutable cell.
type markable struct {
	p atomic.Pointer[markCell]
}

type markCell struct {
	next   *node
	marked bool
}

func (m *markable) load() (*node, bool) {
	c := m.p.Load()
	if c == nil {
		return nil, false
	}
	return c.next, c.marked
}

func (m *markable) store(n *node, marked bool) {
	m.p.Store(&markCell{next: n, marked: marked})
}

// compareAndSwap replaces (oldN, oldMark) with (newN, newMark) atomically.
func (m *markable) compareAndSwap(oldN *node, oldMark bool, newN *node, newMark bool) bool {
	c := m.p.Load()
	if c == nil || c.next != oldN || c.marked != oldMark {
		return false
	}
	return m.p.CompareAndSwap(c, &markCell{next: newN, marked: newMark})
}
