package skiplist

// markable is a (next, marked) pair, the moral equivalent of Java's
// AtomicMarkableReference: the pair changes as a whole, between two
// preemption points.
type markable struct {
	next   *node
	marked bool
}

func (m *markable) load() (*node, bool) { return m.next, m.marked }

func (m *markable) store(n *node, marked bool) { m.next, m.marked = n, marked }

// compareAndSwap replaces (oldN, oldMark) with (newN, newMark) if the pair
// still holds them: a caller that read it before a line touch may find that
// another core changed it there.
func (m *markable) compareAndSwap(oldN *node, oldMark bool, newN *node, newMark bool) bool {
	if m.next != oldN || m.marked != oldMark {
		return false
	}
	m.next, m.marked = newN, newMark
	return true
}
