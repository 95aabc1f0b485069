// Package bonsai implements a persistent (path-copying) weight-balanced
// binary tree whose root a writer replaces in one store — the "Bonsai
// tree" of Clements et al.'s earlier RCU-balanced-tree VM system [7],
// which the paper uses as its strongest baseline.
//
// Readers traverse the immutable snapshot the root they read names, which a
// writer replacing the root meanwhile (at a reader's line touch, a
// preemption point) leaves whole, so lookups (pagefaults in the Bonsai VM)
// take no locks and induce no writes. Writers build a new path and swap in a
// new root; the Bonsai VM system
// serializes writers (mmap/munmap) under the address space lock, and so
// does internal/bonsaivm — per the paper, that serialization is exactly
// why Bonsai collapses on mmap-heavy workloads (Figure 4, 64 KB).
//
// Balancing follows Adams' weight-balanced scheme (the classic functional
// set implementation): a node is rebuilt when one subtree outweighs the
// other by more than weightRatio.
package bonsai

import "radixvm/internal/hw"

const weightRatio = 4

// Tree is a persistent weight-balanced tree from uint64 to *V. Readers may
// call Get/Floor/Len concurrently with one writer; writers (Insert/Delete)
// must be externally serialized, as in the Bonsai VM system.
type Tree[V any] struct {
	root *node[V]
}

type node[V any] struct {
	key         uint64
	val         *V
	left, right *node[V]
	size        int
	line        hw.Line
}

// New creates an empty tree.
func New[V any]() *Tree[V] { return &Tree[V]{} }

func size[V any](n *node[V]) int {
	if n == nil {
		return 0
	}
	return n.size
}

// Len returns the number of keys in the current snapshot.
func (t *Tree[V]) Len() int { return size(t.root) }

// mk builds a new immutable node, charging the writer for the fresh line.
func mk[V any](cpu *hw.CPU, key uint64, val *V, l, r *node[V]) *node[V] {
	n := &node[V]{key: key, val: val, left: l, right: r, size: size(l) + size(r) + 1}
	cpu.Write(&n.line)
	return n
}

// balance rebuilds n's composition if one side got too heavy (Adams).
func balance[V any](cpu *hw.CPU, key uint64, val *V, l, r *node[V]) *node[V] {
	ls, rs := size(l), size(r)
	switch {
	case ls+rs <= 1:
	case rs > weightRatio*ls:
		if size(r.left) < size(r.right) { // single left rotation
			return mk(cpu, r.key, r.val, mk(cpu, key, val, l, r.left), r.right)
		}
		rl := r.left // double rotation
		return mk(cpu, rl.key, rl.val,
			mk(cpu, key, val, l, rl.left),
			mk(cpu, r.key, r.val, rl.right, r.right))
	case ls > weightRatio*rs:
		if size(l.right) < size(l.left) {
			return mk(cpu, l.key, l.val, l.left, mk(cpu, key, val, l.right, r))
		}
		lr := l.right
		return mk(cpu, lr.key, lr.val,
			mk(cpu, l.key, l.val, l.left, lr.left),
			mk(cpu, key, val, lr.right, r))
	}
	return mk(cpu, key, val, l, r)
}

// Insert adds or replaces key, swapping in a new snapshot. It reports
// whether the key was new. Writers must be serialized by the caller.
func (t *Tree[V]) Insert(cpu *hw.CPU, key uint64, val *V) bool {
	root, added := insert(cpu, t.root, key, val)
	t.root = root
	return added
}

func insert[V any](cpu *hw.CPU, n *node[V], key uint64, val *V) (*node[V], bool) {
	if n == nil {
		return mk(cpu, key, val, nil, nil), true
	}
	cpu.Read(&n.line)
	switch {
	case key < n.key:
		l, added := insert(cpu, n.left, key, val)
		return balance(cpu, n.key, n.val, l, n.right), added
	case key > n.key:
		r, added := insert(cpu, n.right, key, val)
		return balance(cpu, n.key, n.val, n.left, r), added
	default:
		return mk(cpu, key, val, n.left, n.right), false
	}
}

// Delete removes key, swapping in a new snapshot, and reports whether the
// key was present. Writers must be serialized by the caller.
func (t *Tree[V]) Delete(cpu *hw.CPU, key uint64) bool {
	root, removed := del(cpu, t.root, key)
	if removed {
		t.root = root
	}
	return removed
}

func del[V any](cpu *hw.CPU, n *node[V], key uint64) (*node[V], bool) {
	if n == nil {
		return nil, false
	}
	cpu.Read(&n.line)
	switch {
	case key < n.key:
		l, removed := del(cpu, n.left, key)
		if !removed {
			return n, false
		}
		return balance(cpu, n.key, n.val, l, n.right), true
	case key > n.key:
		r, removed := del(cpu, n.right, key)
		if !removed {
			return n, false
		}
		return balance(cpu, n.key, n.val, n.left, r), true
	default:
		return glue(cpu, n.left, n.right), true
	}
}

// glue joins two subtrees whose keys are already ordered.
func glue[V any](cpu *hw.CPU, l, r *node[V]) *node[V] {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case size(l) > size(r):
		k, v, l2 := popMax(cpu, l)
		return balance(cpu, k, v, l2, r)
	default:
		k, v, r2 := popMin(cpu, r)
		return balance(cpu, k, v, l, r2)
	}
}

func popMax[V any](cpu *hw.CPU, n *node[V]) (uint64, *V, *node[V]) {
	cpu.Read(&n.line)
	if n.right == nil {
		return n.key, n.val, n.left
	}
	k, v, r := popMax(cpu, n.right)
	return k, v, balance(cpu, n.key, n.val, n.left, r)
}

func popMin[V any](cpu *hw.CPU, n *node[V]) (uint64, *V, *node[V]) {
	cpu.Read(&n.line)
	if n.left == nil {
		return n.key, n.val, n.right
	}
	k, v, l := popMin(cpu, n.left)
	return k, v, balance(cpu, n.key, n.val, l, n.right)
}

// Get returns key's value in the current snapshot, lock-free.
func (t *Tree[V]) Get(cpu *hw.CPU, key uint64) *V {
	n := t.root
	for n != nil {
		cpu.Read(&n.line)
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return n.val
		}
	}
	return nil
}

// Floor returns the greatest (key', val) with key' <= key, lock-free.
func (t *Tree[V]) Floor(cpu *hw.CPU, key uint64) (uint64, *V, bool) {
	return floor(cpu, t.root, key)
}

// Snapshot returns the current root for consistent multi-query reads.
func (t *Tree[V]) Snapshot() *Snapshot[V] {
	return &Snapshot[V]{root: t.root}
}

// Snapshot is an immutable view of the tree.
type Snapshot[V any] struct{ root *node[V] }

// Floor is Tree.Floor against the snapshot.
func (s *Snapshot[V]) Floor(cpu *hw.CPU, key uint64) (uint64, *V, bool) {
	return floor(cpu, s.root, key)
}

// floor is the one Floor walk, from root.
func floor[V any](cpu *hw.CPU, n *node[V], key uint64) (uint64, *V, bool) {
	var bk uint64
	var bv *V
	found := false
	for n != nil {
		cpu.Read(&n.line)
		switch {
		case n.key == key:
			return n.key, n.val, true
		case n.key < key:
			bk, bv, found = n.key, n.val, true
			n = n.right
		default:
			n = n.left
		}
	}
	return bk, bv, found
}

// Ascend visits (key, val) pairs in order, starting at the first key >=
// from, until fn returns false.
func (s *Snapshot[V]) Ascend(cpu *hw.CPU, from uint64, fn func(key uint64, val *V) bool) {
	var visit func(n *node[V]) bool
	visit = func(n *node[V]) bool {
		if n == nil {
			return true
		}
		cpu.Read(&n.line)
		if n.key >= from {
			if !visit(n.left) {
				return false
			}
			if !fn(n.key, n.val) {
				return false
			}
		}
		return visit(n.right)
	}
	visit(s.root)
}

// Len returns the snapshot's size.
func (s *Snapshot[V]) Len() int { return size(s.root) }

// height is a test helper (max depth).
func height[V any](n *node[V]) int {
	if n == nil {
		return 0
	}
	lh, rh := height(n.left), height(n.right)
	if lh > rh {
		return lh + 1
	}
	return rh + 1
}
