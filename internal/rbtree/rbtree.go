// Package rbtree is a classic red-black tree keyed by uint64, the index
// structure Linux uses for VMAs ("Linux uses a red-black tree for the
// regions", §2). It is deliberately *not* concurrent: like Linux's, it is
// protected by the address space lock in internal/linuxvm, and rebalancing
// on insert is precisely why ("Because these data structures require
// rebalancing when a memory region is inserted, they protect the entire
// data structure with a single lock").
package rbtree

import "radixvm/internal/hw"

type color bool

const (
	red   color = false
	black color = true
)

// Node is a tree node; Key is exposed for iteration.
type Node[V any] struct {
	Key   uint64
	Val   V
	color color
	left  *Node[V]
	right *Node[V]
	par   *Node[V]
	line  hw.Line
}

// Tree is a red-black tree from uint64 to V.
type Tree[V any] struct {
	root  *Node[V]
	count int
}

// New creates an empty tree.
func New[V any]() *Tree[V] { return &Tree[V]{} }

// Len returns the number of keys.
func (t *Tree[V]) Len() int { return t.count }

// Insert adds or replaces key's value; it reports whether the key was new.
func (t *Tree[V]) Insert(cpu *hw.CPU, key uint64, val V) bool {
	var par *Node[V]
	link := &t.root
	for *link != nil {
		par = *link
		cpu.Read(&par.line)
		switch {
		case key < par.Key:
			link = &par.left
		case key > par.Key:
			link = &par.right
		default:
			par.Val = val
			cpu.Write(&par.line)
			return false
		}
	}
	n := &Node[V]{Key: key, Val: val, color: red, par: par}
	*link = n
	cpu.Write(&n.line)
	t.count++
	t.insertFixup(cpu, n)
	return true
}

func (t *Tree[V]) insertFixup(cpu *hw.CPU, n *Node[V]) {
	for n.par != nil && n.par.color == red {
		g := n.par.par // grandparent exists: red parent is never the root
		if n.par == g.left {
			if u := g.right; u != nil && u.color == red {
				n.par.color, u.color, g.color = black, black, red
				cpu.Write(&n.par.line)
				cpu.Write(&u.line)
				cpu.Write(&g.line)
				n = g
				continue
			}
			if n == n.par.right {
				n = n.par
				t.rotateLeft(cpu, n)
			}
			n.par.color, g.color = black, red
			cpu.Write(&n.par.line)
			cpu.Write(&g.line)
			t.rotateRight(cpu, g)
		} else {
			if u := g.left; u != nil && u.color == red {
				n.par.color, u.color, g.color = black, black, red
				cpu.Write(&n.par.line)
				cpu.Write(&u.line)
				cpu.Write(&g.line)
				n = g
				continue
			}
			if n == n.par.left {
				n = n.par
				t.rotateRight(cpu, n)
			}
			n.par.color, g.color = black, red
			cpu.Write(&n.par.line)
			cpu.Write(&g.line)
			t.rotateLeft(cpu, g)
		}
	}
	t.root.color = black
}

func (t *Tree[V]) rotateLeft(cpu *hw.CPU, x *Node[V]) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.par = x
	}
	y.par = x.par
	t.replaceChild(x, y)
	y.left = x
	x.par = y
	cpu.Write(&x.line)
	cpu.Write(&y.line)
}

func (t *Tree[V]) rotateRight(cpu *hw.CPU, x *Node[V]) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.par = x
	}
	y.par = x.par
	t.replaceChild(x, y)
	y.right = x
	x.par = y
	cpu.Write(&x.line)
	cpu.Write(&y.line)
}

func (t *Tree[V]) replaceChild(old, new *Node[V]) {
	switch {
	case old.par == nil:
		t.root = new
	case old == old.par.left:
		old.par.left = new
	default:
		old.par.right = new
	}
}

// lookup returns the node with key, if present.
func (t *Tree[V]) lookup(cpu *hw.CPU, key uint64) *Node[V] {
	n := t.root
	for n != nil {
		cpu.Read(&n.line)
		switch {
		case key < n.Key:
			n = n.left
		case key > n.Key:
			n = n.right
		default:
			return n
		}
	}
	return nil
}

// Get returns key's value.
func (t *Tree[V]) Get(cpu *hw.CPU, key uint64) (V, bool) {
	if n := t.lookup(cpu, key); n != nil {
		return n.Val, true
	}
	var zero V
	return zero, false
}

// Floor returns the greatest node with Key <= key (the stabbing query VMA
// lookup needs), or nil.
func (t *Tree[V]) Floor(cpu *hw.CPU, key uint64) *Node[V] {
	var best *Node[V]
	n := t.root
	for n != nil {
		cpu.Read(&n.line)
		switch {
		case n.Key == key:
			return n
		case n.Key < key:
			best = n
			n = n.right
		default:
			n = n.left
		}
	}
	return best
}

// Delete removes key, reporting whether it was present.
func (t *Tree[V]) Delete(cpu *hw.CPU, key uint64) bool {
	n := t.lookup(cpu, key)
	if n == nil {
		return false
	}
	t.count--
	// Standard CLRS delete with fixup.
	var fix *Node[V] // node that may violate black height
	var fixPar *Node[V]
	needFix := n.color == black
	switch {
	case n.left == nil:
		fix, fixPar = n.right, n.par
		t.transplant(n, n.right)
	case n.right == nil:
		fix, fixPar = n.left, n.par
		t.transplant(n, n.left)
	default:
		s := n.right
		for s.left != nil {
			cpu.Read(&s.line)
			s = s.left
		}
		needFix = s.color == black
		fix = s.right
		if s.par == n {
			fixPar = s
		} else {
			fixPar = s.par
			t.transplant(s, s.right)
			s.right = n.right
			s.right.par = s
		}
		t.transplant(n, s)
		s.left = n.left
		s.left.par = s
		s.color = n.color
		cpu.Write(&s.line)
	}
	cpu.Write(&n.line)
	if needFix {
		t.deleteFixup(cpu, fix, fixPar)
	}
	return true
}

func (t *Tree[V]) transplant(old, new *Node[V]) {
	t.replaceChild(old, new)
	if new != nil {
		new.par = old.par
	}
}

func (t *Tree[V]) deleteFixup(cpu *hw.CPU, x *Node[V], par *Node[V]) {
	for x != t.root && isBlack(x) {
		if par == nil {
			break
		}
		if x == par.left {
			s := par.right
			if s.color == red {
				s.color, par.color = black, red
				t.rotateLeft(cpu, par)
				s = par.right
			}
			if isBlack(s.left) && isBlack(s.right) {
				s.color = red
				cpu.Write(&s.line)
				x, par = par, par.par
				continue
			}
			if isBlack(s.right) {
				s.left.color, s.color = black, red
				t.rotateRight(cpu, s)
				s = par.right
			}
			s.color, par.color = par.color, black
			if s.right != nil {
				s.right.color = black
			}
			t.rotateLeft(cpu, par)
			x = t.root
			break
		}
		s := par.left
		if s.color == red {
			s.color, par.color = black, red
			t.rotateRight(cpu, par)
			s = par.left
		}
		if isBlack(s.left) && isBlack(s.right) {
			s.color = red
			cpu.Write(&s.line)
			x, par = par, par.par
			continue
		}
		if isBlack(s.left) {
			s.right.color, s.color = black, red
			t.rotateLeft(cpu, s)
			s = par.left
		}
		s.color, par.color = par.color, black
		if s.left != nil {
			s.left.color = black
		}
		t.rotateRight(cpu, par)
		x = t.root
		break
	}
	if x != nil {
		x.color = black
	}
}

func isBlack[V any](n *Node[V]) bool { return n == nil || n.color == black }

// Ascend visits (key, val) pairs in key order starting at the first key >=
// from, until fn returns false — the callback shape of bonsai's
// Snapshot.Ascend, so one func value serves either index.
func (t *Tree[V]) Ascend(cpu *hw.CPU, from uint64, fn func(key uint64, val V) bool) {
	var visit func(n *Node[V]) bool
	visit = func(n *Node[V]) bool {
		if n == nil {
			return true
		}
		cpu.Read(&n.line)
		if n.Key >= from {
			if !visit(n.left) {
				return false
			}
			if !fn(n.Key, n.Val) {
				return false
			}
		}
		return visit(n.right)
	}
	visit(t.root)
}

// checkInvariants validates red-black properties; exported for tests via
// the package test file.
func (t *Tree[V]) checkInvariants() error {
	if t.root != nil && t.root.color != black {
		return errRootRed
	}
	_, err := checkNode(t.root)
	return err
}

type rbError string

func (e rbError) Error() string { return string(e) }

const (
	errRootRed  = rbError("rbtree: red root")
	errRedRed   = rbError("rbtree: red node with red child")
	errBlackBal = rbError("rbtree: unequal black height")
	errOrder    = rbError("rbtree: keys out of order")
	errParent   = rbError("rbtree: broken parent link")
)

func checkNode[V any](n *Node[V]) (int, error) {
	if n == nil {
		return 1, nil
	}
	if n.color == red {
		if !isBlack(n.left) || !isBlack(n.right) {
			return 0, errRedRed
		}
	}
	if n.left != nil && (n.left.Key >= n.Key || n.left.par != n) {
		if n.left.Key >= n.Key {
			return 0, errOrder
		}
		return 0, errParent
	}
	if n.right != nil && (n.right.Key <= n.Key || n.right.par != n) {
		if n.right.Key <= n.Key {
			return 0, errOrder
		}
		return 0, errParent
	}
	lh, err := checkNode(n.left)
	if err != nil {
		return 0, err
	}
	rh, err := checkNode(n.right)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errBlackBal
	}
	if n.color == black {
		lh++
	}
	return lh, nil
}
