package radix

import (
	"testing"

	"radixvm/internal/hw"
)

// TreeShape is shapeOf over a whole tree, for the test outside the package
// that needs real address spaces (oracle_test.go): the shape of every node
// reachable from tr's root, parents before children, and the pages a leaf
// maps. Nothing may be running on tr or on any tree it shares nodes with.
func TreeShape[V any](t *testing.T, tr *Tree[V]) (shapes any, pages []uint64) {
	t.Helper()
	var out []nodeShape[V]
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		s := shapeOf(t, n)
		out = append(out, s)
		for idx, sl := range s.Slots {
			switch {
			case sl.Child != nil:
				walk(sl.Child.Data.(*node[V]))
			case sl.Val != nil && n.level == 0:
				pages = append(pages, n.slotBase(idx))
			}
		}
	}
	walk(tr.root)
	return out, pages
}

// funcHooks adapts the tests' closures to Hooks: a test registers either
// half, through the OnDiverge and OnRelease setters below.
type funcHooks[V any] struct {
	diverge func(cpu *hw.CPU, lo, hi uint64, src, dst *V)
	release func(cpu *hw.CPU, lo, hi uint64, v *V)
}

func (h *funcHooks[V]) OnDiverge(cpu *hw.CPU, lo, hi uint64, src, dst *V) {
	if h.diverge != nil {
		h.diverge(cpu, lo, hi, src, dst)
	}
}

func (h *funcHooks[V]) OnRelease(cpu *hw.CPU, lo, hi uint64, v *V) {
	if h.release != nil {
		h.release(cpu, lo, hi, v)
	}
}

func (t *Tree[V]) testHooks() *funcHooks[V] {
	h, ok := t.hooks.(*funcHooks[V])
	if !ok {
		h = &funcHooks[V]{}
		t.SetHooks(h)
	}
	return h
}

func (t *Tree[V]) OnDiverge(fn func(cpu *hw.CPU, lo, hi uint64, src, dst *V)) {
	t.testHooks().diverge = fn
}

func (t *Tree[V]) OnRelease(fn func(cpu *hw.CPU, lo, hi uint64, v *V)) {
	t.testHooks().release = fn
}

// NodesEver returns the number of nodes the tree ever allocated.
func (t *Tree[V]) NodesEver() int64 { return t.nodesEver.Load() }

// GroupsEver returns the number of slot groups ever given storage — the
// divergence counter; an image-born group counts when it is realized, not
// before.
func (t *Tree[V]) GroupsEver() int64 { return t.groupsEver.Load() }

// CarriersEver returns the number of value carriers ever heap-allocated —
// the carrier-leak tripwire: a steady-state remap cycle must stop growing
// this counter once its pools are warm.
func (t *Tree[V]) CarriersEver() int64 { return t.carriersEver.Load() }

// PoolSize returns the number of recycled nodes cached for cpu.
func (t *Tree[V]) PoolSize(cpu *hw.CPU) int { return len(t.cpu(cpu).pool) }

// CarrierPoolSize returns the number of retired carriers cached for cpu.
func (t *Tree[V]) CarrierPoolSize(cpu *hw.CPU) int { return t.cpu(cpu).carriers.n }
