package radix

import "testing"

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
