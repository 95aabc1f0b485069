package radix

import (
	"math/rand"
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/rbtree"
)

// TestDifferentialVsRBTree drives identical randomized op sequences
// through the radix tree and the red-black tree that serves as the Linux
// baseline's VMA index, then compares the final mappings page by page.
// The rbtree is the straightforward per-page reference model: whatever
// the radix tree's folding, expansion, lock-bit propagation, lazy group
// materialization, and reclamation do internally, the visible mapping
// must match a flat ordered map.
func TestDifferentialVsRBTree(t *testing.T) {
	const (
		trials = 6
		window = uint64(1 << 14) // covers leaf, level-1, and level-2 folds
		ops    = 400
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		m, rc, tr := newTree(1)
		c := m.CPU(0)
		ref := rbtree.New[int]()

		for op := 0; op < ops; op++ {
			lo := uint64(rng.Intn(int(window)))
			ln := uint64(rng.Intn(700) + 1)
			hi := lo + ln
			if hi > window {
				hi = window
			}
			if hi == lo {
				hi = lo + 1
			}
			switch rng.Intn(6) {
			case 0, 1, 2: // mmap-style: fold the range to one value
				v := &val{op}
				setRange(tr, c, lo, hi, v)
				for p := lo; p < hi; p++ {
					ref.Insert(c, p, op)
				}
			case 3: // munmap-style: clear the range
				clearRange(tr, c, lo, hi)
				for p := lo; p < hi; p++ {
					ref.Delete(c, p)
				}
			case 4: // pagefault-style: expand down to one leaf page
				r := tr.LockPage(c, lo)
				e := r.Entry(0)
				if v := e.Value(); v != nil {
					v.x = op
					e.Set(v)
					// The fold may cover more than this page, but the
					// in-place update must be visible on exactly the
					// pages the entry spans.
					for p := e.Lo; p < e.Hi; p++ {
						ref.Insert(c, p, op)
					}
				}
				r.Unlock()
			default: // mid-sequence spot check
				if got, want := lookupVal(tr, c, lo), refGet(ref, c, lo); got != want {
					t.Fatalf("trial %d op %d: Lookup(%d) = %d, rbtree = %d", trial, op, lo, got, want)
				}
			}
			rc.Maintain(c)
		}
		quiesce(rc)

		// Final comparison over the whole window, plus a stripe beyond it
		// to catch folds bleeding out of range.
		for p := uint64(0); p < window+64; p++ {
			if got, want := lookupVal(tr, c, p), refGet(ref, c, p); got != want {
				t.Fatalf("trial %d: final mapping diverged at page %d: radix %d, rbtree %d", trial, p, got, want)
			}
		}
	}
}

// lookupVal flattens a radix lookup to an int (-1 = unmapped).
func lookupVal(tr *Tree[val], c *hw.CPU, p uint64) int {
	if v := tr.Lookup(c, p); v != nil {
		return v.x
	}
	return -1
}

// refGet flattens an rbtree lookup to an int (-1 = unmapped).
func refGet(ref *rbtree.Tree[int], c *hw.CPU, p uint64) int {
	if v, ok := ref.Get(c, p); ok {
		return v
	}
	return -1
}

// TestDifferentialForkVsRBTree drives randomized op sequences through a fork
// family with the fork in the middle: seed the parent, fork, then keep
// mutating parent and child, each with its own op stream. The final mappings
// of parent and child must match, page by page, rbtree reference models that
// split where the trees did. (Virtual time is TestLazyForkDeterministic's.)
func TestDifferentialForkVsRBTree(t *testing.T) {
	const (
		trials = 4
		window = uint64(1 << 13)
		ops    = 150
	)
	for trial := 0; trial < trials; trial++ {
		m, rc, tr := newTree(1)
		c := m.CPU(0)
		parentRef := rbtree.New[int]()
		childRef := rbtree.New[int]()

		apply := func(rng *rand.Rand, tr *Tree[val], ref *rbtree.Tree[int], op int) {
			lo := uint64(rng.Intn(int(window)))
			ln := uint64(rng.Intn(700) + 1)
			hi := min(lo+ln, window)
			if hi == lo {
				hi = lo + 1
			}
			switch rng.Intn(5) {
			case 0, 1, 2:
				setRange(tr, c, lo, hi, &val{op})
				for p := lo; p < hi; p++ {
					ref.Insert(c, p, op)
				}
			case 3:
				clearRange(tr, c, lo, hi)
				for p := lo; p < hi; p++ {
					ref.Delete(c, p)
				}
			default:
				r := tr.LockPage(c, lo)
				e := r.Entry(0)
				if _, mapped := ref.Get(c, lo); mapped != (e.Value() != nil) {
					t.Fatalf("trial %d op %d: page %d mapped=%v, rbtree %v", trial, op, lo, e.Value() != nil, mapped)
				}
				if v := e.Value(); v != nil {
					v.x = op
					e.Set(v)
					for p := e.Lo; p < e.Hi; p++ {
						ref.Insert(c, p, op)
					}
				}
				r.Unlock()
			}
			rc.Maintain(c)
		}

		seed := int64(4200 + trial)
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < ops; op++ {
			apply(rng, tr, parentRef, op)
		}
		child := tr.ForkLazy(c)
		// The child starts as a snapshot of the parent, and so does its model.
		for p := uint64(0); p < window; p++ {
			want := refGet(parentRef, c, p)
			if got := lookupVal(child, c, p); got != want {
				t.Fatalf("trial %d: child snapshot diverged at page %d: %d, want %d", trial, p, got, want)
			}
			if want >= 0 {
				childRef.Insert(c, p, want)
			}
		}
		rngP := rand.New(rand.NewSource(seed + 1000))
		rngC := rand.New(rand.NewSource(seed + 2000))
		for op := ops; op < 2*ops; op++ {
			apply(rngP, tr, parentRef, op)
			apply(rngC, child, childRef, -op)
		}
		quiesce(rc)
		for p := uint64(0); p < window+64; p++ {
			if got, want := lookupVal(tr, c, p), refGet(parentRef, c, p); got != want {
				t.Fatalf("trial %d: parent diverged at page %d: %d, want %d", trial, p, got, want)
			}
			if got, want := lookupVal(child, c, p), refGet(childRef, c, p); got != want {
				t.Fatalf("trial %d: child diverged at page %d: %d, want %d", trial, p, got, want)
			}
		}
	}
}

// TestLazyForkDeterministic: the lazy fork's deferred billing must not cost
// determinism — two runs of the same single-core fork-and-diverge scenario
// land on identical virtual clocks (the figure-stability CI gate depends on
// this for the template-clone figure's one-core column).
func TestLazyForkDeterministic(t *testing.T) {
	run := func() uint64 {
		m, rc, tr := newTree(1)
		c := m.CPU(0)
		rng := rand.New(rand.NewSource(77))
		for op := 0; op < 100; op++ {
			lo := uint64(rng.Intn(1 << 12))
			setRange(tr, c, lo, lo+uint64(rng.Intn(100)+1), &val{op})
			rc.Maintain(c)
		}
		child := tr.ForkLazy(c)
		for op := 0; op < 100; op++ {
			lo := uint64(rng.Intn(1 << 12))
			setRange(child, c, lo, lo+uint64(rng.Intn(100)+1), &val{-op})
			rc.Maintain(c)
		}
		child.Release(c)
		quiesce(rc)
		return c.Now()
	}
	first := run()
	if second := run(); second != first {
		t.Fatalf("lazy fork schedule nondeterministic: %d vs %d cycles", first, second)
	}
}
