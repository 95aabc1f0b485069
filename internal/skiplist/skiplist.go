// Package skiplist implements a lock-free concurrent skip list with
// wait-free lookups (Herlihy & Shavit, The Art of Multiprocessor
// Programming — the paper's citation [16]). This was RadixVM's abandoned
// first design (§5.5): although operations on different keys are logically
// independent, inserts and deletes write interior node towers to maintain
// O(log n) search, and lookups must re-read those cache lines — the
// contention Figure 6 measures.
//
// Marked-pointer pairs are (next, marked) structs that change as a whole,
// equivalent to the book's AtomicMarkableReference.
package skiplist

import (
	"math/rand"

	"radixvm/internal/hw"
)

// MaxLevel is the tallest tower (supports ~2^20 keys comfortably).
const MaxLevel = 20

// List is a concurrent set of uint64 keys.
type List struct {
	head *node
	tail *node
}

type node struct {
	key      uint64
	topLevel int
	succs    [MaxLevel + 1]markable
	line     hw.Line // the node's header/tower cache line
}

// New creates an empty list.
func New() *List {
	l := &List{}
	l.head = &node{key: 0, topLevel: MaxLevel}
	l.tail = &node{key: ^uint64(0), topLevel: MaxLevel}
	for lvl := 0; lvl <= MaxLevel; lvl++ {
		l.head.succs[lvl].store(l.tail, false)
	}
	return l
}

// randomLevel draws a tower height with the usual p=1/2 geometric
// distribution, using the caller's core-local source so runs are
// reproducible per core.
func randomLevel(rng *rand.Rand) int {
	lvl := 0
	for lvl < MaxLevel && rng.Intn(2) == 0 {
		lvl++
	}
	return lvl
}

// find locates key's predecessors and successors at every level, snipping
// out marked nodes it encounters (the lock-free helping protocol). Returns
// whether an unmarked node with the key was found at the bottom level.
func (l *List) find(cpu *hw.CPU, key uint64, preds, succs *[MaxLevel + 1]*node) bool {
retry:
	for {
		pred := l.head
		cpu.Read(&pred.line)
		for lvl := MaxLevel; lvl >= 0; lvl-- {
			curr, _ := pred.succs[lvl].load()
			for {
				cpu.Read(&curr.line)
				succ, marked := curr.succs[lvl].load()
				for marked {
					// Help unlink the marked node.
					if !pred.succs[lvl].compareAndSwap(curr, false, succ, false) {
						continue retry
					}
					cpu.Write(&pred.line)
					curr, _ = pred.succs[lvl].load()
					cpu.Read(&curr.line)
					succ, marked = curr.succs[lvl].load()
				}
				if curr.key < key {
					pred, curr = curr, succ
				} else {
					break
				}
			}
			preds[lvl] = pred
			succs[lvl] = curr
		}
		return succs[0].key == key
	}
}

// Insert adds key; it returns false if the key is already present.
func (l *List) Insert(cpu *hw.CPU, rng *rand.Rand, key uint64) bool {
	var preds, succs [MaxLevel + 1]*node
	topLevel := randomLevel(rng)
	for {
		if l.find(cpu, key, &preds, &succs) {
			return false
		}
		n := &node{key: key, topLevel: topLevel}
		for lvl := 0; lvl <= topLevel; lvl++ {
			n.succs[lvl].store(succs[lvl], false)
		}
		// Splice in at the bottom level; this linearizes the insert.
		if !preds[0].succs[0].compareAndSwap(succs[0], false, n, false) {
			continue
		}
		cpu.Write(&preds[0].line)
		// Then raise the tower.
		for lvl := 1; lvl <= topLevel; lvl++ {
			for {
				if preds[lvl].succs[lvl].compareAndSwap(succs[lvl], false, n, false) {
					cpu.Write(&preds[lvl].line)
					break
				}
				l.find(cpu, key, &preds, &succs) // refresh preds/succs
			}
		}
		return true
	}
}

// Delete removes key; it returns false if no unmarked node carries the key.
func (l *List) Delete(cpu *hw.CPU, key uint64) bool {
	var preds, succs [MaxLevel + 1]*node
	if !l.find(cpu, key, &preds, &succs) {
		return false
	}
	victim := succs[0]
	// Mark the tower top-down (logical deletion above the bottom).
	for lvl := victim.topLevel; lvl >= 1; lvl-- {
		if succ, marked := victim.succs[lvl].load(); !marked {
			victim.succs[lvl].store(succ, true)
			cpu.Write(&victim.line)
		}
	}
	// Marking the bottom level linearizes the delete; only one caller wins.
	succ, marked := victim.succs[0].load()
	if marked {
		return false // another delete won
	}
	victim.succs[0].store(succ, true)
	cpu.Write(&victim.line)
	l.find(cpu, key, &preds, &succs) // physically unlink
	return true
}

// Contains is the wait-free lookup: it never writes shared memory, only
// re-reads node lines — which is exactly why concurrent writers on other
// keys degrade it (Figure 6).
func (l *List) Contains(cpu *hw.CPU, key uint64) bool {
	pred := l.head
	cpu.Read(&pred.line)
	var curr *node
	for lvl := MaxLevel; lvl >= 0; lvl-- {
		curr, _ = pred.succs[lvl].load()
		for {
			cpu.Read(&curr.line)
			succ, marked := curr.succs[lvl].load()
			for marked {
				curr = succ
				cpu.Read(&curr.line)
				succ, marked = curr.succs[lvl].load()
			}
			if curr.key < key {
				pred, curr = curr, succ
			} else {
				break
			}
		}
	}
	return curr.key == key
}

// Len counts unmarked nodes (diagnostic; O(n), quiescent use only).
func (l *List) Len() int {
	n := 0
	for curr, _ := l.head.succs[0].load(); curr != l.tail; {
		succ, marked := curr.succs[0].load()
		if !marked {
			n++
		}
		curr = succ
	}
	return n
}
