package hw

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxCores is the largest number of simulated cores a CoreSet can track.
// The paper's machine has 80 cores; we leave headroom for sweeps.
const MaxCores = 128

// CoreSet is a fixed-size bitmap of core IDs. The zero value is the empty
// set. CoreSet is a value type: copying it copies the set. It is not safe
// for concurrent mutation; callers that share a CoreSet (such as the
// per-page TLB tracking in mapping metadata) must protect it with the
// enclosing structure's lock, which is exactly what the paper's design
// does (the mapping metadata lock).
type CoreSet struct {
	bits [MaxCores / 64]uint64
}

// CoreSetOf returns the set whose word i holds cores [64i, 64i+64), one bit
// each — for a holder that keeps the words itself, such as vm.ActiveSet,
// which sets them atomically.
func CoreSetOf(words [MaxCores / 64]uint64) CoreSet { return CoreSet{bits: words} }

// Add inserts core id into the set.
func (s *CoreSet) Add(id int) {
	s.bits[id/64] |= 1 << (uint(id) % 64)
}

// Remove deletes core id from the set.
func (s *CoreSet) Remove(id int) {
	s.bits[id/64] &^= 1 << (uint(id) % 64)
}

// Has reports whether core id is in the set.
func (s *CoreSet) Has(id int) bool {
	return s.bits[id/64]&(1<<(uint(id)%64)) != 0
}

// Count returns the number of cores in the set.
func (s *CoreSet) Count() int {
	n := 0
	for _, w := range s.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set contains no cores.
func (s *CoreSet) Empty() bool {
	for _, w := range s.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Union adds every core in other to s.
func (s *CoreSet) Union(other CoreSet) {
	for i, w := range other.bits {
		s.bits[i] |= w
	}
}

// intersect removes from s every core not in other.
func (s *CoreSet) intersect(other *CoreSet) {
	for i, w := range other.bits {
		s.bits[i] &= w
	}
}

// ForEach calls fn for every core in the set, in ascending ID order.
func (s *CoreSet) ForEach(fn func(id int)) {
	for i, w := range s.bits {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(i*64 + b)
			w &^= 1 << uint(b)
		}
	}
}

// String renders the set as a compact list, e.g. "{0,3,17}".
func (s *CoreSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(id int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", id)
	})
	b.WriteByte('}')
	return b.String()
}
