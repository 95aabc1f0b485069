// Package counter provides the reference-counting baselines the paper
// compares Refcache against in Figure 8: a single shared atomic counter and
// an SNZI (Scalable NonZero Indicator) tree. Both detect zero immediately —
// the property Refcache deliberately gives up in exchange for scalability.
package counter

import "radixvm/internal/hw"

// Counter is a reference counter usable by the Figure 8 benchmark. Inc and
// Dec must be balanced; Dec on a zero counter panics. Zero reports whether
// the count is (observably) zero.
type Counter interface {
	Inc(cpu *hw.CPU)
	Dec(cpu *hw.CPU)
	Zero() bool
	Name() string
}

// Shared is the classic single cache line counter manipulated with atomic
// instructions. Every operation transfers the counter's line, so throughput
// is bounded by the line's home node regardless of core count.
type Shared struct {
	n    int64
	line hw.Line
}

// NewShared returns a shared atomic counter with the given initial count.
func NewShared(initial int64) *Shared {
	return &Shared{n: initial}
}

// Inc atomically increments the counter.
func (s *Shared) Inc(cpu *hw.CPU) {
	cpu.Write(&s.line)
	s.n++
}

// Dec atomically decrements the counter.
func (s *Shared) Dec(cpu *hw.CPU) {
	cpu.Write(&s.line)
	if s.n--; s.n < 0 {
		panic("counter: shared counter went negative")
	}
}

// Zero reports whether the count is zero.
func (s *Shared) Zero() bool { return s.n == 0 }

// Name implements Counter.
func (s *Shared) Name() string { return "shared" }

// Value returns the current count.
func (s *Shared) Value() int64 { return s.n }
