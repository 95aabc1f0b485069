package counter

import (
	"testing"

	"radixvm/internal/hw"
)

func TestSharedBasics(t *testing.T) {
	m := hw.NewMachine(hw.TestConfig(2))
	s := NewShared(1)
	if s.Zero() {
		t.Fatal("initial 1 reported zero")
	}
	s.Inc(m.CPU(0))
	s.Dec(m.CPU(1))
	if s.Value() != 1 {
		t.Fatalf("Value = %d", s.Value())
	}
	s.Dec(m.CPU(0))
	if !s.Zero() {
		t.Fatal("not zero after balanced ops")
	}
}

func TestSharedNegativePanics(t *testing.T) {
	m := hw.NewMachine(hw.TestConfig(1))
	s := NewShared(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative count")
		}
	}()
	s.Dec(m.CPU(0))
}

func TestSharedContendsOnOneLine(t *testing.T) {
	m := hw.NewMachine(hw.TestConfig(4))
	s := NewShared(0)
	for i := 0; i < 4; i++ {
		s.Inc(m.CPU(i))
	}
	ts := m.TotalStats()
	if ts.Transfers != 3 || ts.ColdMisses != 1 {
		t.Errorf("transfers=%d cold=%d, want 3 transfers after the cold fill", ts.Transfers, ts.ColdMisses)
	}
}

func TestSNZIBasics(t *testing.T) {
	m := hw.NewMachine(hw.TestConfig(4))
	s := NewSNZI(m, 0)
	if !s.Zero() {
		t.Fatal("fresh SNZI not zero")
	}
	s.Inc(m.CPU(1))
	if s.Zero() {
		t.Fatal("zero after Inc")
	}
	s.Inc(m.CPU(1))
	s.Dec(m.CPU(1))
	if s.Zero() {
		t.Fatal("zero with one outstanding arrival")
	}
	s.Dec(m.CPU(1))
	if !s.Zero() {
		t.Fatal("nonzero after balanced ops")
	}
}

func TestSNZIInitial(t *testing.T) {
	m := hw.NewMachine(hw.TestConfig(2))
	s := NewSNZI(m, 3)
	if s.Zero() {
		t.Fatal("initial 3 reported zero")
	}
	for i := 0; i < 3; i++ {
		s.Dec(m.CPU(0))
	}
	if !s.Zero() {
		t.Fatal("not zero after draining initial count")
	}
}

func TestSNZIManyCores(t *testing.T) {
	m := hw.NewMachine(hw.TestConfig(20)) // two sockets
	s := NewSNZI(m, 0)
	for i := 0; i < 20; i++ {
		s.Inc(m.CPU(i))
	}
	if s.Zero() {
		t.Fatal("zero with 20 arrivals")
	}
	for i := 0; i < 20; i++ {
		s.Dec(m.CPU(i))
	}
	if !s.Zero() {
		t.Fatal("nonzero after all departures")
	}
}

func TestSNZIConcurrentStress(t *testing.T) {
	const ncores = 8
	for seed := range hw.Seeds(8) {
		m := hw.NewMachine(hw.TestConfig(ncores))
		s := NewSNZI(m, 1) // base arrival keeps it nonzero throughout
		hw.RunGang(m, ncores, seed, func(c *hw.CPU, _ *hw.Gang) {
			for k := 0; k < 2000; k++ {
				s.Inc(c)
				if s.Zero() {
					t.Errorf("seed %d: zero observed while count held", seed)
					return
				}
				s.Dec(c)
			}
		})
		if s.Zero() {
			t.Fatalf("seed %d: base arrival lost", seed)
		}
		s.Dec(m.CPU(0))
		if !s.Zero() {
			t.Fatalf("seed %d: not zero after final departure", seed)
		}
	}
}

func TestSNZIRootContentionGrowsWithCores(t *testing.T) {
	// The Figure 8 shape in miniature: per-op transfers for the
	// oscillate-around-zero workload grow with participating cores for
	// SNZI, because every 0↔1 leaf transition climbs the tree.
	measure := func(ncores int) float64 {
		m := hw.NewMachine(hw.TestConfig(ncores))
		s := NewSNZI(m, 0)
		const iters = 500
		hw.RunGangDet(m, ncores, 0, func(c *hw.CPU, g *hw.Gang) {
			for k := 0; k < iters; k++ {
				s.Inc(c)
				s.Dec(c)
				c.Tick(200)
				g.Sync(c)
			}
		})
		return float64(m.TotalStats().Transfers) / float64(ncores*iters)
	}
	if one, many := measure(1), measure(16); many <= one {
		t.Errorf("SNZI per-op transfers did not grow: 1 core %.2f, 16 cores %.2f", one, many)
	}
}
