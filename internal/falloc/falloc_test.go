package falloc

import (
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
)

func newAlloc(ncores int, blockPages uint64) (*hw.Machine, *Allocator, vm.System) {
	m := hw.NewMachine(hw.TestConfig(ncores))
	rc := refcache.New(m)
	sys := vm.New(m, rc, mem.NewAllocator(m, rc), nil)
	return m, New(sys, ncores, blockPages), sys
}

func TestAllocCarvesBlocks(t *testing.T) {
	m, a, _ := newAlloc(1, 16)
	c := m.CPU(0)
	v1, err := a.Alloc(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := a.Alloc(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v2 != v1+4 {
		t.Fatalf("second object not carved from same block: %d, %d", v1, v2)
	}
	// One block so far: one mmap.
	if got := c.Stats().Mmaps; got != 1 {
		t.Fatalf("Mmaps = %d, want 1", got)
	}
	// Exhaust the block; the next alloc maps a new block.
	if _, err := a.Alloc(c, 12); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Mmaps; got != 2 {
		t.Fatalf("Mmaps after block overflow = %d, want 2", got)
	}
}

func TestBlockSizeControlsMmapRate(t *testing.T) {
	// The Figure 4 knob: same bytes through the allocator, 128x the
	// mmaps with small blocks.
	count := func(blockPages uint64) uint64 {
		m, a, _ := newAlloc(1, blockPages)
		c := m.CPU(0)
		for i := 0; i < 256; i++ {
			if _, err := a.Alloc(c, 4); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats().Mmaps
	}
	small, large := count(16), count(2048)
	if small <= large*32 {
		t.Fatalf("mmap rate: small-block %d, large-block %d", small, large)
	}
}

func TestPerCoreIsolation(t *testing.T) {
	m, a, _ := newAlloc(4, 16)
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		v, err := a.Alloc(m.CPU(i), 16)
		if err != nil {
			t.Fatal(err)
		}
		if seen[v] {
			t.Fatalf("core %d reused another core's VA %d", i, v)
		}
		seen[v] = true
	}
}

func TestBadSizes(t *testing.T) {
	m, a, _ := newAlloc(1, 16)
	if _, err := a.Alloc(m.CPU(0), 0); err == nil {
		t.Fatal("zero-size alloc succeeded")
	}
	if _, err := a.Alloc(m.CPU(0), 17); err == nil {
		t.Fatal("over-block alloc succeeded")
	}
}
