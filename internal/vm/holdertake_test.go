package vm

import (
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
)

// TestHolderTakeFetchesEachRecordOnce holds a revocation's take to one
// ownership fetch per holder record: it swaps each record empty with one
// write (an xchg), where a read and then a write would fetch a record another
// core wrote last twice.
func TestHolderTakeFetchesEachRecordOnce(t *testing.T) {
	const k, vpn = 8, uint64(1) << 30
	m := hw.NewMachine(hw.TestConfig(2))
	rc := refcache.New(m)
	alloc := mem.NewAllocator(m, rc)
	f := NewFile(alloc)
	as := New(m, rc, alloc, nil)
	c0, c1 := m.CPU(0), m.CPU(1)
	if err := as.Mmap(c0, vpn, k, MapOpts{Prot: ProtRead, File: f}); err != nil {
		t.Fatal(err)
	}
	for p := uint64(0); p < k; p++ {
		if err := as.Access(c1, vpn+p, false); err != nil {
			t.Fatal(err)
		}
	}
	before := c0.Stats().Transfers
	b := f.takeHolders(c0, 0, k)
	got := c0.Stats().Transfers - before
	if got != k {
		t.Errorf("taking the holders of %d pages core 1 faulted: %d transfers, want %d", k, got, k)
	}
	if len(b.visits) != 1 || b.visits[0].lo != 0 || b.visits[0].hi != k {
		t.Errorf("the take's visits = %+v, want one over [0, %d)", b.visits, k)
	}
}
