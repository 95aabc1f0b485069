package vm

import (
	"math/rand"
	"reflect"
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
)

type stubMapper struct{ id int }

func (*stubMapper) RevokeFilePages(*hw.CPU, *File, uint64, uint64) (int, int) { return 0, 0 }

// TestMapperRegistryKeepsRegistrationOrder churns registrations against the
// registry as it was — a slice scanned for membership, removal by splicing —
// and checks that revocations still visit mappers in the same order: that
// order decides which space's shootdown a writeback pays first, so it feeds
// the virtual clock.
func TestMapperRegistryKeepsRegistrationOrder(t *testing.T) {
	m := hw.NewMachine(hw.TestConfig(1))
	f := NewFile(mem.NewAllocator(m, refcache.New(m)))
	pool := make([]FileMapper, 64)
	for i := range pool {
		pool[i] = &stubMapper{id: i}
	}
	var want []FileMapper
	index := func(m FileMapper) int {
		for i, have := range want {
			if have == m {
				return i
			}
		}
		return -1
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 20000; step++ {
		// Mostly grow, then mostly shrink, so the registry both fills up
		// and drains through its hole-squeezing threshold.
		grow := 60
		if step/2500%2 == 1 {
			grow = 35
		}
		mp := pool[rng.Intn(len(pool))]
		if rng.Intn(100) < grow {
			f.RegisterMapper(mp) // idempotent: may already be in
			if index(mp) < 0 {
				want = append(want, mp)
			}
		} else {
			f.UnregisterMapper(mp) // may not be in
			if i := index(mp); i >= 0 {
				want = append(want[:i], want[i+1:]...)
			}
		}
		if f.Mappers() != len(want) {
			t.Fatalf("step %d: Mappers() = %d, want %d", step, f.Mappers(), len(want))
		}
		if got := f.mappers; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("step %d: revocation order diverged from registration order:\n got %v\nwant %v", step, got, want)
		}
		if len(f.mappers) > 2*len(want)+1 {
			t.Fatalf("step %d: registry holds %d slots for %d mappers", step, len(f.mappers), len(want))
		}
	}
}

// TestRemapKeepsRegistryPlace: a space that maps a file over its only region
// of that file stays findable by the file's revocations. Two spaces map one
// file; the first remaps its region; one Writeback must find both spaces'
// translations. (The mm registry's place-keeping is the baselines' now, and
// TestMapperRegistryKeepsRegistrationOrder's to pin: a RadixVM space is found
// through the holder sets of the pages it faulted, which a remap leaves
// alone.) Once the first space maps anonymous memory over the region, a
// writeback still walks into it — its holder entry is a leftover — and finds
// nothing; after that only the second space is visited.
func TestRemapKeepsRegistryPlace(t *testing.T) {
	m := hw.NewMachine(hw.TestConfig(2))
	rc := refcache.New(m)
	alloc := mem.NewAllocator(m, rc)
	f := NewFile(alloc)
	c0, c1 := m.CPU(0), m.CPU(1)
	first, second := New(m, rc, alloc, nil), New(m, rc, alloc, nil)
	opts := MapOpts{Prot: ProtRead, File: f}
	for _, as := range []*AddressSpace{first, second} {
		if err := as.Mmap(c0, 500, 2, opts); err != nil {
			t.Fatal(err)
		}
	}
	if err := first.Mmap(c0, 500, 2, opts); err != nil { // over its only region of f
		t.Fatal(err)
	}
	touch := func() {
		t.Helper()
		for _, as := range []*AddressSpace{first, second} {
			if err := as.Access(c1, 500, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	touch()
	f.Writeback(c0, 0, 1)
	if got := f.Stats().Revoked; got != 2 {
		t.Errorf("writeback revoked %d translations, want both spaces' (2)", got)
	}
	if f.Mappers() != 0 {
		t.Errorf("Mappers() = %d, want 0: a RadixVM space is not in the mm registry", f.Mappers())
	}
	touch()
	if err := first.Mmap(c0, 500, 2, MapOpts{Prot: ProtRead}); err != nil {
		t.Fatal(err)
	}
	for round, want := range [][2]uint64{{2 + 1, 2 + 2}, {2 + 1 + 1, 2 + 2 + 1}} {
		f.Writeback(c0, 0, 1)
		if got := f.Stats().Revoked; got != want[0] {
			t.Errorf("round %d: %d translations revoked in all, want %d (the second space's: the anonymous remap dropped the first's)", round, got, want[0])
		}
		if got := f.Stats().Visits; got != want[1] {
			t.Errorf("round %d: %d spaces visited in all, want %d", round, got, want[1])
		}
		if err := second.Access(c1, 500, false); err != nil {
			t.Fatal(err)
		}
	}
}
