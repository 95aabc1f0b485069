package pagetable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"radixvm/internal/hw"
)

func newPT(ncores int) (*hw.Machine, *PageTable) {
	m := hw.NewMachine(hw.TestConfig(ncores))
	return m, New(m)
}

func TestMapLookupUnmap(t *testing.T) {
	m, pt := newPT(1)
	c := m.CPU(0)
	if _, ok := pt.Lookup(c, 42); ok {
		t.Fatal("lookup hit in empty table")
	}
	pt.Map(c, 42, 7, PermW)
	pte, ok := pt.Lookup(c, 42)
	if !ok || pte.PFN != 7 || !pte.Present {
		t.Fatalf("Lookup = %+v, %v", pte, ok)
	}
	if !pt.Unmap(c, 42) {
		t.Fatal("Unmap missed present entry")
	}
	if _, ok := pt.Lookup(c, 42); ok {
		t.Fatal("lookup hit after unmap")
	}
	if pt.Unmap(c, 42) {
		t.Fatal("double unmap reported present")
	}
}

func TestMapOverwrite(t *testing.T) {
	m, pt := newPT(1)
	c := m.CPU(0)
	pt.Map(c, 5, 1, 0)
	pt.Map(c, 5, 2, PermW)
	pte, _ := pt.Lookup(c, 5)
	if pte.PFN != 2 {
		t.Fatalf("overwrite lost: PFN = %d", pte.PFN)
	}
}

// TestPermissionRoundTrip: every permission survives the packed PTE at a
// zero, a small and a wide PFN, through Map/Lookup, Peek and ProtectRange.
func TestPermissionRoundTrip(t *testing.T) {
	m, pt := newPT(1)
	c := m.CPU(0)
	check := func(how string, vpn, pfn uint64, perm Perm, pte PTE, ok bool) {
		t.Helper()
		if want := (PTE{PFN: pfn, Perm: perm, Present: true}); !ok || pte != want {
			t.Fatalf("vpn %d %s: %+v ok=%v, want %+v", vpn, how, pte, ok, want)
		}
		if pte.Perm&PermR != perm&PermR || pte.Writable() != (perm&PermW != 0) || pte.Perm&PermX != perm&PermX {
			t.Fatalf("vpn %d %s: rights of %+v disagree with its bits", vpn, how, pte)
		}
	}
	vpn := uint64(0)
	for _, pfn := range []uint64{0, 1, 1<<40 + 1} {
		for perm := Perm(0); perm <= permAll; perm++ {
			pt.Map(c, vpn, pfn, perm)
			pte, ok := pt.Lookup(c, vpn)
			check("Lookup", vpn, pfn, perm, pte, ok)
			pte, ok = pt.Peek(vpn)
			check("Peek", vpn, pfn, perm, pte, ok)
			for to := Perm(0); to <= permAll; to++ {
				if n := pt.ProtectRange(c, vpn, vpn+1, to); n != 1 {
					t.Fatalf("vpn %d: ProtectRange to %03b covered %d entries", vpn, to, n)
				}
				pte, ok := pt.Lookup(c, vpn)
				check("ProtectRange", vpn, pfn, to, pte, ok)
			}
			vpn++
		}
	}
}

func TestProtectRange(t *testing.T) {
	m, pt := newPT(1)
	c := m.CPU(0)
	for vpn := uint64(100); vpn < 110; vpn++ {
		pt.Map(c, vpn, vpn, PermW)
	}
	if n := pt.ProtectRange(c, 103, 107, 0); n != 4 {
		t.Fatalf("ProtectRange covered %d, want 4", n)
	}
	for vpn := uint64(100); vpn < 110; vpn++ {
		pte, ok := pt.Lookup(c, vpn)
		if !ok || pte.PFN != vpn {
			t.Fatalf("vpn %d translation damaged: %+v ok=%v", vpn, pte, ok)
		}
		wantW := vpn < 103 || vpn >= 107
		if pte.Writable() != wantW {
			t.Errorf("vpn %d writable=%v want %v", vpn, pte.Writable(), wantW)
		}
	}
	// Restoring rights touches the same entries; absent subtrees skip fast.
	if n := pt.ProtectRange(c, 0, MaxVPN, PermW); n != 10 {
		t.Fatalf("full-range ProtectRange covered %d, want 10", n)
	}
}

func TestPresentPeek(t *testing.T) {
	m, pt := newPT(1)
	c := m.CPU(0)
	if _, ok := pt.Peek(7); ok {
		t.Fatal("Peek hit on empty table")
	}
	pt.Map(c, 7, 70, PermX)
	pte, ok := pt.Peek(7)
	if !ok || pte.PFN != 70 || pte.Perm != PermX {
		t.Fatalf("Peek = %+v, %v", pte, ok)
	}
	pt.Unmap(c, 7)
	if _, ok := pt.Peek(7); ok {
		t.Fatal("Peek hit after unmap")
	}
}

func TestSparseAddressesShareNothing(t *testing.T) {
	m, pt := newPT(1)
	c := m.CPU(0)
	// Far-apart VPNs must land in distinct subtrees.
	a := uint64(0)
	b := MaxVPN - 1
	pt.Map(c, a, 10, 0)
	pt.Map(c, b, 20, 0)
	pa, _ := pt.Lookup(c, a)
	pb, _ := pt.Lookup(c, b)
	if pa.PFN != 10 || pb.PFN != 20 {
		t.Fatalf("sparse mappings clashed: %v %v", pa, pb)
	}
	// Root + 3 levels for each of the two paths = 7 nodes.
	if n := pt.Nodes(); n != 7 {
		t.Errorf("Nodes = %d, want 7", n)
	}
	if pt.Bytes() != uint64(pt.Nodes())*NodeBytes {
		t.Errorf("Bytes inconsistent with Nodes")
	}
}

func TestUnmapRange(t *testing.T) {
	m, pt := newPT(1)
	c := m.CPU(0)
	for vpn := uint64(100); vpn < 120; vpn++ {
		pt.Map(c, vpn, vpn*2, PermW)
	}
	if n := pt.UnmapRange(c, 105, 115); n != 10 {
		t.Fatalf("UnmapRange cleared %d, want 10", n)
	}
	for vpn := uint64(100); vpn < 120; vpn++ {
		_, ok := pt.Lookup(c, vpn)
		want := vpn < 105 || vpn >= 115
		if ok != want {
			t.Errorf("vpn %d present=%v want %v", vpn, ok, want)
		}
	}
}

func TestUnmapRangeSkipsAbsentSubtrees(t *testing.T) {
	m, pt := newPT(1)
	c := m.CPU(0)
	pt.Map(c, 0, 1, 0)
	pt.Map(c, 1<<20, 2, 0)
	// A huge absent range between the two mappings must not be slow or
	// wrong.
	if n := pt.UnmapRange(c, 0, 1<<20+1); n != 2 {
		t.Fatalf("cleared %d, want 2", n)
	}
}

func TestConcurrentDisjointMaps(t *testing.T) {
	const ncores = 8
	for seed := range hw.Seeds(8) {
		m, pt := newPT(ncores)
		hw.RunGang(m, ncores, seed, func(c *hw.CPU, _ *hw.Gang) {
			base := uint64(c.ID()) << 30
			for k := uint64(0); k < 500; k++ {
				pt.Map(c, base+k, base+k+1, PermW)
			}
			for k := uint64(0); k < 500; k++ {
				pte, ok := pt.Lookup(c, base+k)
				if !ok || pte.PFN != base+k+1 {
					t.Errorf("seed %d: core %d lost vpn %d", seed, c.ID(), base+k)
					return
				}
			}
		})
	}
}

func TestQuickAgainstMapModel(t *testing.T) {
	type op struct {
		VPN   uint16
		PFN   uint16
		Unmap bool
	}
	f := func(ops []op) bool {
		m, pt := newPT(1)
		c := m.CPU(0)
		model := map[uint64]uint64{}
		for _, o := range ops {
			vpn := uint64(o.VPN)
			if o.Unmap {
				was := pt.Unmap(c, vpn)
				_, inModel := model[vpn]
				if was != inModel {
					return false
				}
				delete(model, vpn)
			} else {
				pt.Map(c, vpn, uint64(o.PFN), PermW)
				model[vpn] = uint64(o.PFN)
			}
		}
		for vpn, pfn := range model {
			pte, ok := pt.Lookup(c, vpn)
			if !ok || pte.PFN != pfn {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestRandomOpsMatchMapReference drives one table with random Map,
// MapIfAbsent, Unmap, Lookup and Peek calls over a few lines of a few
// nodes — leaves that share interior nodes and one under a root entry on
// another line, so nodes hold one line inline and others in a directory — and
// checks every answer against a map. After each stream every VPN of the
// covered leaves, on touched lines and never-touched ones alike, must read
// as the map says, and the node count must be the root plus the distinct
// interior nodes and leaves the mapping calls created.
func TestRandomOpsMatchMapReference(t *testing.T) {
	leaves := []uint64{0, 1, 2, 511, 1 << 21}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, pt := newPT(1)
		c := m.CPU(0)
		model := map[uint64]uint64{}
		created := map[uint64]bool{} // every prefix a mapping call walked, by level
		pick := func() uint64 {
			line := uint64(rng.Intn(3)) * 17 // lines 0, 17 and 34 of the leaf
			return leaves[rng.Intn(len(leaves))]*EntriesPerNode + line*slotsPerLine + uint64(rng.Intn(slotsPerLine))
		}
		walked := func(vpn uint64) {
			for level := 1; level < Levels; level++ {
				created[uint64(level)<<60|vpn>>(level*BitsPerLevel)] = true
			}
		}
		for i := 0; i < 400; i++ {
			vpn, pfn := pick(), uint64(rng.Intn(1000))
			_, present := model[vpn]
			switch rng.Intn(5) {
			case 0:
				pt.Map(c, vpn, pfn, PermR)
				model[vpn] = pfn
				walked(vpn)
			case 1:
				if got := pt.Walker().MapIfAbsent(c, vpn, pfn, PermR); got == present {
					t.Fatalf("seed %d op %d: MapIfAbsent(%#x) = %v with present = %v", seed, i, vpn, got, present)
				}
				if !present {
					model[vpn] = pfn
				}
				walked(vpn)
			case 2:
				if got := pt.Unmap(c, vpn); got != present {
					t.Fatalf("seed %d op %d: Unmap(%#x) = %v, want %v", seed, i, vpn, got, present)
				}
				delete(model, vpn)
			case 3:
				if pte, ok := pt.Lookup(c, vpn); ok != present || ok && pte.PFN != model[vpn] {
					t.Fatalf("seed %d op %d: Lookup(%#x) = %+v, %v; want %d, %v", seed, i, vpn, pte, ok, model[vpn], present)
				}
			case 4:
				if pte, ok := pt.Peek(vpn); ok != present || ok && pte.PFN != model[vpn] {
					t.Fatalf("seed %d op %d: Peek(%#x) = %+v, %v; want %d, %v", seed, i, vpn, pte, ok, model[vpn], present)
				}
			}
		}
		for _, l := range leaves {
			for vpn := l * EntriesPerNode; vpn < (l+1)*EntriesPerNode; vpn++ {
				pfn, present := model[vpn]
				if pte, ok := pt.Peek(vpn); ok != present || ok && pte.PFN != pfn {
					t.Fatalf("seed %d: Peek(%#x) = %+v, %v; want %d, %v", seed, vpn, pte, ok, pfn, present)
				}
			}
		}
		if got, want := pt.Nodes(), int64(1+len(created)); got != want {
			t.Errorf("seed %d: %d nodes, want %d (the root and %d walked prefixes)", seed, got, want, len(created))
		}
	}
}
