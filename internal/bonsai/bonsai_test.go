package bonsai

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"radixvm/internal/hw"
)

func cpu() *hw.CPU {
	return hw.NewMachine(hw.TestConfig(2)).CPU(0)
}

func iv(x int) *int { return &x }

func TestInsertGetDelete(t *testing.T) {
	c := cpu()
	tr := New[int]()
	if !tr.Insert(c, 7, iv(70)) {
		t.Fatal("new insert returned false")
	}
	if tr.Insert(c, 7, iv(71)) {
		t.Fatal("replace returned true")
	}
	if v := tr.Get(c, 7); v == nil || *v != 71 {
		t.Fatalf("Get = %v", v)
	}
	if !tr.Delete(c, 7) || tr.Delete(c, 7) {
		t.Fatal("delete semantics wrong")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestPersistence(t *testing.T) {
	// Old snapshots must be unaffected by later writes — the property
	// Bonsai's lock-free pagefaults rely on.
	c := cpu()
	tr := New[int]()
	for k := uint64(0); k < 100; k++ {
		tr.Insert(c, k, iv(int(k)))
	}
	snap := tr.Snapshot()
	for k := uint64(0); k < 100; k += 2 {
		tr.Delete(c, k)
	}
	tr.Insert(c, 1000, iv(1))
	if snap.Len() != 100 {
		t.Fatalf("snapshot mutated: Len = %d", snap.Len())
	}
	if _, _, ok := snap.Floor(c, 0); !ok {
		t.Fatal("snapshot lost key 0")
	}
	if tr.Len() != 51 {
		t.Fatalf("tree Len = %d, want 51", tr.Len())
	}
}

func TestFloor(t *testing.T) {
	c := cpu()
	tr := New[int]()
	for _, k := range []uint64{10, 20, 30} {
		tr.Insert(c, k, iv(int(k)))
	}
	if _, _, ok := tr.Floor(c, 5); ok {
		t.Fatal("Floor(5) found something")
	}
	if k, _, ok := tr.Floor(c, 25); !ok || k != 20 {
		t.Fatalf("Floor(25) = %d, %v", k, ok)
	}
	if k, _, ok := tr.Floor(c, 30); !ok || k != 30 {
		t.Fatalf("Floor(30) = %d, %v", k, ok)
	}
}

func TestBalanceBound(t *testing.T) {
	c := cpu()
	tr := New[int]()
	// Sorted insertion is the worst case for naive BSTs.
	const n = 4096
	for k := uint64(0); k < n; k++ {
		tr.Insert(c, k, iv(int(k)))
	}
	h := height(tr.root)
	// Weight-balanced trees have height <= ~2.5 log2 n.
	if limit := int(2.5 * math.Log2(n)); h > limit {
		t.Fatalf("height %d exceeds %d for %d sorted keys", h, limit, n)
	}
}

func TestAscend(t *testing.T) {
	c := cpu()
	tr := New[int]()
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		tr.Insert(c, k, iv(int(k)))
	}
	var got []uint64
	tr.Snapshot().Ascend(c, 3, func(k uint64, _ *int) bool {
		got = append(got, k)
		return k < 7
	})
	want := []uint64{3, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("Ascend = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ascend = %v, want %v", got, want)
		}
	}
}

func TestQuickModel(t *testing.T) {
	type op struct {
		Key    uint8
		Delete bool
	}
	f := func(ops []op) bool {
		c := cpu()
		tr := New[int]()
		model := map[uint64]int{}
		for i, o := range ops {
			k := uint64(o.Key)
			if o.Delete {
				_, had := model[k]
				if tr.Delete(c, k) != had {
					return false
				}
				delete(model, k)
			} else {
				tr.Insert(c, k, iv(i))
				model[k] = i
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got := tr.Get(c, k)
			if got == nil || *got != v {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestConcurrentReadersWithOneWriter(t *testing.T) {
	// Readers run against snapshots while one writer churns, interleaved
	// at every line touch: no reader ever sees a stable key go.
	for seed := range hw.Seeds(8) {
		m := hw.NewMachine(hw.TestConfig(4))
		tr := New[int]()
		w := m.CPU(0)
		for k := uint64(0); k < 512; k += 2 {
			tr.Insert(w, k, iv(int(k)))
		}
		hw.RunGang(m, 4, seed, func(c *hw.CPU, g *hw.Gang) {
			rng := rand.New(rand.NewSource(int64(c.ID())))
			for i := 0; i < 500; i++ {
				if c.ID() == 0 {
					k := uint64(rng.Intn(512))*2 + 1
					tr.Insert(c, k, iv(i))
					tr.Delete(c, k)
				} else {
					k := uint64(rng.Intn(256)) * 2
					if v := tr.Get(c, k); v == nil || *v != int(k) {
						t.Errorf("seed %d: stable key %d lost: %v", seed, k, v)
						return
					}
				}
				g.Sync(c)
			}
		})
	}
}

func TestLockFreeReadsNoWrites(t *testing.T) {
	// A quiescent reader re-walking warm paths writes nothing and, once
	// warm, transfers nothing.
	m := hw.NewMachine(hw.TestConfig(2))
	tr := New[int]()
	w := m.CPU(0)
	for k := uint64(0); k < 256; k++ {
		tr.Insert(w, k, iv(int(k)))
	}
	r := m.CPU(1)
	for k := uint64(0); k < 256; k++ {
		tr.Get(r, k) // warm
	}
	m.ResetStats()
	for k := uint64(0); k < 256; k++ {
		if tr.Get(r, k) == nil {
			t.Fatal("lost key")
		}
	}
	if tr := m.TotalStats().Transfers; tr != 0 {
		t.Errorf("warm lock-free reads transferred %d lines", tr)
	}
}
