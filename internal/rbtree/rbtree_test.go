package rbtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"radixvm/internal/hw"
)

func cpu() *hw.CPU {
	return hw.NewMachine(hw.TestConfig(1)).CPU(0)
}

func TestInsertGetDelete(t *testing.T) {
	c := cpu()
	tr := New[string]()
	if !tr.Insert(c, 5, "five") {
		t.Fatal("insert new returned false")
	}
	if tr.Insert(c, 5, "FIVE") {
		t.Fatal("replace returned true")
	}
	if v, ok := tr.Get(c, 5); !ok || v != "FIVE" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if !tr.Delete(c, 5) || tr.Delete(c, 5) {
		t.Fatal("delete semantics wrong")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestInvariantsUnderRandomOps(t *testing.T) {
	c := cpu()
	tr := New[int]()
	rng := rand.New(rand.NewSource(7))
	present := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		k := uint64(rng.Intn(800))
		if rng.Intn(2) == 0 {
			tr.Insert(c, k, i)
			present[k] = true
		} else {
			if tr.Delete(c, k) != present[k] {
				t.Fatalf("delete(%d) disagreed with model at op %d", k, i)
			}
			delete(present, k)
		}
		if i%250 == 0 {
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(present) {
		t.Fatalf("Len = %d, model %d", tr.Len(), len(present))
	}
}

func TestFloor(t *testing.T) {
	c := cpu()
	tr := New[int]()
	for _, k := range []uint64{10, 20, 30} {
		tr.Insert(c, k, int(k))
	}
	cases := []struct {
		q     uint64
		floor int64 // -1 = nil
	}{
		{5, -1}, {10, 10}, {15, 10}, {25, 20}, {30, 30}, {35, 30},
	}
	for _, tc := range cases {
		f := tr.Floor(c, tc.q)
		if got := nodeKey(f); got != tc.floor {
			t.Errorf("Floor(%d) = %d, want %d", tc.q, got, tc.floor)
		}
	}
}

func nodeKey(n *Node[int]) int64 {
	if n == nil {
		return -1
	}
	return int64(n.Key)
}

func TestAscend(t *testing.T) {
	c := cpu()
	tr := New[int]()
	keys := []uint64{50, 10, 70, 30, 90, 20}
	for _, k := range keys {
		tr.Insert(c, k, int(k))
	}
	var got []uint64
	tr.Ascend(c, 20, func(k uint64, _ int) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{20, 30, 50, 70, 90}
	if len(got) != len(want) {
		t.Fatalf("Ascend = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ascend = %v, want %v", got, want)
		}
	}
}

func TestAscendEarlyStop(t *testing.T) {
	c := cpu()
	tr := New[int]()
	for k := uint64(1); k <= 10; k++ {
		tr.Insert(c, k, 0)
	}
	count := 0
	tr.Ascend(c, 1, func(uint64, int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
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
				tr.Insert(c, k, i)
				model[k] = i
			}
		}
		if tr.checkInvariants() != nil || tr.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := tr.Get(c, k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
