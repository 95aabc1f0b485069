package pagetable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"radixvm/internal/hw"
)

// freshEntry is an uncached walk to vpn's entry: every call descends from
// the root.
func freshEntry(pt *PageTable, cpu *hw.CPU, vpn uint64, create, write bool) *uint64 {
	_, d2 := descend(pt, cpu, &pt.root, idxAt(vpn, 3), create)
	if d2 == nil {
		return nil
	}
	_, d1 := descend(pt, cpu, d2, idxAt(vpn, 2), create)
	if d1 == nil {
		return nil
	}
	_, n := descend(pt, cpu, d1, idxAt(vpn, 1), create)
	if n == nil {
		return nil
	}
	l, pte := n.touch(idxAt(vpn, 0))
	if write {
		cpu.Write(l)
	} else {
		cpu.Read(l)
	}
	return pte
}

// swap stores v in *pte and returns what it held.
func swap(pte *uint64, v uint64) uint64 {
	old := *pte
	*pte = v
	return old
}

// freshEach is the range walk with a fresh walk per vpn, skipping the rest
// of a missing leaf's span.
func freshEach(pt *PageTable, cpu *hw.CPU, lo, hi uint64, write bool, op func(vpn uint64, pte *uint64)) {
	for vpn := lo; vpn < hi; vpn++ {
		if pte := freshEntry(pt, cpu, vpn, false, write); pte != nil {
			op(vpn, pte)
		} else {
			vpn |= EntriesPerNode - 1
		}
	}
}

// TestWalkerMatchesFreshWalks runs random streams of every operation, and
// of lookups and fills through per-core Walkers kept across steps, over
// sparse ranges that cross leaf and directory boundaries on two tables, one
// through the package's operations and one through per-vpn walks from the
// root, each on a machine of its own, with mailbox messages queued between
// operations that fall due inside later walks. A cached path must charge
// exactly what the descents it skips would, whether it charged its touches
// in one step or refused to: every core's cycles by cause and Stats, every
// operation's result and the tables' contents must be equal. So must the
// mail each range walk has left unfolded at every entry it visits and every
// core's after each operation: folding a message late ends at the same
// clock, so only that sees a walk skip a message due inside it. Fork's copy,
// whose callback charges between the entries of a range walk, runs into a
// second table on each machine.
func TestWalkerMatchesFreshWalks(t *testing.T) {
	const ncores, steps = 12, 300
	// The clusters straddle the end of a leaf's, a dir1's and a dir2's span,
	// and one sits alone in a root entry, so ranges cross every level's
	// boundary and skip missing leaves.
	bases := []uint64{EntriesPerNode - 40, EntriesPerNode * EntriesPerNode, 3*EntriesPerNode*EntriesPerNode*EntriesPerNode - 300, 5 << 30}
	for seed := int64(1); seed <= 6; seed++ {
		mw, pw := newPT(ncores)
		mf, pf := newPT(ncores)
		pw2, pf2 := New(mw), New(mf) // the forked child's tables
		rng := rand.New(rand.NewSource(seed))
		vpnAt := func() uint64 {
			return bases[rng.Intn(len(bases))] + uint64(rng.Intn(1200)) - 400
		}
		var touched, touched2 []uint64
		kept := make([]*Walker, ncores) // each core's Walker, kept across steps
		for i := range kept {
			kept[i] = pw.Walker()
		}
		for step := 0; step < steps; step++ {
			c := rng.Intn(ncores)
			cw, cf := mw.CPU(c), mf.CPU(c)
			if rng.Intn(3) == 0 {
				// Mail the core a handler's cost, due within the next
				// operation's walks or later, on both machines.
				stamp := cw.Now() + uint64(rng.Intn(3000))
				cf.Now()
				cw.DeliverAt(stamp, 1000)
				cf.DeliverAt(stamp, 1000)
			}
			lo := vpnAt()
			hi := lo + 1 + uint64(rng.Intn(1500))
			perm := Perm(rng.Intn(int(permAll) + 1))
			var got, want string
			var mailW, mailF []int // mail left unfolded at each range-walk entry
			noteW := func() { mailW = append(mailW, cw.MailQueued()) }
			noteF := func() { mailF = append(mailF, cf.MailQueued()) }
			switch op := rng.Intn(9); op {
			case 0: // Map through a Walker: fork's copy into the child
				w := pw.Walker()
				for vpn := lo; vpn < hi; vpn += 1 + uint64(rng.Intn(40)) {
					w.Map(cw, vpn, vpn+7, perm)
					*freshEntry(pf, cf, vpn, true, true) = pack(vpn+7, perm)
					touched = append(touched, vpn)
				}
			case 1:
				pw.Map(cw, lo, lo+3, perm)
				*freshEntry(pf, cf, lo, true, true) = pack(lo+3, perm)
				touched = append(touched, lo)
			case 2:
				got = fmt.Sprint(pw.Unmap(cw, lo))
				pte := freshEntry(pf, cf, lo, false, true)
				want = fmt.Sprint(pte != nil && swap(pte, 0)&rawPresent != 0)
			case 3:
				old, _ := pw.Peek(lo)
				got = fmt.Sprint(kept[c].Replace(cw, lo, old, lo+9, perm))
				pte := freshEntry(pf, cf, lo, false, true)
				won := pte != nil && *pte == pack(old.PFN, old.Perm)
				if won {
					*pte = pack(lo+9, perm)
				}
				want = fmt.Sprint(won)
			case 4:
				got = fmt.Sprint(pw.ProtectRange(cw, lo, hi, perm))
				n := 0
				freshEach(pf, cf, lo, hi, true, func(_ uint64, pte *uint64) {
					if old := *pte; old&rawPresent != 0 {
						*pte = pack(old>>rawShift, perm)
						n++
					}
				})
				want = fmt.Sprint(n)
			case 5:
				var gotV, wantV []uint64
				n := pw.UnmapRangeFunc(cw, lo, hi, func(vpn, pfn uint64) { noteW(); gotV = append(gotV, vpn, pfn) })
				got = fmt.Sprint(n, gotV)
				n = 0
				freshEach(pf, cf, lo, hi, true, func(vpn uint64, pte *uint64) {
					if old := swap(pte, 0); old&rawPresent != 0 {
						noteF()
						n++
						wantV = append(wantV, vpn, old>>rawShift)
					}
				})
				want = fmt.Sprint(n, wantV)
			case 6:
				var gotV, wantV []PTE
				pw.ForEachRange(cw, lo, hi, func(_ uint64, pte PTE) { noteW(); gotV = append(gotV, pte) })
				freshEach(pf, cf, lo, hi, false, func(_ uint64, pte *uint64) {
					if raw := *pte; raw&rawPresent != 0 {
						noteF()
						wantV = append(wantV, unpack(raw))
					}
				})
				got, want = fmt.Sprint(gotV), fmt.Sprint(wantV)
			case 7: // a fault on a per-core table: a lookup, then a fill
				pte, ok := kept[c].Lookup(cw, lo)
				kept[c].Map(cw, lo, lo+5, perm)
				got = fmt.Sprint(pte, ok)
				want = fmt.Sprint(present(freshEntry(pf, cf, lo, false, false)))
				*freshEntry(pf, cf, lo, true, true) = pack(lo+5, perm)
				touched = append(touched, lo)
			case 8: // fork: copy each entry into the child, downgrade it in place
				work := uint64(rng.Intn(200))
				var gotV, wantV []uint64
				cwk, pwk := pw2.Walker(), pw.Walker()
				pw.ForEachRange(cw, lo, hi, func(vpn uint64, pte PTE) {
					noteW()
					cw.TickAs(hw.CauseMetaCopy, work)
					cwk.Map(cw, vpn, pte.PFN, pte.Perm&^PermW)
					if pte.Writable() {
						pwk.Map(cw, vpn, pte.PFN, pte.Perm&^PermW)
					}
					gotV = append(gotV, vpn)
				})
				freshEach(pf, cf, lo, hi, false, func(vpn uint64, pte *uint64) {
					raw := *pte
					if raw&rawPresent == 0 {
						return
					}
					p := unpack(raw)
					noteF()
					cf.TickAs(hw.CauseMetaCopy, work)
					*freshEntry(pf2, cf, vpn, true, true) = pack(p.PFN, p.Perm&^PermW)
					if p.Writable() {
						*freshEntry(pf, cf, vpn, true, true) = pack(p.PFN, p.Perm&^PermW)
					}
					wantV = append(wantV, vpn)
				})
				touched2 = append(touched2, gotV...)
				got, want = fmt.Sprint(gotV), fmt.Sprint(wantV)
			}
			if got != want {
				t.Fatalf("seed %d, step %d: [%#x, %#x) returned %s through the Walker, %s through fresh walks", seed, step, lo, hi, got, want)
			}
			if !slices.Equal(mailW, mailF) {
				t.Fatalf("seed %d, step %d: [%#x, %#x) left mail unfolded at its entries %v through the Walker, %v through fresh walks", seed, step, lo, hi, mailW, mailF)
			}
			for i := 0; i < ncores; i++ {
				if a, b := mw.CPU(i).MailQueued(), mf.CPU(i).MailQueued(); a != b {
					t.Fatalf("seed %d, step %d: core %d left %d messages unfolded through the Walker, %d through fresh walks", seed, step, i, a, b)
				}
				if a, b := mw.CPU(i), mf.CPU(i); a.Cycles() != b.Cycles() || *a.Stats() != *b.Stats() {
					t.Fatalf("seed %d, step %d: core %d charged %v %+v through the Walker, %v %+v through fresh walks",
						seed, step, i, a.Cycles(), *a.Stats(), b.Cycles(), *b.Stats())
				}
			}
		}
		for _, tabs := range []struct {
			w, f    *PageTable
			touched []uint64
		}{{pw, pf, touched}, {pw2, pf2, touched2}} {
			if tabs.w.Nodes() != tabs.f.Nodes() {
				t.Fatalf("seed %d: %d nodes through the Walker, %d through fresh walks", seed, tabs.w.Nodes(), tabs.f.Nodes())
			}
			slices.Sort(tabs.touched)
			for _, vpn := range slices.Compact(tabs.touched) {
				a, aok := tabs.w.Peek(vpn)
				b, bok := tabs.f.Peek(vpn)
				if a != b || aok != bok {
					t.Fatalf("seed %d: vpn %#x holds %+v, %v through the Walker, %+v, %v through fresh walks", seed, vpn, a, aok, b, bok)
				}
			}
		}
	}
}
