package hw

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// An op script is what a test proc does, one op at a time: local work, line
// touches and interrupt rounds, separated by yields and barrier waits.
type scriptOp struct {
	kind byte   // one of the op* constants
	arg  uint64 // cycles, a line index, or a target mask
}

const (
	opTick = iota
	opRead
	opWrite
	opIPI // interrupt the cores in arg's mask, the sender excluded
	opYield
	opWait
)

// script is a machine's op scripts: one pinned per core, each with the same
// number of barrier waits, and migratable ones that never wait.
type script struct {
	pinned, loose [][]scriptOp
	lines         []Line // the lines the ops touch: fresh for each run
	bar           *Barrier
}

// newScript draws a script for ncores cores (at most 64) from seed.
func newScript(ncores int, seed int64) *script {
	rng := rand.New(rand.NewSource(seed))
	sc := &script{lines: make([]Line, 8), bar: NewBarrier(ncores)}
	segment := func(ops []scriptOp) []scriptOp {
		for n := 1 + rng.Intn(4); n > 0; n-- {
			switch r := rng.Intn(10); {
			case r < 4:
				ops = append(ops, scriptOp{opTick, uint64(50 + rng.Intn(2000))})
			case r < 6:
				ops = append(ops, scriptOp{opRead, uint64(rng.Intn(len(sc.lines)))})
			case r < 8:
				ops = append(ops, scriptOp{opWrite, uint64(rng.Intn(len(sc.lines)))})
			default:
				ops = append(ops, scriptOp{opIPI, rng.Uint64() & (1<<ncores - 1)})
			}
		}
		return append(ops, scriptOp{kind: opYield})
	}
	for id := 0; id < ncores; id++ {
		var ops []scriptOp
		for w := 0; w < 3; w++ {
			for n := rng.Intn(5); n > 0; n-- {
				ops = segment(ops)
			}
			ops = append(ops, scriptOp{kind: opWait})
		}
		sc.pinned = append(sc.pinned, segment(ops))
	}
	for i := 0; i < ncores/2+1; i++ {
		var ops []scriptOp
		for n := 1 + rng.Intn(4); n > 0; n-- {
			ops = segment(ops)
		}
		sc.loose = append(sc.loose, ops)
	}
	return sc
}

// do runs one op that is not a yield point on c.
func (sc *script) do(c *CPU, o scriptOp) {
	switch o.kind {
	case opTick:
		c.Tick(o.arg)
	case opRead:
		c.Read(&sc.lines[o.arg])
	case opWrite:
		c.Write(&sc.lines[o.arg])
	case opIPI:
		var targets CoreSet
		for id := 0; id < 64; id++ {
			if o.arg&(1<<id) != 0 {
				targets.Add(id)
			}
		}
		c.SendIPIs(targets, func(*CPU) {})
	}
}

// coroutine runs ops as a coroutine body.
func (sc *script) coroutine(ops []scriptOp) func(*Ctx) {
	return func(tc *Ctx) {
		for _, o := range ops {
			switch o.kind {
			case opYield:
				tc.Yield()
			case opWait:
				tc.Wait(sc.bar)
			default:
				sc.do(tc.CPU(), o)
			}
		}
	}
}

// step runs ops as a step function.
func (sc *script) step(ops []scriptOp) func(*Ctx) Step {
	i := 0
	return func(tc *Ctx) Step {
		for i < len(ops) {
			o := ops[i]
			i++
			switch o.kind {
			case opYield:
				return StepYield
			case opWait:
				return tc.StepWait(sc.bar)
			default:
				sc.do(tc.CPU(), o)
			}
		}
		return StepDone
	}
}

// run runs the script on a fresh machine, every proc a step proc if steps is
// set, and returns what it left — every core's clock, cycles by cause and
// Stats, and the schedule's dispatches and switches — and the machine's
// totals.
func (sc *script) run(ncores int, steps bool) (string, Cycles, Stats, uint64) {
	m := NewMachine(DefaultConfig(ncores))
	sc.lines = make([]Line, len(sc.lines))
	s := NewSched(0)
	s.SwitchCost = 500
	spawn := func(pin int, ops []scriptOp) {
		if steps {
			s.SpawnStep(pin, sc.step(ops))
		} else {
			s.Spawn(pin, sc.coroutine(ops))
		}
	}
	for id, ops := range sc.pinned {
		spawn(id, ops)
	}
	for _, ops := range sc.loose {
		spawn(-1, ops)
	}
	s.Run(m, ncores, 0)
	var b strings.Builder
	for id := 0; id < ncores; id++ {
		c := m.CPU(id)
		fmt.Fprintf(&b, "core %d: clock %d cycles %v stats %+v\n", id, c.Now(), c.Cycles(), *c.Stats())
	}
	fmt.Fprintf(&b, "dispatches %d switches %d\n", s.Dispatches(), s.Switches())
	return b.String(), m.Cycles(), m.TotalStats(), s.Switches()
}

// TestStepProcsMatchCoroutines: one op script run with every proc a
// coroutine and again with every proc a step proc leaves the same clocks,
// cycles by cause, Stats, dispatches and switches, on 1, 8 and 64 cores.
// The scripts cross barriers, transfer lines and mail interrupts, which
// their targets fold as their clocks pass the stamps, at yield points among
// other places; the migratable procs make cores switch.
func TestStepProcsMatchCoroutines(t *testing.T) {
	for _, ncores := range []int{1, 8, 64} {
		for seed := int64(1); seed <= 3; seed++ {
			sc := newScript(ncores, seed)
			co, y, st, switches := sc.run(ncores, false)
			if steps, _, _, _ := sc.run(ncores, true); steps != co {
				t.Fatalf("%d cores, seed %d: step procs left\n%s\ncoroutines left\n%s", ncores, seed, steps, co)
			}
			if switches == 0 {
				t.Errorf("%d cores, seed %d: no dispatch switched procs", ncores, seed)
			}
			if ncores > 1 && (y[CauseMailbox] == 0 || y[CauseIdle] == 0 || st.Transfers == 0) {
				t.Errorf("%d cores, seed %d: the script folded %d mailbox cycles, waited %d idle cycles and made %d transfers; want all three",
					ncores, seed, y[CauseMailbox], y[CauseIdle], st.Transfers)
			}
		}
	}
}

// TestStepProcYieldPanics: a step function that calls Yield, Park or Wait
// panics naming the proc and the call, a Park with a Wake pending included,
// and so does spawning a step proc on the explorer.
func TestStepProcYieldPanics(t *testing.T) {
	bar := NewBarrier(1)
	for _, tc := range []struct {
		name string
		call func(tc *Ctx)
		wake bool
		want string
	}{
		{"Yield", (*Ctx).Yield, false, "hw: step proc 1 called Ctx.Yield"},
		{"Park", (*Ctx).Park, false, "hw: step proc 1 called Ctx.Park"},
		{"ParkWoken", (*Ctx).Park, true, "hw: step proc 1 called Ctx.Park"},
		{"Wait", func(tc *Ctx) { tc.Wait(bar) }, false, "hw: step proc 1 called Ctx.Wait"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSched(0)
			s.Spawn(0, func(*Ctx) {})
			p := s.SpawnStep(0, func(c *Ctx) Step {
				tc.call(c)
				return StepDone
			})
			if tc.wake {
				s.Wake(p)
			}
			if got := fmt.Sprint(mustPanic(t, func() { s.Run(NewMachine(TestConfig(1)), 1, 0) })); !strings.HasPrefix(got, tc.want) {
				t.Errorf("got panic %q, want one starting %q", got, tc.want)
			}
		})
	}
	t.Run("Explorer", func(t *testing.T) {
		got := fmt.Sprint(mustPanic(t, func() {
			RunGang(NewMachine(TestConfig(1)), 1, 0, func(_ *CPU, g *Gang) {
				g.s.SpawnStep(0, func(*Ctx) Step { return StepDone })
			})
		}))
		if want := "hw: a step proc on the explorer"; !strings.HasPrefix(got, want) {
			t.Errorf("got panic %q, want one starting %q", got, want)
		}
	})
}
