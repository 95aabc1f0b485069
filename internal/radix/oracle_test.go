package radix_test

import (
	"reflect"
	"testing"

	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/radix"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
	"radixvm/internal/workload"
)

// forkRecorder is an address space that remembers which spaces were forked
// through it and have not exited, and runs onFirst before its first fork.
type forkRecorder struct {
	*vm.AddressSpace
	live    map[*vm.AddressSpace]bool
	onFirst func(c *hw.CPU)
}

func (r *forkRecorder) Fork(c *hw.CPU) (vm.System, error) {
	if f := r.onFirst; f != nil {
		r.onFirst = nil
		f(c)
	}
	ch, err := r.AddressSpace.Fork(c)
	if err != nil {
		return nil, err
	}
	as := ch.(*vm.AddressSpace)
	r.live[as] = true
	return &forkRecorder{AddressSpace: as, live: r.live}, nil
}

func (r *forkRecorder) Exit(c *hw.CPU) {
	delete(r.live, r.AddressSpace)
	r.AddressSpace.Exit(c)
}

// TestRetainedSnapshotNeverWritten is the generation fork's whole argument —
// a node two trees share is never written — checked over every node a retained
// snapshot of a fleet's template can reach, across a fleet run against that
// template: the snapshot is forked off the warmed template, one child touches
// every page so that each shared mapping has been armed copy-on-write (the one
// write a divergence hook makes to its source, and only the first time), and
// a deep copy of the snapshot's tree taken then must equal one taken after 64
// children forked, COW-touched rotating slices of it, went dormant and were
// evicted. Then everything exits and no frame is left.
func TestRetainedSnapshotNeverWritten(t *testing.T) {
	const cores = 4
	m := hw.NewMachine(hw.TestConfig(cores))
	rc := refcache.New(m)
	alloc := mem.NewAllocator(m, rc)
	tmpl := vm.New(m, rc, alloc, nil)
	cfg := workload.DefaultFleetConfig()
	cfg.Procs, cfg.MaxLive, cfg.TemplatePages = 64, 16, 1024

	var retained *vm.AddressSpace
	var before any
	rec := &forkRecorder{AddressSpace: tmpl, live: map[*vm.AddressSpace]bool{}}
	rec.onFirst = func(c *hw.CPU) {
		fork := func() *vm.AddressSpace {
			ch, err := tmpl.Fork(c)
			if err != nil {
				t.Fatal(err)
			}
			return ch.(*vm.AddressSpace)
		}
		retained = fork()
		primer := fork()
		_, pages := radix.TreeShape(t, retained.Tree())
		if uint64(len(pages)) != cfg.TemplatePages {
			t.Fatalf("the snapshot maps %d pages, want the template's %d", len(pages), cfg.TemplatePages)
		}
		for _, v := range pages {
			if err := primer.Access(c, v, true); err != nil {
				t.Fatal(err)
			}
		}
		primer.Exit(c)
		before, _ = radix.TreeShape(t, retained.Tree())
	}
	r := workload.Fleet(&workload.Env{M: m, RC: rc}, rec, cores, cfg)
	if r.Stats.Forks != uint64(cfg.Procs)+2 || len(r.Evictions) != cfg.Procs-cfg.MaxLive || len(rec.live) != cfg.MaxLive {
		t.Fatalf("fleet: %d forks, %d evictions, %d children left; want %d, %d, %d",
			r.Stats.Forks, len(r.Evictions), len(rec.live), cfg.Procs+2, cfg.Procs-cfg.MaxLive, cfg.MaxLive)
	}
	if after, _ := radix.TreeShape(t, retained.Tree()); !reflect.DeepEqual(before, after) {
		t.Error("a node the retained snapshot reaches changed during the fleet run")
	}

	c := m.CPU(0)
	for as := range rec.live {
		as.Exit(c)
	}
	retained.Exit(c)
	tmpl.Exit(c)
	for i := 0; i < 20; i++ {
		rc.FlushAll()
	}
	if live := alloc.Live(); live != 0 {
		t.Fatalf("%d frames alive after the fleet, the snapshot and the template exited", live)
	}
}
