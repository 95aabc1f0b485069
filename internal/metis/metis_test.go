package metis

import (
	"testing"

	"radixvm/internal/bonsaivm"
	"radixvm/internal/hw"
	"radixvm/internal/linuxvm"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
	"radixvm/internal/workload"
)

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Words = 20_000
	cfg.Vocab = 500
	return cfg
}

func newEnv(ncores int) (*workload.Env, *mem.Allocator) {
	m := hw.NewMachine(hw.TestConfig(ncores))
	rc := refcache.New(m)
	return &workload.Env{M: m, RC: rc}, mem.NewAllocator(m, rc)
}

func TestJobProcessesAllWords(t *testing.T) {
	env, alloc := newEnv(2)
	sys := vm.New(env.M, env.RC, alloc, nil)
	cfg := tinyConfig()
	r := Run(env, sys, 2, cfg)
	if r.Words != cfg.Words {
		t.Fatalf("Words = %d, want %d", r.Words, cfg.Words)
	}
	if r.Distinct == 0 || r.Distinct > cfg.Vocab {
		t.Fatalf("Distinct = %d", r.Distinct)
	}
	if r.JobsPerHour <= 0 {
		t.Fatal("non-positive throughput")
	}
}

func TestDeterministicAcrossSystems(t *testing.T) {
	// The index must not depend on which VM system ran the job: same
	// words, same distinct count, same checksum.
	cfg := tinyConfig()
	env1, a1 := newEnv(2)
	r1 := Run(env1, vm.New(env1.M, env1.RC, a1, nil), 2, cfg)
	env2, a2 := newEnv(2)
	r2 := Run(env2, linuxvm.New(env2.M, env2.RC, a2), 2, cfg)
	if r1.Checksum != r2.Checksum || r1.Distinct != r2.Distinct || r1.Words != r2.Words {
		t.Fatalf("results diverge: %+v vs %+v", r1, r2)
	}
}

// TestRunDeterministic is Figure 4's share of the determinism gate: the
// job run twice on fresh environments must reproduce the whole Result —
// cycles, mmaps, faults and checksum — on every system, at enough cores
// that map and reduce phases contend.
func TestRunDeterministic(t *testing.T) {
	systems := []struct {
		name string
		mk   func(*workload.Env, *mem.Allocator) vm.System
	}{
		{"radixvm", func(e *workload.Env, a *mem.Allocator) vm.System { return vm.New(e.M, e.RC, a, nil) }},
		{"bonsai", func(e *workload.Env, a *mem.Allocator) vm.System { return bonsaivm.New(e.M, e.RC, a) }},
		{"linux", func(e *workload.Env, a *mem.Allocator) vm.System { return linuxvm.New(e.M, e.RC, a) }},
	}
	cfg := tinyConfig()
	cfg.BlockPages = 16 // the 64 KB unit: mmaps as well as faults contend
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			run := func() Result {
				env, alloc := newEnv(8)
				return Run(env, sys.mk(env, alloc), 8, cfg)
			}
			if r1, r2 := run(), run(); r1 != r2 {
				t.Errorf("results diverge:\n run1: %#v\n run2: %#v", r1, r2)
			}
		})
	}
}

func TestBlockSizeDrivesMmapRate(t *testing.T) {
	// Figure 4's two configurations: the 64 KB-unit job must issue far
	// more mmaps than the 8 MB-unit job for the same corpus.
	cfg := tinyConfig()
	cfg.Words = 200_000 // enough bytes through the allocator to span many 64 KB blocks
	cfg.BlockPages = 2048
	env1, a1 := newEnv(2)
	big := Run(env1, vm.New(env1.M, env1.RC, a1, nil), 2, cfg)
	cfg.BlockPages = 16
	env2, a2 := newEnv(2)
	small := Run(env2, vm.New(env2.M, env2.RC, a2, nil), 2, cfg)
	if small.Mmaps < big.Mmaps*16 {
		t.Fatalf("mmap rates: 64KB unit %d, 8MB unit %d", small.Mmaps, big.Mmaps)
	}
	if small.Checksum != big.Checksum {
		t.Fatal("allocation unit changed the answer")
	}
}

func TestScalesOnRadixVM(t *testing.T) {
	cfg := tinyConfig()
	cfg.Words = 40_000
	run := func(cores int) float64 {
		env, alloc := newEnv(cores)
		r := Run(env, vm.New(env.M, env.RC, alloc, nil), cores, cfg)
		return r.JobsPerHour
	}
	one, four := run(1), run(4)
	if four < one*2 {
		t.Errorf("metis did not scale on radixvm: %0.0f -> %0.0f jobs/hour", one, four)
	}
}
