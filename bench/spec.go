package main

// The benchmark's vocabulary: workload names, metric names and units. The
// same tables drive the printed output, the result JSON, -compare, and the
// test that keeps ../BENCHMARK.json in step with them.

type metricDef struct {
	name string
	unit string
}

// setupFloorS is the absolute slack -compare grants setup_s on top of its
// relative bound: a fraction of a second of process start is noise.
const setupFloorS = 0.3

// endToEnd lists the end-to-end metrics, every one printed for every
// workload by a --trace 0 run. The host metrics vary run to run and
// BENCHMARK.json bounds them by a share; the two virtual metrics (v_) are a
// pure function of the commit and their bound there is 1e-12, that is,
// exact.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"radix_host_s", "s"},
	{"base_host_s", "s"},
	{"radix_host_ns_per_vop", "ns"},
	{"radix_alloc_mb", "MB"},
	{"radix_mallocs_k", "k"},
	{"v_radix_tput", "Kops/s"},
	{"v_radix_scale_x", "x"},
}

// vmOps are the vm.System calls the tracing decorator records, in span
// order. Fetch and Mprotect are forwarded untraced: no workload here calls
// them.
var vmOps = []string{"mmap", "munmap", "access", "fork", "exit"}

const (
	opMmap = iota
	opMunmap
	opAccess
	opFork
	opExit
	nOps
)

// perLayer lists the per-layer metrics, every one printed for every
// workload by a --trace 1 run. A probe reads 0 on the workloads it is not
// attached to, and a vm op reads 0 where the workload never calls it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var d []metricDef
	add := func(name, unit string) { d = append(d, metricDef{name: name, unit: unit}) }
	for _, op := range vmOps {
		add("vm."+op+".count", "count")
		add("vm."+op+".host_s", "s")
		add("vm."+op+".host_ns_p50", "ns")
		add("vm."+op+".host_ns_p99", "ns")
		add("vm."+op+".vcyc_mean", "cycles")
	}
	for _, sys := range []string{"linuxvm", "bonsaivm"} {
		for _, op := range vmOps[:opExit] {
			add(sys+"."+op+".host_s", "s")
			add(sys+"."+op+".vcyc_mean", "cycles")
		}
		add(sys+".v_tput", "Kops/s")
		add(sys+".ipis_per_kvop", "1/kvop")
	}
	add("workload.self_host_s", "s")
	add("workload.self_share", "share")
	add("workload.base_self_share", "share")
	add("workload.v_p50_kcyc", "kcycles")
	add("workload.v_p99_kcyc", "kcycles")
	add("workload.v_ipis_per_writeback", "count")

	add("hw.xfers_per_kvop", "1/kvop")
	add("hw.xsocket_share", "share")
	add("hw.ipis_per_kvop", "1/kvop")
	add("hw.ipi_mbox_high", "count")
	add("hw.sched.deferred_share", "share")
	add("hw.sched.runq_high", "count")
	add("refcache.reviews_per_kvop", "1/kvop")
	add("refcache.review_q_high", "count")
	add("refcache.evicts_per_kvop", "1/kvop")
	add("pagetable.bytes_end_mb", "MB")
	add("mem.pages_zeroed_per_kvop", "1/kvop")
	add("mem.frames_created", "count")
	add("mem.pagecache_fills", "count")
	add("mem.sharer_high", "count")

	for _, p := range probes {
		add(p.name+".host_ns", "ns")
		if !p.hostOnly {
			add(p.name+".vcyc", "cycles")
		}
		if p.allocs {
			add(p.name+".alloc_kb", "KB")
		}
	}

	add("host.gc_cycles", "count")
	add("host.gc_pause_ms", "ms")
	add("host.peak_rss_mb", "MB")
	add("tracing.overhead_pct", "%")
	return d
}
