package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"radixvm/internal/hw"
	"radixvm/internal/mem"
	"radixvm/internal/vm"
	"radixvm/internal/workload"
)

// testSpans is a span buffer large enough for any smoke-size leg.
const testSpans = 1 << 16

func tracedLeg(t *testing.T, w *workloadDef, l leg) (legRun, *legTrace) {
	t.Helper()
	tr := newTracer(testSpans)
	tr.leg = l
	r := runLeg(w, l, true, newSystem, tr)
	if r.failed != 0 {
		t.Fatalf("traced leg failed: %s", r.why)
	}
	return r, &tr.legs[l]
}

// TestDecoratorTransparent: on all three systems a leg gives the same
// cycles, hw.Stats and result fields with and without the decorator. A
// decorator that hid Exit or SetForkEager from the workload — or offered
// them on a baseline — would send Fleet and FileServe down the other
// teardown path and change all three.
func TestDecoratorTransparent(t *testing.T) {
	for _, name := range []string{"local", "fleet", "filemap"} {
		w := workloadByName(name)
		for _, l := range []leg{legRadix, legLinux, legBonsai} {
			plain := runLeg(w, l, true, newSystem, nil)
			if plain.failed != 0 {
				t.Fatalf("%s/%s: %s", name, legNames[l], plain.why)
			}
			wrapped, lt := tracedLeg(t, w, l)
			if plain.print != wrapped.print {
				t.Errorf("%s/%s: virtual results differ under the decorator\nplain:  %s\ntraced: %s",
					name, legNames[l], plain.print, wrapped.print)
			}
			if len(lt.spans) == 0 {
				t.Errorf("%s/%s: no spans recorded", name, legNames[l])
			}
		}
	}
}

// TestDecoratorCapabilities: the wrapper offers Exit and SetForkEager
// exactly when the wrapped system does, and forked children are wrapped.
func TestDecoratorCapabilities(t *testing.T) {
	for l := leg(0); l < nLegs; l++ {
		e, a := newEnv(2)
		sys := newSystem(l, e, a)
		wrapped := newTracer(16).wrap(sys)
		_, has := sys.(lazyExiter)
		if _, got := wrapped.(vm.Exiter); got != has {
			t.Errorf("%s: wrapper has Exit = %v, system has it = %v", legNames[l], got, has)
		}
		if _, got := wrapped.(interface{ SetForkEager(bool) }); got != has {
			t.Errorf("%s: wrapper has SetForkEager = %v, system has it = %v", legNames[l], got, has)
		}
		child, err := wrapped.Fork(e.M.CPU(0))
		if err != nil {
			t.Fatal(err)
		}
		switch child.(type) {
		case *traced, *tracedLazy:
		default:
			t.Errorf("%s: forked child is a %T, not wrapped", legNames[l], child)
		}
	}
}

// TestSpansTile: under the det gang spans never overlap in host time, lie
// inside the leg, never run backwards in virtual time, and together with
// the self time account for the whole leg.
func TestSpansTile(t *testing.T) {
	for _, name := range []string{"local", "fleet"} {
		r, lt := tracedLeg(t, workloadByName(name), legRadix)
		var sum int64
		for i, s := range lt.spans {
			if s.h1 < s.h0 || s.h0 < 0 || s.h1 > int64(r.host) {
				t.Fatalf("%s: span %d [%d,%d] outside the leg [0,%d]", name, i, s.h0, s.h1, r.host)
			}
			if s.v1 < s.v0 {
				t.Fatalf("%s: span %d runs backwards in virtual time: %d -> %d", name, i, s.v0, s.v1)
			}
			if i > 0 && s.h0 < lt.spans[i-1].h1 {
				t.Fatalf("%s: span %d starts at %d, before span %d ends at %d", name, i, s.h0, i-1, lt.spans[i-1].h1)
			}
			sum += s.h1 - s.h0
		}
		_, self := lt.stats()
		if self < 0 {
			t.Fatalf("%s: negative self time %v", name, self)
		}
		if got := float64(sum) + float64(self); math.Abs(got-float64(r.host)) > 0.01*float64(r.host) {
			t.Errorf("%s: spans %d ns + self %d ns = %.0f, leg took %d", name, sum, self, got, r.host)
		}
	}
}

// panicky is a vm.System whose first call fails the way a broken system
// would: by panicking.
type panicky struct{ vm.System }

func (panicky) Mmap(*hw.CPU, uint64, uint64, vm.MapOpts) error { panic("mmap is broken") }

// TestPanickingSystem: a leg whose system panics counts every op it
// attempted as failed and the run goes on.
func TestPanickingSystem(t *testing.T) {
	broken := func(l leg, e *workload.Env, a *mem.Allocator) vm.System {
		return panicky{newSystem(l, e, a)}
	}
	rd := runRound(workloadByName("fleet"), true, broken, nil)
	res := &result{}
	res.tally(rd)
	if res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("attempted %d, failed %d: want every attempted op failed", res.Attempted, res.Failed)
	}
	for l := range rd {
		if !strings.Contains(rd[l].why, "mmap is broken") {
			t.Errorf("%s: reason %q does not name the panic", legNames[l], rd[l].why)
		}
	}
}

// TestNondeterminismFails: a leg whose virtual results differ from the
// reference round's is counted failed.
func TestNondeterminismFails(t *testing.T) {
	w := workloadByName("local")
	a := runRound(w, true, newSystem, nil)
	b := runRound(w, true, newSystem, nil)
	b.checkAgainst(a, "round 1")
	for l := range b {
		if b[l].failed != 0 {
			t.Fatalf("%s: identical rounds disagree: %s", legNames[l], b[l].why)
		}
	}
	b[legLinux].print += "x"
	b.checkAgainst(a, "round 1")
	if b[legLinux].failed != b[legLinux].attempted || b[legRadix].failed != 0 {
		t.Fatalf("failed: linux %d of %d, radixvm %d", b[legLinux].failed, b[legLinux].attempted, b[legRadix].failed)
	}
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]value) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload's measured and traced run at smoke size
// and checks the result line's schema: exactly the contract's keys, every
// metric of the spec present with its unit, no end-to-end metric zero, no
// failures.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := &options{smoke: true, outDir: t.TempDir(), log: io.Discard, start: time.Now()}
			res := runOne(w, o, traced)
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %v", w.name, traced, res.Correct, res.Attempted, res.Failed, res.why)
			}
			if got, want := keys(res.Metrics), names(defs); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want)
			}
			for _, d := range defs {
				v := res.Metrics[d.name]
				if v.Unit != d.unit {
					t.Errorf("%s: %s has unit %q, want %q", w.name, d.name, v.Unit, d.unit)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, v.Value)
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var top map[string]json.RawMessage
			if err := json.Unmarshal(line, &top); err != nil {
				t.Fatal(err)
			}
			var got []string
			for k := range top {
				got = append(got, k)
			}
			sort.Strings(got)
			if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(got, want) {
				t.Errorf("result line has keys %v, want %v", got, want)
			}
		}
	}
}

// TestLayersSeparate: the structural half of the "workloads separate the
// layers" claim holds at any size — local and global never fork or exit,
// and the page cache is touched by filemap alone.
func TestLayersSeparate(t *testing.T) {
	for _, w := range workloads {
		r, lt := tracedLeg(t, w, legRadix)
		ops, _ := lt.stats()
		forks := ops[opFork].count + ops[opExit].count
		if plain := w.name == "local" || w.name == "global"; plain != (forks == 0) {
			t.Errorf("%s: %d fork and exit spans", w.name, forks)
		}
		if (w.name == "filemap") != (r.cacheFills > 0) {
			t.Errorf("%s: %d page-cache fills", w.name, r.cacheFills)
		}
	}
	attached := map[string]string{}
	for _, w := range workloads {
		for _, p := range w.probes {
			if prev, dup := attached[p]; dup {
				t.Errorf("probe %s attached to both %s and %s", p, prev, w.name)
			}
			attached[p] = w.name
		}
	}
	for _, p := range probes {
		if attached[p.name] == "" {
			t.Errorf("probe %s attached to no workload", p.name)
		}
		if strings.Contains(p.name, "pagecache") && attached[p.name] != "filemap" {
			t.Errorf("page-cache probe %s attached to %s", p.name, attached[p.name])
		}
		delete(attached, p.name)
	}
	for p, w := range attached {
		t.Errorf("%s names an unknown probe %s", w, p)
	}
}

// TestProbes runs every layer probe once: each must report a positive host
// cost, and a virtual cost unless its layer has none.
func TestProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("probes take a second")
	}
	free := map[string]bool{"mem.pagecache.page_hit": true} // the cache's map and mutex are not charged
	for _, p := range probes {
		out := p.run()
		if !(out.hostNs > 0) {
			t.Errorf("%s: host_ns = %v", p.name, out.hostNs)
		}
		if !p.hostOnly && !free[p.name] && !(out.vcyc > 0) {
			t.Errorf("%s: vcyc = %v", p.name, out.vcyc)
		}
		if p.allocs && !(out.allocKB > 0) {
			t.Errorf("%s: alloc_kb = %v", p.name, out.allocKB)
		}
	}
}

// TestSpecInSync keeps ../BENCHMARK.json in step with the tables the
// program prints from.
func TestSpecInSync(t *testing.T) {
	var spec struct {
		specFile
		PerLayer  []specMetric `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", spec.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	for _, m := range spec.EndToEnd {
		if strings.HasPrefix(m.Name, "v_") && m.Bound != 1e-12 {
			t.Errorf("%s: bound %v, a virtual metric's is 1e-12 (exact)", m.Name, m.Bound)
		}
	}
	check("per_layer", spec.PerLayer, perLayer)
}

// TestIQR pins the quartile method to Python's statistics.quantiles, which
// the benchmark's acceptance uses.
func TestIQR(t *testing.T) {
	// quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := iqrPct(xs); math.Abs(got-100) > 1e-9 {
		t.Errorf("iqrPct = %v, want 100", got)
	}
	// quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := iqrPct([]float64{4, 1, 2}); math.Abs(got-150) > 1e-9 {
		t.Errorf("iqrPct = %v, want 150", got)
	}
	if got := iqrPct([]float64{3}); got != 0 {
		t.Errorf("iqrPct of one value = %v", got)
	}
}

func testDoc(e2e map[string]float64, iqr map[string]float64, failed uint64) *document {
	d := &document{Workloads: map[string]*docWorkload{}}
	for _, w := range workloads {
		m := map[string]value{}
		for k, v := range e2e {
			m[k] = value{Value: v}
		}
		d.Workloads[w.name] = &docWorkload{EndToEnd: m, RoundIQRPct: iqr, Failed: failed, Fingerprint: "f"}
	}
	return d
}

// TestCompare judges hand-made documents: exact for virtual metrics, a
// band for host metrics, the floor for setup_s, unresolved when a
// run's own spread exceeds the bound.
func TestCompare(t *testing.T) {
	spec := &specFile{EndToEnd: []specMetric{
		{Name: "setup_s", Better: "lower", Bound: 0.25},
		{Name: "radix_host_s", Better: "lower", Bound: 0.10},
		{Name: "base_host_s", Better: "lower", Bound: 0.10},
		{Name: "radix_host_ns_per_vop", Better: "lower", Bound: 0.10},
		{Name: "radix_alloc_mb", Better: "lower", Bound: 0.02},
		{Name: "radix_mallocs_k", Better: "lower", Bound: 0.02},
		{Name: "v_radix_tput", Better: "higher", Bound: 1e-12},
		{Name: "v_radix_scale_x", Better: "higher", Bound: 1e-12},
	}}
	a := map[string]float64{
		"setup_s": 1.0, "radix_host_s": 2.0, "base_host_s": 1.0, "radix_host_ns_per_vop": 1000,
		"radix_alloc_mb": 100, "radix_mallocs_k": 100, "v_radix_tput": 50, "v_radix_scale_x": 10,
	}
	b := map[string]float64{
		"setup_s":               1.29, // +29 % but inside the 0.3 s floor
		"radix_host_s":          2.3,  // +15 %: worse
		"base_host_s":           0.8,  // -20 %: better
		"radix_host_ns_per_vop": 1050, // +5 %: same
		"radix_alloc_mb":        103,  // +3 % against a 2 % bound: worse
		"radix_mallocs_k":       150,  // +50 % but the runs' own spread is 3 %: unresolved
		"v_radix_tput":          50.0001,
		"v_radix_scale_x":       9.9999,
	}
	iqr := map[string]float64{"radix_mallocs_k": 3}
	want := map[string]string{
		"setup_s": vSame, "radix_host_s": vWorse, "base_host_s": vBetter, "radix_host_ns_per_vop": vSame,
		"radix_alloc_mb": vWorse, "radix_mallocs_k": vUnresolved, "v_radix_tput": vBetter, "v_radix_scale_x": vWorse,
	}
	bounds := map[string]specMetric{}
	for _, s := range spec.EndToEnd {
		bounds[s.Name] = s
	}
	for _, d := range endToEnd {
		if got := judge(d, bounds[d.name], a[d.name], b[d.name], iqr[d.name], 0); got != want[d.name] {
			t.Errorf("%s: %v -> %v judged %s, want %s", d.name, a[d.name], b[d.name], got, want[d.name])
		}
	}

	var out bytes.Buffer
	if compareDocs(&out, spec, testDoc(a, nil, 0), testDoc(a, nil, 0)) {
		t.Errorf("a document compared with itself got worse:\n%s", out.String())
	}
	out.Reset()
	if !compareDocs(&out, spec, testDoc(a, nil, 0), testDoc(b, iqr, 0)) {
		t.Errorf("regressions not reported:\n%s", out.String())
	}
	for _, line := range []string{"radix_host_s", "worse", "unresolved", "better"} {
		if !strings.Contains(out.String(), line) {
			t.Errorf("comparison output lacks %q:\n%s", line, out.String())
		}
	}
	out.Reset()
	if !compareDocs(&out, spec, testDoc(a, nil, 0), testDoc(a, nil, 7)) {
		t.Errorf("new failures not reported as worse:\n%s", out.String())
	}
}
