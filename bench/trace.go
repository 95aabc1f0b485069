package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"radixvm/internal/hw"
	"radixvm/internal/vm"
)

// span is one call into a vm.System, on both clocks. Its parent is the
// leg's own span. Under the deterministic gang one goroutine runs at a
// time and members yield only between ops, so spans never overlap and the
// leg's self time — workload driver, hw.Sched, the det gang's hand-offs,
// refcache.Maintain — is the leg's duration minus the spans'.
type span struct {
	op     uint8
	core   uint8
	h0, h1 int64  // host ns since the leg began
	v0, v1 uint64 // the calling core's virtual clock
}

// maxSpans bounds the span memory of one leg (40 B each). The largest leg,
// local on radixvm, makes 1.16 M calls.
const maxSpans = 1 << 21

// traceFileSpans caps what one leg contributes to the Chrome trace file.
const traceFileSpans = 20000

// legTrace is what one traced leg recorded.
type legTrace struct {
	host  time.Duration
	spans []span
	// ptBytes sums PageTableBytes over the address spaces still alive when
	// the leg ended: the root and every forked child that has not exited.
	ptBytes uint64
}

// tracer records spans for the leg being run. The span buffer is allocated
// once and reused; each leg's spans are copied out at its end.
type tracer struct {
	buf  []span
	t0   time.Time
	leg  leg
	live map[vm.System]struct{}
	legs [nLegs]legTrace
}

func newTracer(spans int) *tracer {
	return &tracer{buf: make([]span, 0, spans), live: map[vm.System]struct{}{}}
}

func (t *tracer) begin(t0 time.Time) { t.t0 = t0 }

func (t *tracer) end(host time.Duration) {
	lt := &t.legs[t.leg]
	lt.host = host
	lt.spans = append([]span(nil), t.buf...)
	lt.ptBytes = 0
	for sys := range t.live {
		lt.ptBytes += sys.PageTableBytes()
	}
	t.buf = t.buf[:0]
	clear(t.live)
}

// record appends a span; past the buffer's capacity the leg's tail goes
// unrecorded and shows up as self time (no committed size reaches maxSpans).
func (t *tracer) record(op uint8, c *hw.CPU, h0 time.Time, v0 uint64) {
	if len(t.buf) == cap(t.buf) {
		return
	}
	t.buf = append(t.buf, span{
		op: op, core: uint8(c.ID()),
		h0: int64(h0.Sub(t.t0)), h1: int64(time.Since(t.t0)),
		v0: v0, v1: c.Now(),
	})
}

// traced is the interposed vm.System. It forwards every call to the
// wrapped system and records a span around the five calls the workloads
// make. Reading the core's clock at a call boundary is harmless: CPU.Now
// only folds mailbox messages that are already due, which the op's own
// first clock access would fold identically.
type traced struct {
	vm.System
	t *tracer
}

// tracedLazy is the decorator for a system that also offers whole-space
// exit and the lazy-fork switch. Only radixvm does, and it offers both, so
// a wrapped baseline keeps taking the workloads' munmap-sweep path exactly
// as it does unwrapped.
type tracedLazy struct {
	traced
	inner lazyExiter
}

type lazyExiter interface {
	vm.Exiter
	SetForkEager(bool)
}

func (t *tracer) wrap(sys vm.System) vm.System {
	t.live[sys] = struct{}{}
	w := traced{System: sys, t: t}
	if le, ok := sys.(lazyExiter); ok {
		return &tracedLazy{traced: w, inner: le}
	}
	return &w
}

func (s *traced) Mmap(c *hw.CPU, vpn, n uint64, opts vm.MapOpts) error {
	h0, v0 := time.Now(), c.Now()
	err := s.System.Mmap(c, vpn, n, opts)
	s.t.record(opMmap, c, h0, v0)
	return err
}

func (s *traced) Munmap(c *hw.CPU, vpn, n uint64) error {
	h0, v0 := time.Now(), c.Now()
	err := s.System.Munmap(c, vpn, n)
	s.t.record(opMunmap, c, h0, v0)
	return err
}

func (s *traced) Access(c *hw.CPU, vpn uint64, write bool) error {
	h0, v0 := time.Now(), c.Now()
	err := s.System.Access(c, vpn, write)
	s.t.record(opAccess, c, h0, v0)
	return err
}

func (s *traced) Fork(c *hw.CPU) (vm.System, error) {
	h0, v0 := time.Now(), c.Now()
	child, err := s.System.Fork(c)
	s.t.record(opFork, c, h0, v0)
	if err != nil {
		return nil, err
	}
	return s.t.wrap(child), nil
}

func (s *tracedLazy) Exit(c *hw.CPU) {
	h0, v0 := time.Now(), c.Now()
	s.inner.Exit(c)
	s.t.record(opExit, c, h0, v0)
	delete(s.t.live, s.System)
}

func (s *tracedLazy) SetForkEager(eager bool) { s.inner.SetForkEager(eager) }

// opStats summarises one op's spans in one leg.
type opStats struct {
	count    int
	host     time.Duration
	p50, p99 float64 // host ns
	vcycMean float64
}

// stats reduces a leg's spans to per-op statistics and the leg's self
// time.
func (lt *legTrace) stats() (ops [nOps]opStats, self time.Duration) {
	var durs [nOps][]float64
	var vcyc [nOps]uint64
	self = lt.host
	for _, s := range lt.spans {
		d := s.h1 - s.h0
		durs[s.op] = append(durs[s.op], float64(d))
		ops[s.op].host += time.Duration(d)
		vcyc[s.op] += s.v1 - s.v0
		self -= time.Duration(d)
	}
	for op := range ops {
		d := durs[op]
		if len(d) == 0 {
			continue
		}
		sort.Float64s(d)
		ops[op].count = len(d)
		ops[op].p50 = d[len(d)/2]
		ops[op].p99 = d[len(d)*99/100]
		ops[op].vcycMean = float64(vcyc[op]) / float64(len(d))
	}
	return ops, self
}

// writeChrome writes the traced legs as a Chrome trace (chrome://tracing,
// Perfetto): one process per leg, one thread per simulated core, the leg's
// own span on thread -1, each span's virtual interval in its args. Long
// legs are cut to their first traceFileSpans spans.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	sep := ""
	for l, lt := range t.legs {
		if lt.spans == nil {
			continue
		}
		fmt.Fprintf(w, `%s{"name":"process_name","ph":"M","pid":%d,"args":{"name":%q}}`, sep, l, legNames[l])
		sep = ","
		fmt.Fprintf(w, `,{"name":"leg","ph":"X","pid":%d,"tid":-1,"ts":0,"dur":%.3f,"args":{"spans":%d}}`,
			l, us(int64(lt.host)), len(lt.spans))
		for _, s := range lt.spans[:min(len(lt.spans), traceFileSpans)] {
			fmt.Fprintf(w, `,{"name":"vm.%s","ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"v0":%d,"v1":%d}}`,
				vmOps[s.op], l, s.core, us(s.h0), us(s.h1-s.h0), s.v0, s.v1)
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
