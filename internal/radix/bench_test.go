package radix

import "testing"

// Host and virtual cost of the two paths that give a node its groups other
// than one line at a time: a lazy fork's child copying a leaf on first touch,
// and the first range lock over a freshly expanded leaf. vcycles/op is the
// simulated cost of the timed part, which no host-side change may move.

// benchDiverge times fork → first touch of page vpn → release against the
// forkSource parent.
func benchDiverge(b *testing.B, pick func(full, sparse uint64) uint64) {
	m, rc, tr, full, sparse, _ := forkSource(b)
	c := m.CPU(0)
	vpn := pick(full, sparse)
	// Warm up: the first child builds whatever later ones share.
	for i := 0; i < 2; i++ {
		child := tr.ForkLazy(c)
		child.LockPage(c, vpn).Unlock()
		child.Release(c)
		rc.FlushAll()
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := c.Now()
	for i := 0; i < b.N; i++ {
		child := tr.ForkLazy(c)
		child.LockPage(c, vpn).Unlock()
		child.Release(c)
		rc.FlushAll()
	}
	b.ReportMetric(float64(c.Now()-start)/float64(b.N), "vcycles/op")
}

// BenchmarkDivergeLeafFull: the copied leaf has all 128 groups (the fleet
// template's shape).
func BenchmarkDivergeLeafFull(b *testing.B) {
	benchDiverge(b, func(full, _ uint64) uint64 { return full + 7 })
}

// BenchmarkDivergeLeafSparse: the copied leaf holds three groups' worth of
// pages and no fill.
func BenchmarkDivergeLeafSparse(b *testing.B) {
	benchDiverge(b, func(_, sparse uint64) uint64 { return sparse + 5 })
}

// BenchmarkLockRangeUniform64: the first 64-page range lock of a freshly
// expanded uniform leaf, which materializes the sixteen groups it walks. Only
// the lock and unlock are timed; building and tearing down the leaf are not.
func BenchmarkLockRangeUniform64(b *testing.B) {
	m, rc, tr := newTree(1)
	c := m.CPU(0)
	tr.LockRange(c, span(1)+64, span(1)+128).Unlock() // grow the cached Range
	var cycles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := tr.LockRange(c, 0, span(1))
		r.Entry(0).SetClone(&val{x: 5})
		r.Unlock()
		tr.LockPage(c, 3).Unlock() // expands the fold into a uniform leaf
		b.StartTimer()

		start := c.Now()
		tr.LockRange(c, 64, 128).Unlock()
		cycles += c.Now() - start

		b.StopTimer()
		clearRange(tr, c, 0, span(1))
		quiesce(rc) // the leaf is reclaimed; the next one starts uniform
		b.StartTimer()
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "vcycles/op")
}
