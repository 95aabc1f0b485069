package tlb

import "testing"

// The TLB's host cost with 1 024 translations resident — a core that has
// faulted in a few MB, two thirds of DefaultCapacity — at the page stride a
// sequential fill leaves behind.

const resident = 1024

func residentTLB() *TLB {
	tl := New(0)
	for vpn := uint64(0); vpn < resident; vpn++ {
		tl.Insert(vpn, Entry{PFN: vpn, Readable: true})
	}
	return tl
}

var sink Entry

// BenchmarkTLBLookupHit: the first step of every simulated access.
func BenchmarkTLBLookupHit(b *testing.B) {
	tl := residentTLB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, _ = tl.Lookup(uint64(i) % resident)
	}
}

// BenchmarkTLBLookupMiss: the first step of every fault.
func BenchmarkTLBLookupMiss(b *testing.B) {
	tl := residentTLB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, _ = tl.Lookup(resident + uint64(i)%resident)
	}
}

// BenchmarkTLBInsertFlush: a fault's fill and the munmap's INVLPG that ends
// it, beside the resident set. One op is one Insert plus one FlushPage.
func BenchmarkTLBInsertFlush(b *testing.B) {
	tl := residentTLB()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := resident + uint64(i)%64
		tl.Insert(vpn, Entry{PFN: vpn, Readable: true, Writable: true})
		tl.FlushPage(vpn)
	}
}
