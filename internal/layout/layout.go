// Package layout synthesizes address-space layouts matching the
// applications the paper snapshots for Table 2 (Firefox, Chrome, Apache,
// MySQL) and measures how much memory each VM representation needs:
// Linux's VMA tree plus hardware page table versus RadixVM's radix tree.
//
// The paper's published numbers fix each app's RSS and VMA-tree size;
// region counts derive from the VMA size (~200 bytes per region in Linux
// 3.5). The generator reproduces those statistics: a few large anonymous
// regions (heap, caches), many medium file regions (libraries), and many
// small regions (stacks, guard-separated arenas), with the paper's
// resident fractions.
package layout

import (
	"math/rand"

	"radixvm/internal/hw"
	"radixvm/internal/linuxvm"
	"radixvm/internal/mem"
	"radixvm/internal/refcache"
	"radixvm/internal/vm"
	"radixvm/internal/workload"
)

// App describes one snapshot target.
type App struct {
	Name    string
	RSSMB   int // paper's resident set
	Regions int // derived from the paper's VMA-tree size / 200 B

	// Paper's measured representation sizes, for the comparison columns.
	PaperVMAKB    int
	PaperPTKB     int
	PaperRadixKB  int
	PaperRadixMul float64 // paper's "(rel. to Linux)" column
}

// Apps is Table 2's application list with the paper's numbers.
func Apps() []App {
	return []App{
		{Name: "Firefox", RSSMB: 352, Regions: 600, PaperVMAKB: 117, PaperPTKB: 1536, PaperRadixKB: 3994, PaperRadixMul: 2.4},
		{Name: "Chrome", RSSMB: 152, Regions: 635, PaperVMAKB: 124, PaperPTKB: 1126, PaperRadixKB: 2458, PaperRadixMul: 2.0},
		{Name: "Apache", RSSMB: 16, Regions: 225, PaperVMAKB: 44, PaperPTKB: 368, PaperRadixKB: 616, PaperRadixMul: 1.5},
		{Name: "MySQL", RSSMB: 84, Regions: 92, PaperVMAKB: 18, PaperPTKB: 348, PaperRadixKB: 980, PaperRadixMul: 2.7},
	}
}

// Region is one mapped range of the synthetic layout.
type Region struct {
	VPN      uint64
	Pages    uint64
	Resident uint64 // pages actually faulted in
}

// Generate builds a layout with the app's region count whose resident
// pages sum to the app's RSS. Region sizes follow the usual address space
// mix: one or two big heaps, a body of library-sized file mappings, and a
// tail of small anonymous regions.
func Generate(app App, seed int64) []Region {
	rng := rand.New(rand.NewSource(seed))
	rssPages := uint64(app.RSSMB) * 256 // MB -> 4 KB pages

	regions := make([]Region, 0, app.Regions)
	// Big anonymous regions carry 60% of RSS in 2 regions.
	bigShare := rssPages * 6 / 10
	nBig := 2
	// Library-like file regions: 60% of the count, 30% of RSS.
	nLib := app.Regions * 6 / 10
	libShare := rssPages * 3 / 10
	// Small anonymous regions: the rest of count and RSS.
	nSmall := app.Regions - nBig - nLib
	smallShare := rssPages - bigShare - libShare

	vpn := uint64(1) << 22 // start of the synthetic layout
	place := func(pages, resident uint64) {
		if resident > pages {
			resident = pages
		}
		regions = append(regions, Region{VPN: vpn, Pages: pages, Resident: resident})
		// Gap between regions, as real layouts have (ASLR, guards).
		vpn += pages + uint64(rng.Intn(64)+16)
	}
	for i := 0; i < nBig; i++ {
		res := bigShare / uint64(nBig)
		place(res*3/2, res) // heaps are ~2/3 resident
	}
	for i := 0; i < nLib; i++ {
		res := libShare / uint64(nLib)
		if res == 0 {
			res = 1
		}
		place(res*3, res) // libraries are sparsely resident
	}
	for i := 0; i < nSmall; i++ {
		res := smallShare / uint64(nSmall)
		if res == 0 {
			res = 1
		}
		place(res+uint64(rng.Intn(8)), res)
	}
	return regions
}

// Measurement reports both representations for one app.
type Measurement struct {
	App        App
	Regions    int
	RSSPages   uint64
	VMABytes   uint64 // Linux: region objects
	LinuxPT    uint64 // Linux: shared hardware page table
	RadixBytes uint64 // RadixVM: radix tree (subsumes the page table)
	RadixMul   float64
	RSSShare   float64 // radix tree as a fraction of RSS
}

// Measure instantiates the layout in a Linux-like address space and a
// RadixVM address space on single-core machines, faults in the resident
// pages, and reads off each representation's footprint.
func Measure(app App, seed int64) Measurement {
	regions := Generate(app, seed)

	// Linux representation.
	lm := hw.NewMachine(hw.TestConfig(1))
	lrc := refcache.New(lm)
	lsys := linuxvm.New(lm, lrc, mem.NewAllocator(lm, lrc))
	populate(lm.CPU(0), lsys, regions)

	// RadixVM representation.
	rm := hw.NewMachine(hw.TestConfig(1))
	rrc := refcache.New(rm)
	ras := vm.New(rm, rrc, mem.NewAllocator(rm, rrc), nil)
	populate(rm.CPU(0), ras, regions)

	var rss uint64
	for _, r := range regions {
		rss += r.Resident
	}
	meas := Measurement{
		App:        app,
		Regions:    len(regions),
		RSSPages:   rss,
		VMABytes:   uint64(lsys.Regions()) * linuxvm.VMABytes,
		LinuxPT:    lsys.PageTableBytes(),
		RadixBytes: ras.Tree().Bytes(),
	}
	meas.RadixMul = float64(meas.RadixBytes) / float64(meas.VMABytes+meas.LinuxPT)
	meas.RSSShare = float64(meas.RadixBytes) / float64(rss*4096)
	return meas
}

func populate(c *hw.CPU, sys vm.System, regions []Region) {
	for _, r := range regions {
		workload.Populate(sys, c, r.VPN, r.Pages, r.Resident)
	}
}
