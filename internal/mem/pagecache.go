package mem

import (
	"sort"

	"radixvm/internal/hw"
)

// PageKey identifies one cached file page: which file, which page offset.
// Files are named by IDs the cache itself hands out (NewFileID), so the
// cache never needs to know what a "file" is at the VM layer.
type PageKey struct {
	File uint64 // file ID from NewFileID
	Off  uint64 // page offset within the file
}

// PageCache owns the physical frames behind file-backed mappings, keyed by
// (file, offset) — the role the page cache plays under a real mmap'd file.
// The cache holds each frame's base reference; every mapping of the page
// takes its own reference on top (refcache-counted sharers), so a frame
// dies only when the cache has dropped the page (truncate) AND the last
// mapping has unmapped it.
type PageCache struct {
	alloc *Allocator

	pages map[PageKey]*Frame

	nextFile uint64
	fills    uint64 // pages ever brought into the cache
}

// NewPageCache creates a page cache whose frames come from alloc.
func NewPageCache(alloc *Allocator) *PageCache {
	return &PageCache{alloc: alloc, pages: map[PageKey]*Frame{}}
}

// Allocator returns the cache's frame allocator (mappings take and drop
// their sharer references through it).
func (pc *PageCache) Allocator() *Allocator { return pc.alloc }

// NewFileID names a new file in the cache's keyspace.
func (pc *PageCache) NewFileID() uint64 {
	pc.nextFile++
	return pc.nextFile
}

// Page returns the frame caching k, filling it from the allocator on first
// use (the first faulter fills; later mappers share). The cache keeps the
// base reference; filled reports whether this call brought the page in.
func (pc *PageCache) Page(cpu *hw.CPU, k PageKey) (fr *Frame, filled bool) {
	fr, ok := pc.pages[k]
	if !ok {
		fr = pc.alloc.Alloc(cpu) // the cache's base reference
		pc.pages[k] = fr
		pc.fills++
		filled = true
	}
	return fr, filled
}

// DropRange removes file's pages with offsets in [lo, hi) from the cache
// (truncate), returning the dropped frames in ascending offset order. The
// frames still carry the cache's base reference — the caller must DecRef
// each once, after which any remaining mapping references keep them alive.
func (pc *PageCache) DropRange(file, lo, hi uint64) []*Frame {
	var offs []uint64
	for k := range pc.pages {
		if k.File == file && k.Off >= lo && k.Off < hi {
			offs = append(offs, k.Off)
		}
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	frames := make([]*Frame, 0, len(offs))
	for _, off := range offs {
		k := PageKey{File: file, Off: off}
		frames = append(frames, pc.pages[k])
		delete(pc.pages, k)
	}
	return frames
}

// Pages returns the number of resident cached pages.
func (pc *PageCache) Pages() int {
	return len(pc.pages)
}

// Fills returns the number of pages ever brought into the cache.
func (pc *PageCache) Fills() uint64 {
	return pc.fills
}
