// Package metis reimplements the Metis single-server MapReduce workload
// the paper evaluates (§5.2): a multithreaded word-position index over an
// in-memory text file, running on a custom no-contention allocator
// (internal/falloc) whose allocation unit decides whether the job stresses
// mmap (64 KB blocks) or pagefault (8 MB blocks).
//
// The corpus is synthetic and deterministic: each map chunk draws word IDs
// from a seeded generator, so the final index (distinct words, total
// positions, checksum) is reproducible and validated by tests. All buffer
// memory is carved from the simulated VM — every buffer page is written
// through vm.System.Access, so the workload exercises mmap/pagefault
// exactly as the real Metis exercises the kernel.
package metis

import (
	"fmt"

	"radixvm/internal/falloc"
	"radixvm/internal/hw"
	"radixvm/internal/vm"
	"radixvm/internal/workload"
)

// PageBytes is the simulated page size.
const PageBytes = 4096

// EntryBytes is one (word, position-list chunk) record in an intermediate
// buffer. Metis stores position lists, not bare counts, so records are
// sizable — this is what makes the real job allocate 38 GB and fault ~12M
// pages (§5.2); the value keeps our scaled-down job's ratio of page
// faults to compute realistic.
const EntryBytes = 128

// Config parameterizes a Metis job.
type Config struct {
	Words      int    // corpus length in words
	Vocab      int    // vocabulary size
	BlockPages uint64 // falloc allocation unit (2048 = the paper's 8 MB, 16 = 64 KB)
	ChunkPages uint64 // intermediate buffer growth quantum
	Seed       uint64
	MapCost    uint64 // cycles to parse/hash one word
	ReduceCost uint64 // cycles to merge one entry
}

// DefaultConfig is a laptop-scale job preserving the paper's ratios
// (millions of entries through the allocator, page-grain buffer writes).
func DefaultConfig() Config {
	return Config{
		Words:      1_000_000,
		Vocab:      10_000,
		BlockPages: 2048,
		ChunkPages: 4,
		Seed:       42,
		MapCost:    25,
		ReduceCost: 15,
	}
}

// Result reports one job.
type Result struct {
	System      string
	Cores       int
	Cycles      uint64
	Words       int
	Distinct    int    // distinct words in the index
	Checksum    uint64 // order-independent digest of (word, position) pairs
	Mmaps       uint64
	PageFaults  uint64
	JobsPerHour float64
}

func (r Result) String() string {
	return fmt.Sprintf("metis    %-8s %2d cores: %8.1f jobs/hour (%d mmaps, %d faults)",
		r.System, r.Cores, r.JobsPerHour, r.Mmaps, r.PageFaults)
}

// buffer is an intermediate spill buffer in simulated memory.
type buffer struct {
	vpn      uint64
	pages    uint64
	bytes    uint64
	lastPage uint64 // last simulated page touched (0 = none)
	entries  []entry
}

type entry struct {
	word uint32
	pos  uint32
}

// emit appends one record, touching simulated memory when the record
// crosses into a fresh page.
func (b *buffer) emit(sys vm.System, c *hw.CPU, e entry) {
	b.entries = append(b.entries, e)
	b.bytes += EntryBytes
	page := b.vpn + (b.bytes-1)/PageBytes
	if page != b.lastPage {
		workload.Check(sys, c, "access", page, sys.Access(c, page, true))
		b.lastPage = page
	}
}

func (b *buffer) full() bool { return b.bytes+EntryBytes > b.pages*PageBytes }

// wordGen deterministically generates the corpus chunk for one mapper:
// a xorshift stream mapped onto the vocabulary with a squared skew so some
// words are hot, like natural text.
type wordGen struct {
	state uint64
	vocab uint64
}

func (g *wordGen) next() uint32 {
	g.state ^= g.state << 13
	g.state ^= g.state >> 7
	g.state ^= g.state << 17
	r := g.state % (g.vocab * g.vocab)
	// Inverse of the square gives a gently skewed distribution.
	lo, hi := uint64(0), g.vocab
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if mid*mid <= r {
			lo = mid
		} else {
			hi = mid
		}
	}
	return uint32(lo)
}

// Run executes the word-position-index job on cores cores of env over sys.
func Run(env *workload.Env, sys vm.System, cores int, cfg Config) Result {
	if cfg.ChunkPages == 0 {
		cfg.ChunkPages = 4
	}
	fa := falloc.New(sys, env.M.NCores(), cfg.BlockPages)
	// buckets[m][r] = mapper m's spill buffers destined for reducer r.
	buckets := make([][][]*buffer, cores)
	for m := range buckets {
		buckets[m] = make([][]*buffer, cores)
	}
	partial := make([]map[uint32]*posList, cores)

	env.M.ResetStats()
	start := env.M.MaxClock()
	bar := hw.NewBarrier(cores)
	perCore := cfg.Words / cores

	job := func(tc *hw.Ctx) {
		c := tc.CPU()
		id := c.ID()
		// --- Map phase: parse the chunk, spill (word, pos) by bucket.
		gen := wordGen{state: cfg.Seed + uint64(id)*0x9E3779B97F4A7C15, vocab: uint64(cfg.Vocab)}
		cur := make([]*buffer, cores)
		for i := 0; i < perCore; i++ {
			w := gen.next()
			pos := uint32(id*perCore + i)
			r := int(w) % cores
			b := cur[r]
			if b == nil || b.full() {
				vpn, err := fa.Alloc(c, cfg.ChunkPages)
				workload.Check(sys, c, "falloc", vpn, err)
				b = &buffer{vpn: vpn, pages: cfg.ChunkPages}
				cur[r] = b
				buckets[id][r] = append(buckets[id][r], b)
			}
			b.emit(sys, c, entry{word: w, pos: pos})
			c.TickAs(hw.CauseThink, cfg.MapCost)
			// Yield tightly: the schedule must interleave cores at fault
			// granularity or one core's burst of faults keeps the
			// address-space lock line locally owned, hiding the
			// contention the real machine would see.
			if i%32 == 0 {
				env.RC.Maintain(c)
				tc.Yield()
			}
		}
		tc.Wait(bar)

		// --- Reduce phase: merge every mapper's bucket id.
		out := map[uint32]*posList{}
		var outBuf *buffer
		for m := 0; m < cores; m++ {
			for _, b := range buckets[m][id] {
				// Stream the buffer in: one access per page, which
				// on RadixVM faults into this core's page table
				// (the paper's pairwise Map->Reduce sharing).
				for p := b.vpn; p <= b.vpn+(b.bytes-1)/PageBytes; p++ {
					workload.Check(sys, c, "access", p, sys.Access(c, p, false))
				}
				for j, e := range b.entries {
					if j%32 == 0 {
						tc.Yield()
					}
					pl := out[e.word]
					if pl == nil {
						pl = &posList{}
						out[e.word] = pl
					}
					pl.count++
					pl.digest = pl.digest*1099511628211 ^ uint64(e.pos)
					// The output index also lives in simulated
					// memory.
					if outBuf == nil || outBuf.full() {
						vpn, err := fa.Alloc(c, cfg.ChunkPages)
						workload.Check(sys, c, "falloc", vpn, err)
						outBuf = &buffer{vpn: vpn, pages: cfg.ChunkPages}
					}
					outBuf.bytes += EntryBytes
					page := outBuf.vpn + (outBuf.bytes-1)/PageBytes
					if page != outBuf.lastPage {
						workload.Check(sys, c, "access", page, sys.Access(c, page, true))
						outBuf.lastPage = page
					}
					c.TickAs(hw.CauseThink, cfg.ReduceCost)
				}
				// Like the real Metis, buffers live until the job
				// ends (the allocator never returns memory anyway,
				// §5.1); freeing mid-job would let output buffers
				// reuse already-faulted pages and hide the very
				// fault traffic Figure 4 measures.
				env.RC.Maintain(c)
				tc.Yield()
			}
		}
		partial[id] = out
		tc.Wait(bar)
	}
	// One pinned proc per core on the process scheduler, the same shape as
	// workload.run: the job runs under the deterministic schedule, so
	// Figure 4 is a pure function of virtual time like every other figure.
	s := hw.NewSched(0)
	for i := 0; i < cores; i++ {
		s.Spawn(i, job)
	}
	s.Run(env.M, cores, 2000)

	cycles := env.M.MaxClock() - start
	distinct := 0
	var checksum uint64
	total := 0
	for _, out := range partial {
		distinct += len(out)
		for w, pl := range out {
			total += pl.count
			checksum ^= uint64(w)*2654435761 + pl.digest
		}
	}
	stats := env.M.TotalStats()
	return Result{
		System:      sys.Name(),
		Cores:       cores,
		Cycles:      cycles,
		Words:       total,
		Distinct:    distinct,
		Checksum:    checksum,
		Mmaps:       stats.Mmaps,
		PageFaults:  stats.PageFaults,
		JobsPerHour: 3600 * 2.4e9 / float64(cycles),
	}
}

type posList struct {
	count  int
	digest uint64
}
