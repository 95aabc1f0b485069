package hw

// The cycle meter: every cycle a core's clock gains is charged to exactly one
// Cause, so a curve that bends can be read off as the cause that grew. A core
// keeps one fixed counter per cause (the meter allocates nothing), and the
// counters sum to the clock's advance since the last ResetStats
// (CPU.Elapsed), which the determinism tests assert on every core.

// Cause is what a core's clock advanced for.
type Cause uint8

const (
	CauseOp        Cause = iota // op work: the VM layers' own modeled compute
	CauseThink                  // a workload's own time between ops (fleet quantum, WBGap, Metis map/reduce)
	CauseLineHit                // a line touch served from the local cache
	CauseLineXfer               // a line transfer from another core's cache
	CauseColdFill               // a first-touch DRAM fill
	CauseLineQueue              // waiting for a line's home-node queue
	CauseLockWait               // waiting out a Lock or RWLock holder
	CauseSlotWait               // waiting out a radix slot lock bit's holder
	CauseDiverge                // a copy of a frozen node waiting out an earlier copy: none since such copies only read (radix.linkCopy)
	CauseIPISend                // initiating an interrupt round and delivering it
	CauseIPIAck                 // waiting for an interrupt round's acknowledgments
	CauseMailbox                // running remote handlers (mailbox folds)
	CauseSwitch                 // context switches between procs
	CauseIdle                   // a core with nothing to run: scheduler sleeps and barrier waits
	CauseHandoff                // a workload's cross-core causality (AdvanceTo)
	CausePageZero               // zeroing a page: a frame, or a radix node
	CauseMetaCopy               // copying metadata at fork: radix nodes, VMAs, PTEs
	NCause
)

var causeNames = [NCause]string{
	"op", "think", "line hit", "line xfer", "cold fill", "line queue",
	"lock wait", "slot wait", "divergence wait",
	"ipi send", "ipi ack", "mailbox", "switch", "idle", "hand-off",
	"page zero", "meta copy",
}

func (k Cause) String() string { return causeNames[k] }

// Cycles counts virtual cycles by cause.
type Cycles [NCause]uint64

// Total returns the cycles summed over every cause.
func (y *Cycles) Total() uint64 {
	var t uint64
	for _, n := range y {
		t += n
	}
	return t
}

// Cycles returns the cycles core c has been charged since ResetStats, by
// cause. Mailbox messages already due are folded first, as by Now.
func (c *CPU) Cycles() Cycles {
	c.Now()
	return c.cycles
}

// Elapsed returns how far core c's clock has advanced since ResetStats: what
// its Cycles sum to.
func (c *CPU) Elapsed() uint64 { return c.Now() - c.base }

// Cycles sums every core's Cycles.
func (m *Machine) Cycles() Cycles {
	var t Cycles
	for _, c := range m.cpus {
		y := c.Cycles()
		for k, n := range y {
			t[k] += n
		}
	}
	return t
}
