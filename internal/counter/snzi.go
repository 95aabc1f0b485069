package counter

import "radixvm/internal/hw"

// SNZI implements the Scalable NonZero Indicator of Ellen, Lev, Luchangco,
// and Moir (PODC 2007), the strongest published scalable counter the paper
// benchmarks against in Figure 8. A SNZI is a tree: each core arrives at
// its own leaf, and only 0↔nonzero transitions propagate toward the root.
// When a single object's count oscillates around zero — exactly the
// map/unmap-a-shared-page workload — every operation still climbs to the
// root, which is why the paper measures SNZI hitting a scalability knee
// near 10 cores.
//
// Node state is the algorithm's (c, v) pair packed into one word:
// c counts surplus arrivals in half units (so c=1 represents the transient
// "½" state), and v is the version number that makes helping safe.
type SNZI struct {
	root   *snziNode
	leaves []*snziNode // one per core
}

type snziNode struct {
	state  uint64 // low 32 bits: 2*c (half units); high 32: version
	parent *snziNode
	line   hw.Line
}

const snziHalf = 1 // c is stored in half units: ½ == 1, 1 == 2

func snziPack(c uint32, v uint32) uint64 { return uint64(v)<<32 | uint64(c) }
func snziUnpack(s uint64) (c uint32, v uint32) {
	return uint32(s), uint32(s >> 32)
}

// NewSNZI builds a binary SNZI tree for machine m — the shape Ellen et
// al. evaluate: one leaf per core, pairs merging level by level up to the
// root, so an arrival climbing from a quiet leaf touches O(log n)
// potentially contended nodes. initial arrivals are applied at leaf 0.
func NewSNZI(m *hw.Machine, initial int64) *SNZI {
	n := m.NCores()
	level := make([]*snziNode, n)
	for i := range level {
		level[i] = &snziNode{}
	}
	s := &SNZI{leaves: append([]*snziNode(nil), level...)}
	for len(level) > 1 {
		next := make([]*snziNode, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			p := &snziNode{}
			level[i].parent = p
			if i+1 < len(level) {
				level[i+1].parent = p
			}
			next = append(next, p)
		}
		level = next
	}
	s.root = level[0]
	for j := int64(0); j < initial; j++ {
		s.Inc(m.CPU(0))
	}
	return s
}

// Inc arrives at cpu's leaf.
func (s *SNZI) Inc(cpu *hw.CPU) {
	s.arrive(cpu, s.leaves[cpu.ID()])
}

// Dec departs from cpu's leaf. Arrivals and departures must be performed by
// the same core in this simplified harness (true of the Figure 8 workload,
// where each core maps and unmaps its own region).
func (s *SNZI) Dec(cpu *hw.CPU) {
	s.depart(cpu, s.leaves[cpu.ID()])
}

// Zero reports whether the indicator shows zero.
func (s *SNZI) Zero() bool {
	c, _ := snziUnpack(s.root.state)
	return c == 0
}

// Name implements Counter.
func (s *SNZI) Name() string { return "snzi" }

// arrive implements SNZI.Arrive on node n (Ellen et al., Figure 4). The
// algorithm's CASes need no compare where nothing runs between the read of
// the state and its update; the one after the recursive arrival at the parent
// (whose line touches are preemption points) keeps its compare.
func (s *SNZI) arrive(cpu *hw.CPU, n *snziNode) {
	undoArr := 0
	for succ := false; !succ; {
		cpu.Read(&n.line)
		st := n.state
		c, v := snziUnpack(st)
		if c >= 2*snziHalf { // c >= 1
			n.state = snziPack(c+2*snziHalf, v)
			cpu.Write(&n.line)
			break
		}
		if c == 0 {
			c, v = snziHalf, v+1
			st = snziPack(c, v)
			n.state = st
			cpu.Write(&n.line)
			succ = true
		}
		if c == snziHalf { // the transient ½ state: propagate up
			if n.parent != nil {
				s.arrive(cpu, n.parent)
			}
			if n.state != st {
				undoArr++
			} else {
				n.state = snziPack(2*snziHalf, v)
				cpu.Write(&n.line)
			}
		}
	}
	for ; undoArr > 0; undoArr-- {
		if n.parent != nil {
			s.depart(cpu, n.parent)
		}
	}
}

// depart implements SNZI.Depart on node n.
func (s *SNZI) depart(cpu *hw.CPU, n *snziNode) {
	cpu.Read(&n.line)
	c, v := snziUnpack(n.state)
	if c < 2*snziHalf {
		panic("counter: SNZI depart without matching arrive")
	}
	n.state = snziPack(c-2*snziHalf, v)
	cpu.Write(&n.line)
	if c == 2*snziHalf && n.parent != nil { // 1 -> 0
		s.depart(cpu, n.parent)
	}
}
