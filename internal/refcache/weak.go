package refcache

import "radixvm/internal/hw"

// The weak reference of §3.1 ("Weak references") is the paper's tagged
// pointer — a pointer marked with a "dying" bit, plus a back-reference from
// the object. Here it is a fixed Obj plus one state word in that Obj: whoever
// holds the Obj (the radix tree's parent slot, for a child node) holds the
// pointer half, and the state word is the tag. The pointer never changes
// within a lifetime — an Obj's identity is fixed — so one word with three
// values (dead, alive, dying) gives the same single-CAS semantics as the
// tagged pointer. The radix tree links parent slots to child nodes this way,
// so that an empty node can be revived if it becomes used again before
// Refcache deletes it.
const (
	weakDead  uint32 = iota // the paper's ⟨null, false⟩; the zero value
	weakAlive               // ⟨obj, false⟩
	weakDying               // ⟨obj, true⟩
)

// TryGet attempts to take a reference to o through its weak reference: it
// either increments the object's count (reviving it if its global count
// touched zero) and returns o, or returns nil if the object has already
// been deleted. The common path — object alive, not dying — is a pure read
// of the weak line, so concurrent TryGets of a healthy object do not
// contend.
func (rc *Refcache) TryGet(cpu *hw.CPU, o *Obj) *Obj {
	switch o.weak {
	case weakDead:
		cpu.Read(&o.weakLine)
		return nil
	case weakAlive:
		cpu.Read(&o.weakLine)
	default: // revive: clear the dying bit, then take a reference as usual
		o.weak = weakAlive
		cpu.Write(&o.weakLine)
	}
	rc.Inc(cpu, o)
	return o
}

// setDying sets or clears the dying bit, leaving the pointer intact. No-op
// if the object is already dead or the bit already has that value. The state
// is a word in the object, so objects cycling through zero (the shared-page
// Figure 8 workload, frame churn in the local workload) stay off the heap.
func (o *Obj) setDying(cpu *hw.CPU, dying bool) {
	from, to := weakAlive, weakDying
	if !dying {
		from, to = to, from
	}
	if o.weak == from {
		o.weak = to
		cpu.Write(&o.weakLine)
	}
}

// tryKill attempts the paper's deletion CAS: ⟨obj, true⟩ → ⟨null, false⟩.
// It succeeds only if the dying bit is still set, i.e. no TryGet revived the
// object since zero detection — and so at most once per lifetime, since
// nothing but InitObj leaves the dead state.
func (o *Obj) tryKill(cpu *hw.CPU) bool {
	if o.weak != weakDying {
		return false
	}
	o.weak = weakDead
	cpu.Write(&o.weakLine)
	return true
}
