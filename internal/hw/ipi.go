package hw

// SendIPIs models a TLB-shootdown interrupt round from core c to targets.
// For each target core the handler function is executed (by the sender,
// by proxy — functional effects are synchronous, which keeps page-table and
// TLB state coherent for the ack that follows) while the handler *cost* is
// mailed to the target stamped with its virtual arrival time: the sender's
// send time plus the serialized per-target delivery latency accumulated in
// ascending core-ID order. The target folds the cost into its own clock
// when its virtual time crosses the stamp (see CPU.DeliverAt), so where the
// cycles land depends only on virtual-time order, not on the order the
// schedule ran the senders in.
// The sender pays the APIC initiation cost, a serialized per-target
// delivery cost (the paper observes that "the protocol used by the APIC
// hardware to transmit the inter-processor interrupts ... appears to be
// non-scalable", §5.3), and an acknowledgment wait.
//
// Delivery cost is two-tier, like line transfers: a target on the sender's
// socket is reached over the on-chip interconnect, a remote target over
// the cross-socket fabric at Config.IPIPerTargetRemote (and its ack at
// Config.IPIAckWaitRemote). This is what makes broadcast shootdowns grow
// with the machine rather than with the idea of a shootdown: on one socket
// an 8-target round costs tens of kilocycles, while a 79-target broadcast
// on the paper's 8-socket machine — where ~70 targets are remote — costs
// ~500k cycles, the number the paper measures (§5.3).
//
// The sender is never included even if present in targets: the caller
// handles its own core synchronously.
//
// Returns the number of remote cores interrupted.
func (c *CPU) SendIPIs(targets CoreSet, handler func(target *CPU)) int {
	targets.Remove(c.id)
	n := targets.Count()
	if n == 0 {
		return 0
	}
	cfg := &c.m.cfg
	near := targets
	near.intersect(&c.m.sockets[c.Socket()])
	nNear := uint64(near.Count())
	nFar := uint64(n) - nNear
	start := c.Now()
	c.TickAs(CauseIPISend, cfg.IPIBase+nNear*cfg.IPIPerTarget+nFar*cfg.IPIPerTargetRemote)
	// Each target's interrupt arrives when the serialized APIC protocol
	// reaches it: initiation plus the delivery costs of every earlier
	// target in core-ID order.
	stamp := start + cfg.IPIBase
	targets.ForEach(func(id int) {
		t := c.m.CPU(id)
		if near.Has(id) {
			stamp += cfg.IPIPerTarget
		} else {
			stamp += cfg.IPIPerTargetRemote
		}
		handler(t)
		t.DeliverAt(stamp, cfg.IPIHandler)
	})
	// Wait for acknowledgments; acks arrive roughly in parallel but each
	// costs the sender a serialized receive.
	c.TickAs(CauseIPIAck, nNear*cfg.IPIAckWait+nFar*cfg.IPIAckWaitRemote)
	c.stats.IPIsSent += uint64(n)
	c.stats.IPIsRemote += nFar
	return n
}
