// Package app contains everything above the simulated kernel's
// syscall layer: the network fabric connecting machines, the
// synthetic load generator (an http_load work-alike) and backend
// server (infinite-capacity peers, so the machine under test is the
// bottleneck, as in the paper's testbed), and the two benchmark
// applications — an Nginx-like web server and an HAProxy-like proxy —
// implemented against the BSD socket API.
package app

import (
	"fastsocket/internal/fault"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
)

// Endpoint receives packets addressed to its IPs.
type Endpoint interface {
	Deliver(p *netproto.Packet)
}

// Wire is the transmit-side view of the fabric an application holds:
// the whole Network in legacy single-loop mode, or its own domain's
// Port under the sharded engine. Everything an endpoint does to the
// fabric goes through its Wire, so cross-domain effects are funneled
// into the mailbox API by construction.
type Wire interface {
	Send(p *netproto.Packet)
	Attach(ep Endpoint, ips ...netproto.IP)
	// Forget tells the fabric the flow sending on ft will transmit no
	// more, retiring its link-fault occurrence state.
	Forget(ft netproto.FourTuple)
}

// NetworkStats counts fabric activity.
type NetworkStats struct {
	Delivered  uint64
	LostRandom uint64 // dropped by injected loss
	Unroutable uint64 // no endpoint for destination IP
}

// Add merges two fabric snapshots (per-port counters under the
// sharded engine are summed in domain index order).
func (s NetworkStats) Add(o NetworkStats) NetworkStats {
	s.Delivered += o.Delivered
	s.LostRandom += o.LostRandom
	s.Unroutable += o.Unroutable
	return s
}

// Network is the switch fabric: constant one-way delay, optional
// random loss for failure-injection tests, and — when a kernel with a
// fault plan is attached — the deterministic link-fault layer.
//
// It runs in one of two modes. Legacy (NewNetwork): one sim.Loop
// carries every endpoint and Send schedules arrivals directly; this
// is the path all committed experiment outputs were produced on and
// it is byte-identical to the pre-shard fabric. Sharded
// (NewShardedNetwork): endpoints live on shard.Engine domains, each
// domain transmits through its own Port, and cross-domain arrivals
// ride the engine's deterministic mailboxes with the fabric delay as
// the lookahead window.
type Network struct {
	loop      *sim.Loop // legacy mode only
	delay     sim.Time
	endpoints map[netproto.IP]Endpoint
	loss      float64
	rng       *sim.Rand
	faults    *fault.Engine
	stats     NetworkStats
	// deliverFn is the arrival callback shared by every in-flight
	// packet (scheduled via AfterArg, so transmission allocates no
	// per-packet closure). The destination is resolved again at arrival
	// time; the endpoint map is fixed once the run starts.
	deliverFn func(any)

	// Sharded mode.
	eng    *shard.Engine
	domOf  map[netproto.IP]int // destination domain per attached IP
	ports  []*Port             // lazily created, one per domain
	frozen bool                // topology sealed before the engine runs
}

// NewNetwork builds a legacy single-loop fabric with the given
// one-way delay (the paper's testbed is a 10GE LAN; ~25us one-way is
// typical).
func NewNetwork(loop *sim.Loop, delay sim.Time) *Network {
	n := &Network{
		loop:      loop,
		delay:     delay,
		endpoints: map[netproto.IP]Endpoint{},
		rng:       sim.NewRand(0xFAB41C),
	}
	n.deliverFn = func(v any) {
		p := v.(*netproto.Packet)
		if ep, ok := n.endpoints[p.Dst.IP]; ok {
			ep.Deliver(p)
		}
	}
	return n
}

// NewShardedNetwork builds a fabric over the engine's domains. The
// fabric delay must be at least the engine's lookahead, or the first
// cross-domain Send will (correctly) panic as a lookahead violation.
func NewShardedNetwork(eng *shard.Engine, delay sim.Time) *Network {
	n := &Network{
		delay:     delay,
		endpoints: map[netproto.IP]Endpoint{},
		eng:       eng,
		domOf:     map[netproto.IP]int{},
	}
	n.deliverFn = func(v any) {
		p := v.(*netproto.Packet)
		if ep, ok := n.endpoints[p.Dst.IP]; ok {
			ep.Deliver(p)
		}
	}
	return n
}

// Sharded reports whether the fabric rides a shard engine.
func (n *Network) Sharded() bool { return n.eng != nil }

// Freeze seals the sharded topology: after it, Attach panics. The
// harness calls it before the engine's first Run, making the routing
// maps read-only for the whole parallel phase — worker threads only
// ever read them.
func (n *Network) Freeze() { n.frozen = true }

// Stats returns a snapshot of the fabric counters; under the sharded
// engine the per-port counters merge in domain index order.
func (n *Network) Stats() NetworkStats {
	if n.eng == nil {
		return n.stats
	}
	var total NetworkStats
	for _, p := range n.ports {
		if p != nil {
			total = total.Add(p.stats)
		}
	}
	return total
}

// FaultStats merges the link-fault counters across sender views in
// domain index order (legacy mode reports the single engine's).
func (n *Network) FaultStats() fault.Stats {
	if n.eng == nil {
		return n.faults.Stats()
	}
	var total fault.Stats
	for _, p := range n.ports {
		if p != nil {
			total = total.Add(p.faults.Stats())
		}
	}
	return total
}

// SetLoss enables random packet loss with probability p.
func (n *Network) SetLoss(p float64) { n.loss = p }

// Attach registers an endpoint for the given IPs (legacy mode; the
// sharded fabric attaches through a domain's Port so every IP has an
// owning shard).
func (n *Network) Attach(ep Endpoint, ips ...netproto.IP) {
	if n.eng != nil {
		panic("app: sharded fabric requires Port(dom).Attach")
	}
	for _, ip := range ips {
		n.endpoints[ip] = ep
	}
}

// AttachKernel wires a simulated kernel into the fabric: its
// transmit path feeds the network, and its IPs route to its NIC. A
// kernel carrying a fault engine also arms the fabric's link-fault
// layer (one engine per run; the machine under test owns it).
func (n *Network) AttachKernel(k *kernel.Kernel) {
	k.SendToWire = n.Send
	k.ForgetFlow = n.Forget
	n.Attach(k, k.IPs()...)
	if e := k.Faults(); e != nil {
		n.faults = e
	}
}

// Forget retires ft's link-fault occurrence state (see
// fault.Engine.Forget); a no-op on an unarmed fabric.
func (n *Network) Forget(ft netproto.FourTuple) { n.faults.Forget(ft) }

// Send puts a packet on the wire; it arrives after the fabric delay.
// The fault engine may drop, duplicate, delay (reorder), or corrupt
// it first — all wire-side, costing no CPU on either machine.
func (n *Network) Send(p *netproto.Packet) {
	if n.loss > 0 && n.rng.Bool(n.loss) {
		n.stats.LostRandom++
		return
	}
	delay := n.delay
	if n.faults != nil && n.faults.Plan().LinkEnabled() {
		if p.GSOSize > 0 && len(p.Payload) > p.GSOSize {
			// TSO super-segment under an armed link-fault plane: the
			// NIC wire-splits it so fault decisions keep MSS (wire)
			// granularity — identical keys and outcomes to offloads-off.
			sendGSO(n.faults, p, delay, &n.stats.LostRandom, n.deliver)
			return
		}
		switch act, extra := n.faults.LinkAction(p); act {
		case fault.Drop:
			n.stats.LostRandom++
			return
		case fault.Dup:
			// Deliver a distinct copy: with packet pooling the two
			// arrivals are freed independently, so they must not alias.
			d := *p
			n.deliver(&d, delay)
		case fault.Reorder:
			delay += extra
		case fault.Corrupt:
			p = fault.CorruptCopy(p)
		}
	}
	n.deliver(p, delay)
}

// sendGSO puts a TSO super-segment on a faulty wire at wire-segment
// granularity: the fault engine draws one decision per MSS-sized
// chunk, in send order, with the exact keys (tuple, per-chunk Seq,
// flags) and occurrence sequence the offloads-off transmission of the
// same bytes would have used — so drop/dup/reorder/corrupt outcomes
// are segment-for-segment identical with offloads on or off.
// Contiguous runs of unaffected chunks re-aggregate into
// sub-super-segments (the common whole-super case delivers the
// original packet, one arrival, no copies); chunks hit by a fault are
// delivered or dropped individually, exactly like the scalar path.
func sendGSO(e *fault.Engine, p *netproto.Packet, delay sim.Time, lost *uint64, deliver func(*netproto.Packet, sim.Time)) {
	mss := p.GSOSize
	payload := p.Payload
	// flush emits chunks [start, end) as one wire segment (again a
	// super-segment when the run spans several chunks).
	flush := func(start, end int) {
		if start >= end {
			return
		}
		c := *p
		c.Seq = p.Seq + uint32(start)
		c.Payload = payload[start:end]
		c.GSOSize = 0
		if end-start > mss {
			c.GSOSize = mss
		}
		deliver(&c, delay)
	}
	// probe carries only the fields LinkAction keys on; it never
	// escapes, so the per-chunk draw allocates nothing.
	probe := netproto.Packet{Src: p.Src, Dst: p.Dst, Flags: p.Flags, Ack: p.Ack}
	faulted := false
	runStart := 0
	for off := 0; off < len(payload); off += mss {
		end := off + mss
		if end > len(payload) {
			end = len(payload)
		}
		probe.Seq = p.Seq + uint32(off)
		act, extra := e.LinkAction(&probe)
		if act == fault.None {
			continue
		}
		faulted = true
		flush(runStart, off)
		runStart = end
		c := *p
		c.Seq = probe.Seq
		c.Payload = payload[off:end]
		c.GSOSize = 0
		switch act {
		case fault.Drop:
			*lost++
		case fault.Dup:
			d := c
			deliver(&d, delay)
			deliver(&c, delay)
		case fault.Reorder:
			deliver(&c, delay+extra)
		case fault.Corrupt:
			deliver(fault.CorruptCopy(&c), delay)
		}
	}
	if !faulted {
		deliver(p, delay)
		return
	}
	flush(runStart, len(payload))
}

func (n *Network) deliver(p *netproto.Packet, delay sim.Time) {
	if _, ok := n.endpoints[p.Dst.IP]; !ok {
		n.stats.Unroutable++
		return
	}
	n.stats.Delivered++
	n.loop.AfterArg(delay, n.deliverFn, p)
}

// Port is one domain's handle on the sharded fabric. Each sending
// domain owns its loss RNG, fault sender-view, and counters, so
// transmit-side state is never shared across worker threads; routing
// state (the endpoint and domain maps) is sealed read-only by the
// first Send. Port implements Wire.
type Port struct {
	n      *Network
	dom    int
	loop   *sim.Loop
	rng    *sim.Rand
	faults *fault.Engine // sender view, created when the fabric is armed
	stats  NetworkStats
}

// Port returns domain dom's transmit handle.
func (n *Network) Port(dom int) *Port {
	if n.eng == nil {
		panic("app: Port requires a sharded fabric")
	}
	for len(n.ports) <= dom {
		n.ports = append(n.ports, nil)
	}
	if n.ports[dom] == nil {
		n.ports[dom] = &Port{
			n:    n,
			dom:  dom,
			loop: n.eng.Loop(dom),
			// Distinct deterministic stream per sending domain (the
			// legacy fabric's single stream cannot be shared across
			// worker threads).
			rng: sim.NewRand(0xFAB41C ^ (uint64(dom)+1)*0x9e3779b97f4a7c15),
		}
	}
	return n.ports[dom]
}

// Attach registers an endpoint's IPs as owned by this port's domain.
func (p *Port) Attach(ep Endpoint, ips ...netproto.IP) {
	if p.n.frozen {
		panic("app: Attach after the sharded fabric started")
	}
	for _, ip := range ips {
		p.n.endpoints[ip] = ep
		p.n.domOf[ip] = p.dom
	}
}

// AttachKernel wires a kernel into this port's domain; the kernel's
// loop must be the domain's loop. A kernel carrying a fault engine
// arms the whole fabric: every port then derives a sender view
// sharing the engine's seed and plan.
func (p *Port) AttachKernel(k *kernel.Kernel) {
	k.SendToWire = p.Send
	k.ForgetFlow = p.Forget
	p.Attach(k, k.IPs()...)
	if e := k.Faults(); e != nil {
		p.n.faults = e
	}
}

// Forget retires ft's occurrence state in this domain's sender view,
// the one that drew every decision of the flow (a no-op before the
// domain's first armed Send).
func (p *Port) Forget(ft netproto.FourTuple) { p.faults.Forget(ft) }

// Send puts a packet on the wire from this port's domain; identical
// fault semantics to the legacy fabric, decided by this domain's
// sender view (per-flow-keyed, so decisions match the single-engine
// run — see fault.SenderView).
func (p *Port) Send(pkt *netproto.Packet) {
	n := p.n
	if p.faults == nil && n.faults != nil {
		p.faults = n.faults.SenderView()
	}
	if n.loss > 0 && p.rng.Bool(n.loss) {
		p.stats.LostRandom++
		return
	}
	delay := n.delay
	if p.faults != nil && p.faults.Plan().LinkEnabled() {
		if pkt.GSOSize > 0 && len(pkt.Payload) > pkt.GSOSize {
			// Wire-granularity fault decisions for TSO super-segments,
			// identical to the legacy fabric (see sendGSO).
			sendGSO(p.faults, pkt, delay, &p.stats.LostRandom, p.deliver)
			return
		}
		switch act, extra := p.faults.LinkAction(pkt); act {
		case fault.Drop:
			p.stats.LostRandom++
			return
		case fault.Dup:
			d := *pkt
			p.deliver(&d, delay)
		case fault.Reorder:
			delay += extra
		case fault.Corrupt:
			pkt = fault.CorruptCopy(pkt)
		}
	}
	p.deliver(pkt, delay)
}

// deliver mails the arrival to the destination's domain. Same-domain
// traffic schedules directly; cross-domain traffic rides the engine
// mailbox and is injected at the next barrier in deterministic
// (time, source shard, source sequence) order.
//
//fsvet:mailbox the sharded fabric's sole cross-domain delivery path
func (p *Port) deliver(pkt *netproto.Packet, delay sim.Time) {
	n := p.n
	dom, ok := n.domOf[pkt.Dst.IP]
	if !ok {
		p.stats.Unroutable++
		return
	}
	p.stats.Delivered++
	n.eng.Post(p.dom, dom, p.loop.Now()+delay, n.deliverFn, pkt)
}
