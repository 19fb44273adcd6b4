package fault

import (
	"testing"

	"fastsocket/internal/netproto"
	"fastsocket/internal/sim"
)

// lossyPlan faults both directions often enough that every draw's
// value shows in the action sequence.
var lossyPlan = Plan{
	C2S: LinkFaults{Drop: 0.2, Dup: 0.1, Reorder: 0.1, Corrupt: 0.05},
	S2C: LinkFaults{Drop: 0.2, Dup: 0.1, Reorder: 0.1, Corrupt: 0.05},
}

// seg builds a segment on tuple ft.
func seg(ft netproto.FourTuple, seq uint32, flags netproto.Flags) *netproto.Packet {
	return &netproto.Packet{Src: ft.Src, Dst: ft.Dst, Seq: seq, Flags: flags}
}

// twin feeds the same segments to a reference engine that never
// forgets and to one whose flows are retired, failing on the first
// decision that differs.
type twin struct {
	t        *testing.T
	ref, got *Engine
	n        int
}

func newTwin(t *testing.T) *twin {
	return &twin{t: t, ref: NewEngine(9, lossyPlan), got: NewEngine(9, lossyPlan)}
}

func (w *twin) send(ft netproto.FourTuple, seq uint32, flags netproto.Flags) {
	w.t.Helper()
	w.n++
	ra, rd := w.ref.LinkAction(seg(ft, seq, flags))
	ga, gd := w.got.LinkAction(seg(ft, seq, flags))
	if ra != ga || rd != gd {
		w.t.Fatalf("decision %d (%v seq=%d %v): forgetting engine drew (%v,%v), reference (%v,%v)",
			w.n, ft, seq, flags, ga, gd, ra, rd)
	}
}

func (w *twin) check() {
	w.t.Helper()
	if w.ref.Stats() != w.got.Stats() {
		w.t.Fatalf("stats diverged: forgetting %+v, reference %+v", w.got.Stats(), w.ref.Stats())
	}
}

// TestForgetMatchesReference is the differential test: a seeded
// random schedule of short connections over a reused tuple space —
// data, retransmits of earlier segments, and runs of repeated pure
// ACKs, interleaved across flows — draws identical decisions whether
// or not each retired flow's state is forgotten, and the forgetting
// engine holds nothing once every flow is retired.
func TestForgetMatchesReference(t *testing.T) {
	type sent struct {
		seq   uint32
		flags netproto.Flags
	}
	type conn struct {
		flows [2]netproto.FourTuple // client→server, server→client
		nxt   [2]uint32
		hist  [2][]sent
		left  int
	}
	w := newTwin(t)
	rng := sim.NewRand(77)
	// 4 client IPs × 40 ports × 2 servers: tuples are reused by later
	// incarnations with fresh ISNs, as ephemeral ports are.
	tuple := func() netproto.FourTuple {
		return netproto.FourTuple{
			Src: netproto.Addr{IP: netproto.IPv4(10, 2, 0, byte(1+rng.Intn(4))), Port: netproto.EphemeralLow + netproto.Port(rng.Intn(40))},
			Dst: netproto.Addr{IP: netproto.IPv4(10, 1, 0, byte(1+rng.Intn(2))), Port: 80},
		}
	}
	live := map[netproto.FourTuple]*conn{}
	var order []*conn // live connections in open order (deterministic picks)
	opened, retired := 0, 0
	const conns, concurrency = 600, 24
	for opened < conns || len(order) > 0 {
		if opened < conns && len(order) < concurrency && rng.Bool(0.3) {
			ft := tuple()
			if live[ft] != nil {
				continue
			}
			c := &conn{flows: [2]netproto.FourTuple{ft, ft.Reversed()}, left: 4 + rng.Intn(40)}
			c.nxt[0], c.nxt[1] = rng.Uint32(), rng.Uint32()
			live[ft] = c
			order = append(order, c)
			opened++
			continue
		}
		if len(order) == 0 {
			continue
		}
		i := rng.Intn(len(order))
		c := order[i]
		d := rng.Intn(2)
		s := sent{seq: c.nxt[d]}
		switch r := rng.Intn(10); {
		case r < 4: // new data
			s.flags = netproto.PSH | netproto.ACK
			c.nxt[d] += 1 + uint32(rng.Intn(1460))
		case r < 7: // a burst of identical pure ACKs
			s.flags = netproto.ACK
			for k := rng.Intn(3); k > 0; k-- {
				w.send(c.flows[d], s.seq, s.flags)
			}
		case r < 9 && len(c.hist[d]) > 0: // retransmit an earlier segment
			s = c.hist[d][rng.Intn(len(c.hist[d]))]
		default:
			s.flags = netproto.FIN | netproto.ACK
		}
		w.send(c.flows[d], s.seq, s.flags)
		c.hist[d] = append(c.hist[d], s)
		if c.left--; c.left <= 0 {
			w.got.Forget(c.flows[0])
			w.got.Forget(c.flows[1])
			delete(live, c.flows[0])
			order = append(order[:i], order[i+1:]...)
			retired++
		}
	}
	w.check()
	if retired != conns || w.n < 10*conns {
		t.Fatalf("schedule too thin: %d connections retired, %d decisions", retired, w.n)
	}
	if occ := w.got.Occupancy(); occ.Flows != 0 || occ.Keys != 0 || occ.Draws != w.ref.Occupancy().Draws {
		t.Fatalf("after retiring every flow: %+v, want no flows or keys and %d draws", occ, w.ref.Occupancy().Draws)
	}
	if ref := w.ref.Occupancy(); ref.Keys < w.n/4 {
		t.Fatalf("reference kept only %d keys for %d decisions; schedule too repetitive", ref.Keys, w.n)
	}
}

// TestForgetHashCollision: flows whose tuples collide under
// FourTuple.Hash share one chain of the flow index, and draw equal
// decision keys when they send the same (seq, flags). Retiring one —
// from the middle, the head, or the end of the chain — must leave the
// others' occurrence counts, and so their next redraws, exactly as the
// reference has them.
func TestForgetHashCollision(t *testing.T) {
	tuple := func(srv, cli byte, port netproto.Port) netproto.FourTuple {
		return netproto.FourTuple{
			Src: netproto.Addr{IP: netproto.IPv4(10, 1, 0, srv), Port: 80},
			Dst: netproto.Addr{IP: netproto.IPv4(10, 2, 0, cli), Port: port},
		}
	}
	flows := []netproto.FourTuple{tuple(2, 6, 32796), tuple(1, 5, 32799), tuple(3, 7, 32797)}
	for _, ft := range flows[1:] {
		if ft.Hash() != flows[0].Hash() {
			t.Fatalf("%v and %v no longer collide; pick colliding tuples", ft, flows[0])
		}
	}
	w := newTwin(t)
	round := func(live []netproto.FourTuple, r uint32) {
		for _, ft := range live {
			w.send(ft, 4242, netproto.ACK) // the same key on every flow
			w.send(ft, uint32(ft.Dst.Port)*1000+r, netproto.PSH|netproto.ACK)
		}
	}
	retire := func(ft netproto.FourTuple, rest ...netproto.FourTuple) {
		w.got.Forget(ft)
		for r := uint32(0); r < 10; r++ {
			round(rest, r%5)
		}
	}
	a, b, c := flows[0], flows[1], flows[2]
	for r := uint32(0); r < 5; r++ {
		round(flows, r)
	}
	retire(b, a, c) // the middle of the chain c → b → a
	retire(c, a)    // its head
	retire(a)       // its last record
	w.check()
	if occ := w.got.Occupancy(); occ.Flows != 0 || occ.Keys != 0 {
		t.Fatalf("every flow retired, live state %+v", occ)
	}
}

// TestForgetLongFlow: one flow drawing 10k distinct keys, with
// redraws of earlier keys, stays equal to the reference. Retiring it
// retires every count, and the table's next rebuild reclaims their
// slots instead of growing.
func TestForgetLongFlow(t *testing.T) {
	ft := netproto.FourTuple{
		Src: netproto.Addr{IP: netproto.IPv4(10, 1, 0, 1), Port: 80},
		Dst: netproto.Addr{IP: netproto.IPv4(10, 2, 0, 1), Port: 40000},
	}
	w := newTwin(t)
	const keys = 10000
	long := func(ft netproto.FourTuple) {
		for i := uint32(0); i < keys; i++ {
			w.send(ft, i*1460, netproto.PSH|netproto.ACK)
			if i%10 == 9 {
				for r := 0; r < 3; r++ {
					w.send(ft, (i-5)*1460, netproto.PSH|netproto.ACK)
				}
			}
		}
	}
	long(ft)
	w.check()
	if occ := w.got.Occupancy(); occ.Flows != 1 || occ.Keys != keys {
		t.Fatalf("live state %+v, want 1 flow holding %d keys", occ, keys)
	}
	w.got.Forget(ft)
	if occ := w.got.Occupancy(); occ.Flows != 0 || occ.Keys != 0 {
		t.Fatalf("after Forget: %+v", occ)
	}
	size := len(w.got.seen.slots)
	next := ft
	next.Dst.Port++
	long(next)
	if got := len(w.got.seen.slots); got != size {
		t.Fatalf("table grew %d -> %d slots for one live flow's %d keys", size, got, keys)
	}
	// The retired tuple's next incarnation starts afresh.
	w.send(ft, 7, netproto.SYN)
	if occ := w.got.Occupancy(); occ.Flows != 2 || occ.Keys != keys+1 {
		t.Fatalf("reused tuple: %+v, want 2 flows with %d keys", occ, keys+1)
	}
}

// TestForgetKeepsAllocDraws: AllocOK draws have no owning flow, so a
// Forget of the tuple their key carries never resets them.
func TestForgetKeepsAllocDraws(t *testing.T) {
	ft := netproto.FourTuple{
		Src: netproto.Addr{IP: netproto.IPv4(10, 2, 0, 1), Port: 40000},
		Dst: netproto.Addr{IP: netproto.IPv4(10, 1, 0, 1), Port: 80},
	}
	plan := Plan{C2S: LinkFaults{Drop: 0.5}, AllocFail: 0.5}
	ref, got := NewEngine(3, plan), NewEngine(3, plan)
	for i := 0; i < 50; i++ {
		ref.AllocOK(SiteTCB, ft.Hash())
		got.AllocOK(SiteTCB, ft.Hash())
		ref.LinkAction(seg(ft, uint32(i), netproto.ACK))
		got.LinkAction(seg(ft, uint32(i), netproto.ACK))
		got.Forget(ft)
	}
	if ref.Stats() != got.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", got.Stats(), ref.Stats())
	}
	if occ := got.Occupancy(); occ.Flows != 0 || occ.Keys != 1 {
		t.Fatalf("live state %+v, want only the owner-less alloc count", occ)
	}
	var nilEngine *Engine
	nilEngine.Forget(ft) // valid, injects and holds nothing
	if nilEngine.Occupancy() != (Occupancy{}) {
		t.Fatal("nil engine reports live state")
	}
}

// BenchmarkLinkAction draws the segments of a steady population of
// short flows, each retired after eight segments (one a repeated pure
// ACK) and its tuple reused with a fresh ISN. Records recycle and the
// occurrence table rebuilds into its spare array, so steady state
// allocates nothing per draw.
func BenchmarkLinkAction(b *testing.B) {
	e := NewEngine(1, Plan{C2S: LinkFaults{Drop: 0.01}, S2C: LinkFaults{Drop: 0.01}})
	const live, segs = 8192, 8
	var p netproto.Packet
	p.Dst = netproto.Addr{IP: netproto.IPv4(10, 1, 0, 1), Port: 80}
	step := func(i int) {
		f, s := i%live, i/live
		p.Src = netproto.Addr{IP: netproto.IPv4(10, 2, 0, 1), Port: netproto.EphemeralLow + netproto.Port(f)}
		p.Seq = uint32(s/segs)*64019 + uint32(s%segs)*1000
		p.Flags = netproto.PSH | netproto.ACK
		if s%segs == 3 {
			p.Seq -= 1000 // repeats the previous pure ACK
			p.Flags = netproto.ACK
		} else if s%segs == 2 {
			p.Flags = netproto.ACK
		}
		e.LinkAction(&p)
		if s%segs == segs-1 {
			e.Forget(p.Tuple())
		}
	}
	for i := 0; i < 4*live*segs; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(4*live*segs + i)
	}
}
