package app

import (
	"testing"

	"fastsocket/internal/fault"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
)

// newFaultBed boots a one-listener Fastsocket web server with the
// given fault plan and a loss-tolerant client that opens connections
// only when the test says so (Concurrency 0, open() called directly).
func newFaultBed(t *testing.T, plan *fault.Plan) (*testbed, *WebServer) {
	t.Helper()
	loop := sim.NewLoop()
	net := NewNetwork(loop, 20*sim.Microsecond)
	k := kernel.New(loop, kernel.Config{
		Cores: 1,
		Mode:  kernel.Fastsocket,
		Feat:  kernel.FullFastsocket(),
		Seed:  11,
		Fault: plan,
	})
	net.AttachKernel(k)
	srv := NewWebServer(k, WebServerConfig{})
	srv.Start()
	cli := NewHTTPLoad(loop, net, HTTPLoadConfig{
		Targets:    serverTargets(k, 80),
		Retransmit: true,
		// Slower than the server's 200ms InitialRTO, so a lost SYN-ACK
		// is repaired by the server's retransmission, not a client SYN
		// retry.
		RTO: 300 * sim.Millisecond,
	})
	return &testbed{loop: loop, net: net, k: k, client: cli}, srv
}

// TestRetransmitAccounting drops exactly one server->client segment
// (the SYN-ACK) and checks the books balance: the socket retransmits
// once, the kernel's SNMP RetransSegs agrees, and the wire was charged
// exactly one extra transmission compared to a clean run — a dropped
// segment is never double-charged to TX.
func TestRetransmitAccounting(t *testing.T) {
	run := func(plan *fault.Plan) (*testbed, kernel.Stats) {
		tb, _ := newFaultBed(t, plan)
		tb.client.open()
		tb.loop.RunUntil(600 * sim.Millisecond)
		return tb, tb.k.Stats()
	}

	clean, cleanStats := run(nil)
	if clean.client.Completed != 1 {
		t.Fatalf("clean run completed %d connections, want 1", clean.client.Completed)
	}
	if cleanStats.RetransSegs != 0 {
		t.Fatalf("clean run counted %d retransmissions", cleanStats.RetransSegs)
	}

	faulty, faultyStats := run(&fault.Plan{S2C: fault.LinkFaults{DropFirst: 1}})
	if faulty.client.Completed != 1 || faulty.client.Errors != 0 {
		t.Fatalf("faulty run: completed=%d errors=%d, want 1/0",
			faulty.client.Completed, faulty.client.Errors)
	}
	eng := faulty.k.Faults()
	if eng == nil {
		t.Fatal("fault engine not attached")
	}
	if got := eng.Stats().LinkDrops; got != 1 {
		t.Fatalf("LinkDrops = %d, want 1", got)
	}
	if faultyStats.RetransSegs != 1 {
		t.Fatalf("kernel RetransSegs = %d, want 1", faultyStats.RetransSegs)
	}
	if snmp := faulty.k.SNMP(); snmp.RetransSegs != 1 {
		t.Fatalf("SNMP RetransSegs = %d, want 1", snmp.RetransSegs)
	}
	// The drop happens on the wire, after the TX path charged the
	// segment; the retransmission is the only extra transmission.
	if faultyStats.PacketsOut != cleanStats.PacketsOut+1 {
		t.Fatalf("PacketsOut = %d, want clean %d + 1 (TX charged exactly once per wire packet)",
			faultyStats.PacketsOut, cleanStats.PacketsOut)
	}
	// Connection latency reflects the ~200ms repair (the histogram's
	// bucket boundaries report slightly under the exact value).
	if p99 := faulty.client.ConnLatencies.Percentile(99); p99 < 150*sim.Millisecond {
		t.Fatalf("faulty conn latency p99 = %v, want >= 150ms", p99)
	}
}

// TestAllocFailureUnwind runs a burst of connections under
// memory-pressure mode and checks every failure path unwinds fully:
// no leaked VFS inodes, no leaked TCBs, and the event loop drains to
// empty (no orphaned timers).
func TestAllocFailureUnwind(t *testing.T) {
	tb, _ := newFaultBed(t, &fault.Plan{AllocFail: 0.05})
	live0 := tb.k.VFS().Stats().Live
	if live0 == 0 {
		t.Fatal("no boot listeners registered (alloc-failed at boot; pick another seed)")
	}

	const conns = 200
	for i := 0; i < conns; i++ {
		tb.loop.After(sim.Time(i)*50*sim.Microsecond, tb.client.open)
	}
	tb.loop.Run() // to exhaustion: all retries, aborts and 2MSL timers drain

	if got := tb.client.Completed + tb.client.Errors; got != conns {
		t.Fatalf("accounted connections = %d, want %d", got, conns)
	}
	if tb.k.Stats().AllocFails == 0 {
		t.Fatal("memory-pressure plan never fired; test is vacuous")
	}
	if tb.client.Errors == 0 {
		t.Fatal("no client saw an allocation-induced failure")
	}
	if live := tb.k.VFS().Stats().Live; live != live0 {
		t.Fatalf("leaked VFS inodes: live = %d, want %d (boot listeners only)", live, live0)
	}
	for state, n := range tb.k.SocketSummary() {
		if state != "LISTEN" && n != 0 {
			t.Errorf("leaked %d sockets in state %s", n, state)
		}
	}
	if p := tb.loop.Pending(); p != 0 {
		t.Fatalf("event loop did not drain: %d events pending", p)
	}
}

// TestZeroPlanIsInert: a non-nil but zero Plan must not attach an
// engine or change behaviour.
func TestZeroPlanIsInert(t *testing.T) {
	tb, _ := newFaultBed(t, &fault.Plan{})
	if tb.k.Faults() != nil {
		t.Fatal("zero plan attached a fault engine")
	}
	tb.client.open()
	tb.loop.RunUntil(10 * sim.Millisecond)
	if tb.client.Completed != 1 {
		t.Fatalf("completed %d, want 1", tb.client.Completed)
	}
}

// TestFaultStateTracksLiveFlows runs a lossy closed-loop bed on the
// sharded fabric (1% loss both ways, a retransmitting client) and
// checks the fault plane's occurrence state is released with its
// flows: the live flow records summed over the sender views stay
// within two per connection in flight or in TIME_WAIT, plus one per
// owner-less RST, while the segments drawn keep growing with simulated
// time.
func TestFaultStateTracksLiveFlows(t *testing.T) {
	eng := shard.NewEngine(shard.Config{Lookahead: 20 * sim.Microsecond})
	defer eng.Close()
	netw := NewShardedNetwork(eng, 20*sim.Microsecond)
	srvLoop, cliLoop := eng.AddDomain("server"), eng.AddDomain("client")
	plan := &fault.Plan{C2S: fault.LinkFaults{Drop: 0.01}, S2C: fault.LinkFaults{Drop: 0.01}}
	k := kernel.New(srvLoop, kernel.Config{
		Cores: 2,
		Mode:  kernel.Fastsocket,
		Feat:  kernel.FullFastsocket(),
		IPs:   []netproto.IP{netproto.IPv4(10, 1, 0, 1), netproto.IPv4(10, 1, 0, 2)},
		Seed:  5,
		Fault: plan,
	})
	netw.Port(0).AttachKernel(k)
	// Count the server's RSTs: in this bed each answers a client FIN
	// retransmitted after the server's TCB retired — an owner-less
	// send, whose record is never retired.
	rsts, wire := 0, k.SendToWire
	k.SendToWire = func(p *netproto.Packet) {
		if p.Flags.Has(netproto.RST) {
			rsts++
		}
		wire(p)
	}
	NewWebServer(k, WebServerConfig{}).Start()
	cli := NewHTTPLoad(cliLoop, netw.Port(1), HTTPLoadConfig{
		Targets:     serverTargets(k, 80),
		Concurrency: 64,
		Retransmit:  true,
	})
	netw.Freeze()
	cli.Start()

	live := func() fault.Occupancy {
		var sum fault.Occupancy
		for dom := 0; dom < eng.Domains(); dom++ {
			o := netw.Port(dom).faults.Occupancy()
			sum.Flows += o.Flows
			sum.Keys += o.Keys
			sum.Draws += o.Draws
		}
		return sum
	}
	var first fault.Occupancy
	for at := 100 * sim.Millisecond; at <= 2*sim.Second; at += 100 * sim.Millisecond {
		eng.Run(at)
		occ := live()
		population := cli.InFlight() + k.SocketSummary()["TIME_WAIT"]
		// Two sending flows per connection (one per direction), plus
		// one record per owner-less RST.
		if bound := 2*population + rsts; occ.Flows > bound {
			t.Fatalf("t=%v: %d live flow records for %d connections in flight or TIME_WAIT and %d RSTs (bound %d)",
				at, occ.Flows, population, rsts, bound)
		}
		if bound := 8 * (2*population + rsts); occ.Keys > bound {
			t.Fatalf("t=%v: %d live keys for %d connections in flight or TIME_WAIT and %d RSTs (bound %d)",
				at, occ.Keys, population, rsts, bound)
		}
		if first.Draws == 0 {
			first = occ
		}
	}
	last := live()
	if last.Draws < 4*first.Draws {
		t.Fatalf("segments drawn grew only %d -> %d over 20x simulated time; bed too idle", first.Draws, last.Draws)
	}
	if last.Keys*20 > int(last.Draws) {
		t.Fatalf("%d keys live after %d draws: occurrence state grows with segments", last.Keys, last.Draws)
	}
	if st := netw.FaultStats(); st.LinkDrops == 0 || k.Stats().RetransSegs == 0 {
		t.Fatalf("loss never exercised: %+v, retrans %d", st, k.Stats().RetransSegs)
	}
}
