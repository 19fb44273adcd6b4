package main

import (
	"fmt"
	"time"

	"fastsocket/internal/app"
	"fastsocket/internal/fault"
	"fastsocket/internal/kernel"
	"fastsocket/internal/netproto"
	"fastsocket/internal/shard"
	"fastsocket/internal/sim"
)

// workload is one traffic shape. Every load is closed-loop: each
// client keeps connsPerCore×cores connections in flight and opens a
// replacement as soon as one closes. The simulated connections are
// model state, not host sockets. BENCHMARK.json says why each
// workload was chosen.
type workload struct {
	name         string
	servers      int // server machines, each loaded by its own client domain
	cores        int // simulated cores per server
	connsPerCore int
	reqsPerConn  int
	workers      int     // shard engine worker goroutines
	loss         float64 // symmetric per-segment link loss (0 = no fault plane)
	warmup       sim.Time
	window       sim.Time
}

var workloads = []workload{
	// Figure 4a's Nginx bed on the Fastsocket kernel: the paper's
	// headline short-lived traffic (~36k responses per window).
	{
		name:         "short",
		servers:      1,
		cores:        8,
		connsPerCore: 300,
		reqsPerConn:  1,
		workers:      1,
		warmup:       30 * sim.Millisecond,
		window:       200 * sim.Millisecond,
	},
	// The same bed over keep-alive connections (~41k responses per
	// window): data exchange instead of handshakes.
	{
		name:         "keepalive",
		servers:      1,
		cores:        8,
		connsPerCore: 300,
		reqsPerConn:  100,
		workers:      1,
		warmup:       30 * sim.Millisecond,
		window:       100 * sim.Millisecond,
	},
	// Four machines with kernels rotated over fleetKernels, each with
	// its own client domain, under 1% loss with retransmitting clients
	// (~61k responses per window). The window covers the drain of the
	// synchronized start and the first wave of 200 ms RTOs.
	{
		name:         "fleet-lossy",
		servers:      4,
		cores:        4,
		connsPerCore: 300,
		reqsPerConn:  1,
		workers:      2,
		loss:         0.01,
		warmup:       50 * sim.Millisecond,
		window:       200 * sim.Millisecond,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fabricDelay is the one-way LAN delay; it is also the shard engine's
// conservative lookahead.
const fabricDelay = 20 * sim.Microsecond

// fleetKernels is the rotation of kernel profiles over server
// machines; a single-server bed runs the first (Fastsocket).
var fleetKernels = []struct {
	mode kernel.Mode
	feat kernel.Features
}{
	{kernel.Fastsocket, kernel.FullFastsocket()},
	{kernel.Base2632, kernel.Features{}},
	{kernel.Linux313, kernel.Features{}},
	{kernel.Fastsocket, kernel.FullFastsocket()},
}

// mix derives independent per-machine seeds from the benchmark seed
// (splitmix64 finalizer). The result is never 0, which the layers
// treat as "use the default seed".
func mix(seed, salt uint64) uint64 {
	x := seed ^ (salt+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x | 1
}

// bed is one wired simulation: servers on domains [0, servers), their
// clients on [servers, 2·servers).
type bed struct {
	w       workload
	eng     *shard.Engine
	netw    *app.Network
	kernels []*kernel.Kernel
	clients []*app.HTTPLoad

	kernelNew time.Duration // host time inside kernel.New
}

// build constructs the bed through the layers' public constructors,
// recording a span around each call when tr is non-nil.
func build(w workload, seed uint64, tr *tracer) *bed {
	b := &bed{w: w}
	sp := tr.begin("shard.NewEngine", 0)
	b.eng = shard.NewEngine(shard.Config{Lookahead: fabricDelay, Workers: w.workers})
	tr.end(sp)
	sp = tr.begin("app.NewShardedNetwork", 0)
	b.netw = app.NewShardedNetwork(b.eng, fabricDelay)
	tr.end(sp)

	// Servers first, then clients: the engine deals domains to
	// workers round-robin, pairing heavy and light domains.
	srvLoops := make([]*sim.Loop, w.servers)
	cliLoops := make([]*sim.Loop, w.servers)
	for i := range srvLoops {
		srvLoops[i] = b.eng.AddDomain(fmt.Sprintf("server%d", i))
	}
	for i := range cliLoops {
		cliLoops[i] = b.eng.AddDomain(fmt.Sprintf("client%d", i))
	}

	var plan *fault.Plan
	if w.loss > 0 {
		plan = &fault.Plan{C2S: fault.LinkFaults{Drop: w.loss}, S2C: fault.LinkFaults{Drop: w.loss}}
	}
	for i := 0; i < w.servers; i++ {
		spec := fleetKernels[i%len(fleetKernels)]
		var ips []netproto.IP
		for c := 0; c < min(w.cores, 4); c++ {
			ips = append(ips, netproto.IPv4(10, 1, byte(i), byte(c+1)))
		}
		sp = tr.begin("kernel.New", int64(i))
		t0 := time.Now()
		k := kernel.New(srvLoops[i], kernel.Config{
			Name:       fmt.Sprintf("%v#%d", spec.mode, i),
			Cores:      w.cores,
			Mode:       spec.mode,
			Feat:       spec.feat,
			IPs:        ips,
			Seed:       mix(seed, uint64(i)),
			RXRingSize: 8192,
			Fault:      plan,
		})
		b.kernelNew += time.Since(t0)
		tr.end(sp)
		b.netw.Port(i).AttachKernel(k)
		b.kernels = append(b.kernels, k)

		sp = tr.begin("app.NewWebServer", int64(i))
		app.NewWebServer(k, app.WebServerConfig{KeepAlive: w.reqsPerConn > 1}).Start()
		tr.end(sp)

		var targets []netproto.Addr
		for _, ip := range ips {
			targets = append(targets, netproto.Addr{IP: ip, Port: 80})
		}
		var cips []netproto.IP
		for j := 0; j < 32; j++ {
			cips = append(cips, netproto.IPv4(10, 2, byte(i), byte(j+1)))
		}
		sp = tr.begin("app.NewHTTPLoad", int64(i))
		b.clients = append(b.clients, app.NewHTTPLoad(cliLoops[i], b.netw.Port(w.servers+i), app.HTTPLoadConfig{
			Targets:         targets,
			ClientIPs:       cips,
			Concurrency:     w.connsPerCore * w.cores,
			RequestsPerConn: w.reqsPerConn,
			Seed:            mix(seed, uint64(1000+i)),
			Retransmit:      w.loss > 0,
		}))
		tr.end(sp)
	}
	b.netw.Freeze()
	for _, c := range b.clients {
		c.Start()
	}
	return b
}

// run advances the bed to absolute simulated time until. Traced runs
// step in 1 ms simulated slices, one span each; the slices fall on
// lookahead boundaries, so the outcome is identical to one call.
func (b *bed) run(until sim.Time, tr *tracer) {
	if tr == nil {
		b.eng.Run(until)
		return
	}
	for t := b.eng.Now(); t < until; {
		next := min(t+sim.Millisecond, until)
		sp := tr.begin("Engine.Run", int64(next/sim.Microsecond))
		b.eng.Run(next)
		tr.end(sp)
		t = next
	}
}

func (b *bed) close() { b.eng.Close() }
