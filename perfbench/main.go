// Command perfbench is the repository benchmark: it measures what a
// simulation costs on the host and checks that the simulated results
// are right and reproducible, on three workloads (see beds.go).
//
//	go run . --workload short --seed 1 --seconds 20 --trace 0
//
// Each run builds a fresh bed, warms it up and measures one simulated
// window, repeatedly until --seconds have passed, and reports medians.
// The simulated outcome of every repetition is hashed into a digest
// that must be identical within the run and must change with the
// seed. A workload's last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// attempted counts the simulated windows the run executed (measured
// repetitions plus the changed-seed check) and failed those whose
// checks failed; the exit code is nonzero if any check failed.
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run and reports the per-layer metrics (layers.go), writing
// its spans as Chrome trace-event JSON and the CPU profile of each
// measured window beside them in --out. --workload all (the default)
// runs every workload in turn, one report line each; heap_peak_mb is
// the process's peak, so there it covers the workloads run so far.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// minReps is the fewest measured repetitions a run makes, however
// short --seconds is, so that the digest comparison has a pair.
const minReps = 2

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker collects the correctness verdict of a run.
type checker struct {
	attempted, failed int
	problems          []string
}

func (c *checker) fail(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// rep runs one repetition and records its outcome.
func (c *checker) rep(w workload, seed uint64, tr *tracer, onWindow func(bool)) *rep {
	c.attempted++
	r, err := runRep(w, seed, tr, onWindow)
	if err != nil {
		c.failed++
		c.fail("%s seed %d: %v", w.name, seed, err)
	}
	return r
}

// sameDigest checks that every repetition of a set reproduced the
// first one's simulated outcome.
func (c *checker) sameDigest(what string, reps []*rep, want string) {
	for i, r := range reps {
		if r.digest != want {
			c.fail("%s repetition %d digest %s != %s", what, i, r.digest, want)
		}
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOver(reps []*rep, f func(*rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// repeat runs measured repetitions until budget has passed (and at
// least minReps), stopping early at the first failure.
func (c *checker) repeat(w workload, seed uint64, budget time.Duration, tr *tracer, onWindow func(bool)) []*rep {
	var reps []*rep
	for t0 := time.Now(); len(reps) < minReps || time.Since(t0) < budget; {
		r := c.rep(w, seed, tr, onWindow)
		if r == nil {
			break
		}
		reps = append(reps, r)
	}
	return reps
}

// seedCheck runs one repetition at a different seed: a digest that
// does not move with the seed means the seed does not reach the
// simulation (or the digest does not see its outcome).
func (c *checker) seedCheck(w workload, seed uint64, want string) {
	if r := c.rep(w, seed+1, nil, nil); r != nil && r.digest == want {
		c.fail("%s: digest %s unchanged when the seed changes from %d to %d", w.name, want, seed, seed+1)
	}
}

// peakRSSMB is the process's peak resident memory.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEnd measures the untraced run's metrics.
func endToEnd(c *checker, w workload, seed uint64, budget time.Duration, log io.Writer) map[string]metric {
	reps := c.repeat(w, seed, budget, nil, nil)
	if len(reps) == 0 {
		return nil
	}
	heap := peakRSSMB()
	first := reps[0]
	c.sameDigest(w.name, reps, first.digest)
	c.seedCheck(w, seed, first.digest)
	fmt.Fprintf(log, "outcome: workload=%s seed=%d digest=%s reps=%d resp_samples=%d\n",
		w.name, seed, first.digest, len(reps), first.resp.Count())
	metrics, err := endToEndMetrics(w, reps, heap)
	if err != nil {
		c.fail("%v", err)
	}
	return metrics
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name: short, keepalive, fleet-lossy, or all (one report line each)")
	seed := fs.Uint64("seed", 1, "seed of the simulated inputs")
	seconds := fs.Float64("seconds", 10, "host seconds to spend on measured repetitions")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
	out := fs.String("out", ".bench_build/perfbench", "directory for the traced run's spans and CPU profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	}
	if len(ws) == 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or trace %d\n", *name, *trace)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))

	h := hostRecord()
	fmt.Fprintf(stdout, "host: cpus=%d gomaxprocs=%d go=%s sim.schedule_fire_ns=%.2f\n",
		h.cpus, h.gomaxprocs, h.goVersion, h.scheduleFireNs)
	code := 0
	for _, w := range ws {
		if c := measure(w, *seed, budget, *trace == 1, h, *out, stdout, stderr); c != 0 {
			code = c
		}
	}
	return code
}

// measure runs one workload and prints its report line; it returns
// the exit code.
func measure(w workload, seed uint64, budget time.Duration, trace bool, h host, out string, stdout, stderr io.Writer) int {
	c := &checker{}
	var metrics map[string]metric
	if !trace {
		metrics = endToEnd(c, w, seed, budget, stdout)
	} else {
		var err error
		metrics, err = traced(c, w, seed, budget, h, out, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	rep := report{Correct: len(c.problems) == 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics}
	for _, p := range c.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// host is the record printed with every result, so that numbers from
// different hosts can be read as ratios to the engine yardstick.
type host struct {
	cpus, gomaxprocs int
	goVersion        string
	scheduleFireNs   float64
}

func hostRecord() host {
	return host{
		cpus:           runtime.NumCPU(),
		gomaxprocs:     runtime.GOMAXPROCS(0),
		goVersion:      runtime.Version(),
		scheduleFireNs: scheduleFireNs(probeOps),
	}
}

// probeOps is the operation count of each micro-probe round.
const probeOps = 200_000
