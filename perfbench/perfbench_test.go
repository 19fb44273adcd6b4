package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"fastsocket/internal/sim"
)

// tiny shrinks every workload to a few simulated milliseconds for the
// duration of a test.
func tiny(t *testing.T) {
	saved := workloads
	t.Cleanup(func() { workloads = saved })
	workloads = append([]workload(nil), saved...)
	for i := range workloads {
		workloads[i].warmup = 2 * sim.Millisecond
		workloads[i].window = 3 * sim.Millisecond
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test holds the
// program to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runCLI runs the command line and returns its final report and the
// digest it printed.
func runCLI(t *testing.T, args ...string) (report, string) {
	t.Helper()
	var out, errs bytes.Buffer
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("%v: exit %d\n%s%s", args, code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%v: last line is not the report: %v", args, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < minReps {
		t.Fatalf("%v: report %+v\n%s", args, r, errs.String())
	}
	var digest string
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, "outcome: "); ok {
			for _, f := range strings.Fields(rest) {
				if d, ok := strings.CutPrefix(f, "digest="); ok {
					digest = d
				}
			}
		}
	}
	if digest == "" {
		t.Fatalf("%v: no digest printed", args)
	}
	return r, digest
}

// sameMetrics checks that a report prints exactly the named metrics,
// each with its unit.
func sameMetrics(t *testing.T, what string, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, BENCHMARK.json names %d", what, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", what, m.Name)
		} else if g.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		}
	}
}

func TestCatalogueMatchesSpec(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		defs []metricDef
		spec []specMetric
	}{{endToEndDefs, spec.EndToEnd}, {perLayerDefs, spec.PerLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Errorf("catalogue has %d metrics, BENCHMARK.json %d", len(c.defs), len(c.spec))
			continue
		}
		for i, d := range c.defs {
			if d.name != c.spec[i].Name || d.unit != c.spec[i].Unit {
				t.Errorf("metric %d: catalogue %s/%s, BENCHMARK.json %s/%s", i, d.name, d.unit, c.spec[i].Name, c.spec[i].Unit)
			}
		}
	}
}

// TestSmoke runs a tiny window of every workload, untraced twice and
// traced once, and checks the printed metrics against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	tiny(t)
	spec := loadSpec(t)
	out := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0"}
			r1, d1 := runCLI(t, append(args, "--trace", "0")...)
			_, d2 := runCLI(t, append(args, "--trace", "0")...)
			if d1 != d2 {
				t.Errorf("digest %s != %s across two runs", d1, d2)
			}
			sameMetrics(t, "end-to-end", r1.Metrics, spec.EndToEnd)

			r3, d3 := runCLI(t, append(args, "--trace", "1", "--out", out)...)
			if d3 != d1 {
				t.Errorf("traced run digest %s != untraced %s", d3, d1)
			}
			sameMetrics(t, "per-layer", r3.Metrics, spec.PerLayer)
			raw, err := os.ReadFile(filepath.Join(out, w.name+"-seed7.trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &tr); err != nil || len(tr.TraceEvents) == 0 {
				t.Errorf("trace export: %d events, %v", len(tr.TraceEvents), err)
			}
		})
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nosuch"},
		{"--workload", "short", "--trace", "2"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; n++ {
	}
	return n
}

func TestLeafSelfNanos(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	byFn, err := leafSelfNanos(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range byFn {
		total += ns
	}
	if total <= 0 {
		t.Fatalf("no samples decoded: %v", byFn)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"fastsocket/internal/lock.(*SpinLock).insert": "lock",
		"fastsocket/internal/sim.(*Loop).RunUntil":    "sim",
		"fastsocket/internal/app.NewHTTPLoad.func1":   "app",
		"runtime.mallocgc":                            "runtime",
		"sort.Search":                                 "runtime",
		"main.spin":                                   "runtime",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
