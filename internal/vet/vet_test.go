package vet

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"fastsocket/internal/lock"
	"fastsocket/internal/stats"
	"fastsocket/internal/tcp"
)

const repoRoot = "../.."

// corpusOverlay maps synthetic module import paths to the golden
// corpus directories. Paths under internal/kernel/ inherit
// restricted-package status exactly as real code would; reachutil and
// unrestricted sit outside internal/, so they are unrestricted module
// packages.
func corpusOverlay(t *testing.T) map[string]string {
	t.Helper()
	abs := func(dir string) string {
		p, err := filepath.Abs(filepath.Join("testdata", "corpus", dir))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return map[string]string{
		"fastsocket/internal/kernel/vetcorpus_det":    abs("determinism"),
		"fastsocket/internal/kernel/vetcorpus_reach":  abs("reach"),
		"fastsocket/internal/kernel/vetcorpus_units":  abs("units"),
		"fastsocket/internal/kernel/vetcorpus_locks":  abs("lockorder"),
		"fastsocket/internal/kernel/vetcorpus_bal":    abs("balance"),
		"fastsocket/internal/kernel/vetcorpus_charge": abs("charge"),
		"fastsocket/internal/kernel/vetcorpus_escape": abs("escape"),
		"fastsocket/internal/kernel/vetcorpus_alloc":  abs("alloc"),
		"fastsocket/internal/kernel/vetcorpus_shard":  abs("shard"),
		"fastsocket/internal/kernel/vetcorpus_fsm":    abs("fsm"),
		"fastsocket/vetcorpus/reachutil":              abs("reachutil"),
		"fastsocket/vetcorpus/unrestricted":           abs("unrestricted"),
	}
}

var wantRe = regexp.MustCompile(`// want "(.*)"`)

type expectation struct {
	file string // root-relative
	line int
	re   *regexp.Regexp
}

// collectWants scans corpus sources, tests included, for
// // want "regexp" annotations. It returns every corpus file
// (root-relative, sorted) and the expectations per file.
func collectWants(t *testing.T, overlay map[string]string) ([]string, map[string][]expectation) {
	t.Helper()
	root, err := filepath.Abs(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	wants := map[string][]expectation{}
	for _, dir := range overlay {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				t.Fatal(err)
			}
			rel = filepath.ToSlash(rel)
			files = append(files, rel)
			sc := bufio.NewScanner(f)
			for ln := 1; sc.Scan(); ln++ {
				m := wantRe.FindStringSubmatch(sc.Text())
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", rel, ln, m[1], err)
				}
				wants[rel] = append(wants[rel], expectation{file: rel, line: ln, re: re})
			}
			f.Close()
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sort.Strings(files)
	return files, wants
}

// corpusDir is the root-relative home of the golden corpus.
const corpusDir = "internal/vet/testdata/corpus/"

// TestGoldenCorpus loads the repository plus the corpus overlays and
// checks every pass against the annotated expectations, one subtest per
// corpus file. It doubles as the repository-cleanliness gate: any
// finding outside the corpus is a failure (the committed baseline is
// empty).
func TestGoldenCorpus(t *testing.T) {
	overlay := corpusOverlay(t)
	prog, err := LoadWithOverlay(repoRoot, overlay)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(prog)

	files, wants := collectWants(t, overlay)
	// Reasonless-directive cases cannot carry want comments (the
	// comment would join the directive); assert them explicitly.
	for _, w := range []expectation{
		{file: corpusDir + "determinism/directives.go", line: 20, re: regexp.MustCompile(`fsvet:ignore units needs a reason`)},
		{file: corpusDir + "shard/directives.go", line: 7, re: regexp.MustCompile(`fsvet:percore needs a reason`)},
		{file: corpusDir + "shard/directives.go", line: 10, re: regexp.MustCompile(`fsvet:shared needs a reason`)},
		{file: corpusDir + "shard/directives.go", line: 13, re: regexp.MustCompile(`fsvet:mailbox needs a reason`)},
		{file: corpusDir + "fsm/fsm.go", line: 121, re: regexp.MustCompile(`fsvet:fsm needs a reason`)},
	} {
		wants[w.file] = append(wants[w.file], w)
	}

	var graphFindings, fsmGraphFindings []Finding
	corpusFindings := map[string][]Finding{}
	for _, f := range res.Findings {
		switch {
		case f.File == "(lock-order graph)":
			graphFindings = append(graphFindings, f)
		case f.File == "(fsm graph)":
			fsmGraphFindings = append(fsmGraphFindings, f)
		case strings.HasPrefix(f.File, corpusDir):
			corpusFindings[f.File] = append(corpusFindings[f.File], f)
		default:
			t.Errorf("repository is not fsvet-clean: %s", f)
		}
	}

	for _, file := range files {
		t.Run(strings.TrimPrefix(file, corpusDir), func(t *testing.T) {
			want := wants[file]
			matched := make([]bool, len(want))
			for _, f := range corpusFindings[file] {
				ok := false
				for i, w := range want {
					if !matched[i] && w.line == f.Line && w.re.MatchString(f.Msg) {
						matched[i] = true
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("unexpected corpus finding: %s", f)
				}
			}
			for i, w := range want {
				if !matched[i] {
					t.Errorf("missing finding: %s:%d want match for %q", w.file, w.line, w.re)
				}
			}
		})
	}

	// The corpus inversion (corpus.a <-> corpus.b) must surface as a
	// whole-graph lockorder finding.
	foundInversion := false
	for _, f := range graphFindings {
		if f.Pass == PassLockOrder && strings.Contains(f.Msg, "corpus.a") && strings.Contains(f.Msg, "corpus.b") {
			foundInversion = true
		} else {
			t.Errorf("unexpected lock-order graph finding: %s", f)
		}
	}
	if !foundInversion {
		t.Errorf("corpus lock-order inversion (corpus.a <-> corpus.b) not reported")
	}

	// The corpus spec's deliberately unimplemented DONE -> GHOST edge
	// must surface as the sole fsm-graph finding: the real TCP machine's
	// spec and implementation agree edge for edge.
	foundGhost := false
	for _, f := range fsmGraphFindings {
		if f.Pass == PassFSM && strings.Contains(f.Msg, "DONE -> GHOST") && strings.Contains(f.Msg, "no static site") {
			foundGhost = true
		} else {
			t.Errorf("unexpected fsm graph finding: %s", f)
		}
	}
	if !foundGhost {
		t.Errorf("corpus spec edge DONE -> GHOST without a site not reported")
	}

	// The extracted static relation must carry both machines, and the
	// TCP machine must match the committed spec exactly (every spec edge
	// extracted, no extras — extras would also be findings above).
	tcpSpec := TCPSpec()
	static := map[string]bool{}
	for _, tr := range res.FSMGraph {
		if tr.Type == tcpSpec.Type {
			static[tr.From+" -> "+tr.To] = true
		}
	}
	if len(static) != len(tcpSpec.Transitions) {
		t.Errorf("extracted %d TCP transitions, spec has %d", len(static), len(tcpSpec.Transitions))
	}
	for _, tr := range tcpSpec.Transitions {
		key := tcpSpec.StateName(tr.From) + " -> " + tcpSpec.StateName(tr.To)
		if !static[key] {
			t.Errorf("spec transition %s not extracted from the module", key)
		}
	}

	// The static graph must include both corpus edge directions (the
	// a->b edge flows through a transitive-acquire summary and a With
	// closure) alongside the real kernel edges.
	hasEdge := func(outer, inner string) bool {
		for _, e := range res.LockGraph {
			if e.Outer == outer && e.Inner == inner {
				return true
			}
		}
		return false
	}
	for _, e := range [][2]string{
		{"corpus.a", "corpus.b"},
		{"corpus.b", "corpus.a"},
		{"slock", "ehash.lock"},
		{"slock", "base.lock"},
		{"slock", "ep.lock"},
	} {
		if !hasEdge(e[0], e[1]) {
			t.Errorf("static lock graph missing edge %s -> %s", e[0], e[1])
		}
	}
}

// TestRunIsDeterministic loads the repository plus the golden corpus
// twice from scratch and requires byte-identical JSON: pass output —
// including the alloc and shard findings the corpus provokes — must
// not depend on map iteration order anywhere in the analyzer itself.
func TestRunIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full type-check loads")
	}
	overlay := corpusOverlay(t)
	var out [2][]byte
	for i := range out {
		prog, err := LoadWithOverlay(repoRoot, overlay)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = Run(prog).JSON()
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Fatalf("two runs produced different JSON:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", out[0], out[1])
	}
	for _, pass := range []string{PassAlloc, PassShard, PassFSM} {
		if !bytes.Contains(out[0], []byte(`"`+pass+`"`)) {
			t.Errorf("determinism run produced no %s findings — the corpus should provoke some", pass)
		}
	}
}

// TestRestrictedPathMatching pins which import paths the
// restricted-package rules apply to: internal/<name> packages in the
// restricted set and everything below them, never a package that only
// shares a name prefix, never an exempt package, never code outside
// internal/.
func TestRestrictedPathMatching(t *testing.T) {
	for _, c := range []struct {
		path string
		want bool
	}{
		{"fastsocket/internal/sim", true},
		{"fastsocket/internal/experiment", true},
		{"fastsocket/internal/fault", true},
		{"fastsocket/internal/kernel/vetcorpus_det", true},
		{"fastsocket/internal/simx", false},
		{"fastsocket/internal/app", false},
		{"fastsocket/internal/vet", false},
		// sweep and shard use goroutines by design; their exemption
		// keeps them outside even though they live under internal/.
		{"fastsocket/internal/sweep", false},
		{"fastsocket/internal/shard", false},
		{"fastsocket/cmd/fsvet", false},
		{"fastsocket/examples/quickstart", false},
		{"fastsocket", false},
		{"fastsocket/vetcorpus/unrestricted", false},
	} {
		if got := Restricted(c.path); got != c.want {
			t.Errorf("Restricted(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

// TestCrossCheck seeds deliberate mismatches in both directions and
// checks the classification: observed-but-not-static edges are
// analyzer bugs (fail), static-but-not-observed are untested
// interactions (informational).
func TestCrossCheck(t *testing.T) {
	static := []StaticEdge{
		{Outer: "slock", Inner: "ehash.lock"},
		{Outer: "slock", Inner: "base.lock"},
	}
	observed := []lock.ObservedEdge{
		{Outer: "slock", Inner: "ehash.lock", Sites: []string{"x"}},
		{Outer: "ghost", Inner: "slock", Sites: []string{"y"}},
	}
	cc := CrossCheck(static, observed)
	if cc.OK() {
		t.Fatalf("expected failure: observed ghost edge is missing from static graph")
	}
	if len(cc.Missing) != 1 || cc.Missing[0].Outer != "ghost" {
		t.Fatalf("Missing = %+v, want the ghost edge", cc.Missing)
	}
	if len(cc.Untested) != 1 || cc.Untested[0].Inner != "base.lock" {
		t.Fatalf("Untested = %+v, want slock->base.lock", cc.Untested)
	}

	clean := CrossCheck(static, []lock.ObservedEdge{
		{Outer: "slock", Inner: "ehash.lock"},
		{Outer: "slock", Inner: "base.lock"},
	})
	if !clean.OK() || len(clean.Untested) != 0 {
		t.Fatalf("expected clean cross-check, got %s", clean.Summary())
	}
}

// TestFSMCross seeds synthetic observed matrices against a small spec
// and static graph: an observed edge with no static site fails the
// check, an unexercised non-defensive spec edge counts against
// coverage, and defensive edges stay out of the denominator.
func TestFSMCross(t *testing.T) {
	spec := &FSMSpec{
		Type:   "t.S",
		States: []string{"A", "B", "C"},
		Transitions: []SpecTransition{
			{From: 0, To: 1, Why: "open"},
			{From: 1, To: 2, Why: "close"},
			{From: 2, To: 0, Why: "sweep", Defensive: true},
		},
	}
	graph := []FSMTransition{
		{Type: "t.S", From: "A", To: "B"},
		{Type: "t.S", From: "B", To: "C"},
		{Type: "t.S", From: "C", To: "A"},
		{Type: "other.T", From: "B", To: "A"}, // other machine: must not leak in
	}
	observed := []stats.FSMEdge{
		{From: "A", To: "B", Count: 10},
		{From: "B", To: "A", Count: 1}, // no static site in t.S
	}
	res := FSMCross(spec, graph, observed)
	if res.OK(0.9) {
		t.Fatalf("expected failure, got %+v", res)
	}
	if len(res.Unexpected) != 1 || !strings.Contains(res.Unexpected[0], "B -> A") {
		t.Errorf("Unexpected = %v, want the B -> A edge", res.Unexpected)
	}
	if res.Required != 2 || res.Covered != 1 {
		t.Errorf("coverage = %d/%d, want 1/2 (defensive edge excluded)", res.Covered, res.Required)
	}
	if len(res.Uncovered) != 1 || !strings.Contains(res.Uncovered[0], "B -> C") {
		t.Errorf("Uncovered = %v, want B -> C", res.Uncovered)
	}

	// Full legal coverage passes even with the defensive edge silent.
	clean := FSMCross(spec, graph, []stats.FSMEdge{
		{From: "A", To: "B", Count: 5},
		{From: "B", To: "C", Count: 5},
	})
	if !clean.OK(0.9) || clean.Coverage() != 1 {
		t.Fatalf("expected clean cross-check, got %+v", clean)
	}
}

// TestTCPSpecNames pins the spec's state table to tcp.State's String
// rendering so the runtime tracer's edge names and the static graph's
// can never drift apart.
func TestTCPSpecNames(t *testing.T) {
	spec := TCPSpec()
	if len(spec.States) != tcp.NumStates {
		t.Fatalf("spec has %d states, tcp has %d", len(spec.States), tcp.NumStates)
	}
	for i, name := range spec.States {
		if want := tcp.State(i).String(); name != want {
			t.Errorf("state %d named %q in spec, %q in tcp", i, name, want)
		}
	}
}

// TestBaselineRoundTrip exercises baseline parsing and matching,
// including staleness detection and the column-insensitive key.
func TestBaselineRoundTrip(t *testing.T) {
	findings := []Finding{
		{File: "a.go", Line: 1, Col: 2, Pass: PassUnits, Msg: "m1"},
		{File: "b.go", Line: 3, Col: 4, Pass: PassCharge, Msg: "m2"},
	}
	res := &Result{Findings: findings, LockGraph: []StaticEdge{}}
	base, err := ParseBaseline(res.JSON())
	if err != nil {
		t.Fatal(err)
	}
	// Column drift must not un-baseline a finding; a fixed finding must
	// be reported stale.
	current := []Finding{{File: "a.go", Line: 1, Col: 9, Pass: PassUnits, Msg: "m1"}}
	fresh, stale := ApplyBaseline(current, base)
	if len(fresh) != 0 {
		t.Errorf("fresh = %v, want none", fresh)
	}
	if len(stale) != 1 || stale[0].File != "b.go" {
		t.Errorf("stale = %v, want the fixed b.go entry", stale)
	}
	if _, err := ParseBaseline([]byte("not json")); err == nil {
		t.Errorf("ParseBaseline accepted garbage")
	}
}

// TestFindingString pins the human-readable rendering the CI log shows.
func TestFindingString(t *testing.T) {
	f := Finding{File: "internal/sim/sim.go", Line: 7, Col: 2, Pass: PassDeterminism, Msg: "boom"}
	want := "internal/sim/sim.go:7:2: [determinism] boom"
	if got := fmt.Sprint(f); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
