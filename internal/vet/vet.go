// Package vet implements fsvet, the project's static analyzer. The
// simulation's published numbers rest on invariants the compiler
// cannot check — bit-reproducible execution and balanced, consistently
// ordered spinlocks among them — and fsvet enforces them. It
// type-checks the whole module, tests included, with go/types (go.mod
// stays dependency-free; only the standard library is used) and runs
// these passes:
//
//   - determinism: restricted packages must not import time,
//     math/rand or sync, launch goroutines, use channels or select, or
//     iterate a map (by its real type) unless the loop only collects
//     into a slice that is sorted afterwards.
//   - reach: restricted-import reachability — restricted packages must
//     not reach time/math/rand/sync functionality through any call
//     chain, not merely avoid importing it directly. Exempt packages
//     (internal/sweep) are barriers with their reason on record.
//   - units: bare integer literals flowing into sim.Time positions,
//     resolved through the type checker (parameters, conversions, and
//     arithmetic mixing bare ints into sim.Time expressions).
//   - lockorder: an interprocedural static lock-order graph. Held
//     lock.SpinLock class sets propagate across the call graph
//     (including interface devirtualization, e.g. tcp.Env to
//     *kernel.Kernel); the pass reports potential order inversions.
//     Its lock-balance check, on every package and test file, reports
//     an Acquire/TryAcquire not released on some return path,
//     re-acquired while held, carried into the next loop iteration,
//     or (TryAcquire) not released inside its guarded branch.
//   - charge: functions in restricted packages that mutate reachable
//     kernel/TCB/VFS state on some path without charging virtual time
//     (Charge/Spin, directly or transitively) — simulated work that
//     would otherwise be free.
//   - escape: sim.Event value handles stored in long-lived struct
//     fields and later used without generation revalidation
//     (Live/Cancelled) — use-after-free against the pooled scheduler.
//   - alloc: heap-allocation sites (composite literals, new/make,
//     append, map inserts, interface boxing, string conversions,
//     closures) in every function reachable from the //fsvet:hotpath
//     roots, checked in both directions against the committed
//     per-function budget in .fsvet-allocbudget.json; the budget's
//     runtime ceilings are cross-checked against MemStats and
//     testing.AllocsPerRun by fsvet -alloc-cross-check.
//   - shard: hot-path writes to kernel/TCB/stats state must be under a
//     lock at the site, in a function only ever entered with a lock
//     held, on //fsvet:percore state, or explicitly waived with
//     //fsvet:shared <reason> — the per-core isolation proof the
//     future sharded engine depends on.
//   - mailbox: shard.Engine.Post is the parallel engine's only
//     cross-domain injection primitive; calling it is reserved to
//     functions marked //fsvet:mailbox <reason> (the fabric delivery
//     path), so no code can route a cross-shard effect around the
//     deterministic barrier mailboxes. A marked function that never
//     posts is a stale marker, also reported.
//   - fsm: a flow-sensitive extraction of the TCP state machine. Every
//     assignment to a Sock.State field (direct stores, setter calls,
//     birth-state composite literals) becomes a static transition with
//     its guarded prior states and flag conditions recovered from the
//     enclosing control flow; the relation is diffed both ways against
//     the committed spec in fsmspec.go. A transition with no spec edge
//     is a finding (add it to the spec with a justification or waive
//     it with //fsvet:fsm <reason>); a spec edge with no static site
//     means the implementation lost the edge or the spec is stale. The
//     extracted relation (Result.FSMGraph) is also the reference for
//     the runtime cross-check: fsvet -fsm-cross-check replays the fsm
//     experiment mix under the stats.FSMTrace transition tracer and
//     fails if any observed transition lacks a static site or the mix
//     covers less than FSMCoverageFloor of the spec's non-defensive
//     edges.
//
// Findings are suppressible per line with
//
//	//fsvet:ignore <pass> <reason>
//
// on the finding's line or the line above (fsm findings also accept
// the shorthand //fsvet:fsm <reason>). Waivers must earn their keep:
// a directive that suppresses nothing — no finding on its line or the
// next — is itself reported as stale, so audited exceptions cannot
// outlive the code they excused. A committed baseline file (JSON, same
// shape as -json output) can park pre-existing findings; the
// repository's baseline is kept empty.
package vet

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// Pass names, as used in findings and //fsvet:ignore directives.
const (
	PassDeterminism = "determinism"
	PassReach       = "reach"
	PassUnits       = "units"
	PassLockOrder   = "lockorder"
	PassCharge      = "charge"
	PassEscape      = "escape"
	PassAlloc       = "alloc"
	PassShard       = "shard"
	PassMailbox     = "mailbox"
	PassFSM         = "fsm"
	// PassDirective flags malformed fsvet directives themselves.
	PassDirective = "fsvet"
)

var knownPasses = map[string]bool{
	PassDeterminism: true,
	PassReach:       true,
	PassUnits:       true,
	PassLockOrder:   true,
	PassCharge:      true,
	PassEscape:      true,
	PassAlloc:       true,
	PassShard:       true,
	PassMailbox:     true,
	PassFSM:         true,
}

// Finding is one fsvet diagnostic with a stable, root-relative anchor.
type Finding struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Pass string `json:"pass"`
	Msg  string `json:"msg"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Pass, f.Msg)
}

// key is the identity used for baseline matching: position column is
// excluded so mechanical reformatting does not un-baseline a finding.
func (f Finding) key() string {
	return fmt.Sprintf("%s:%d [%s] %s", f.File, f.Line, f.Pass, f.Msg)
}

// Result is a complete fsvet run: the findings plus the static
// lock-order graph (for the lockdep cross-check) and the static TCP
// transition relation (for the fsm cross-check).
type Result struct {
	Findings  []Finding       `json:"findings"`
	LockGraph []StaticEdge    `json:"lock_graph"`
	FSMGraph  []FSMTransition `json:"fsm_graph"`
}

// JSON renders the result in a stable form: findings sorted by
// position, lock graph sorted by (outer, inner). Two runs over the
// same tree produce byte-identical output.
func (r *Result) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic("vet: result marshal: " + err.Error())
	}
	return append(b, '\n')
}

// Run executes every pass over the program — independent passes run
// concurrently on a single shared type-checked load — and returns the
// sorted, unsuppressed findings plus the static lock and fsm graphs.
func Run(p *Program) *Result {
	v := &vetter{prog: p, sup: collectDirectives(p)}
	v.findings = append(v.findings, v.sup.malformed...)

	cg := buildCallGraph(p)
	mk := v.collectMarkers()
	v.mk = mk
	_, hot := hotPathSet(cg, mk)

	var lockGraph []StaticEdge
	var fsmGraph []FSMTransition
	// Pass groups are independent of each other (shard needs the lock
	// analysis, so it chains after lockorder). All shared inputs —
	// program, call graph, markers, type info — are read-only by now;
	// findings and suppression hits funnel through the vetter mutex.
	groups := []func(){
		func() { v.checkDeterminism() },
		func() { v.checkReach(cg) },
		func() { v.checkUnits() },
		func() {
			var la *lockAnalysis
			la, lockGraph = v.checkLocks(cg, hot)
			v.checkShard(cg, hot, la, mk)
		},
		func() { v.checkCharge(cg) },
		func() { v.checkEscape() },
		func() { v.checkAlloc(cg, hot) },
		func() { v.checkMailbox(cg, mk) },
		func() { fsmGraph = v.checkFSM(cg) },
	}
	var wg sync.WaitGroup
	for _, g := range groups {
		wg.Add(1)
		go func(g func()) {
			defer wg.Done()
			g()
		}(g)
	}
	wg.Wait()

	// Stale waivers: an //fsvet:ignore or //fsvet:fsm directive that
	// suppressed nothing this run protects nothing and must go.
	for _, td := range v.sup.tracked {
		if !v.sup.used[td.key] {
			v.findings = append(v.findings, Finding{
				File: td.key.file, Line: td.key.line, Col: td.col, Pass: PassDirective,
				Msg: fmt.Sprintf("stale %s directive: no %s finding on this line or the next to suppress; remove it", td.text, td.key.pass),
			})
		}
	}

	sort.Slice(v.findings, func(i, j int) bool {
		a, b := v.findings[i], v.findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Msg < b.Msg
	})
	return &Result{Findings: v.findings, LockGraph: lockGraph, FSMGraph: fsmGraph}
}

// ApplyBaseline removes findings recorded in the baseline, returning
// the survivors and the baseline entries that no longer match (stale
// entries should be pruned from the file).
func ApplyBaseline(findings []Finding, baseline []Finding) (fresh, stale []Finding) {
	base := map[string]int{}
	for _, f := range baseline {
		base[f.key()]++
	}
	for _, f := range findings {
		if base[f.key()] > 0 {
			base[f.key()]--
			continue
		}
		fresh = append(fresh, f)
	}
	for _, f := range baseline {
		if base[f.key()] > 0 {
			base[f.key()]--
			stale = append(stale, f)
		}
	}
	return fresh, stale
}

// ParseBaseline reads a baseline file: the JSON of a previous -json
// run (a Result) or a bare finding list.
func ParseBaseline(data []byte) ([]Finding, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err == nil && (r.Findings != nil || r.LockGraph != nil) {
		return r.Findings, nil
	}
	var fs []Finding
	if err := json.Unmarshal(data, &fs); err != nil {
		return nil, fmt.Errorf("vet: baseline is neither a result nor a finding list: %w", err)
	}
	return fs, nil
}

// vetter carries the shared state of one Run. The mutex serializes
// finding appends and suppression-hit bookkeeping across the
// concurrently running passes.
type vetter struct {
	prog     *Program
	sup      *suppressor
	mk       *markers
	mu       sync.Mutex
	findings []Finding
}

// report files a finding unless a directive on its line (or the line
// above) suppresses the pass.
func (v *vetter) report(pos token.Pos, pass, format string, args ...any) {
	tp := v.prog.RelPos(pos)
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.sup.suppressed(tp.Filename, tp.Line, pass) {
		return
	}
	v.findings = append(v.findings, Finding{
		File: tp.Filename, Line: tp.Line, Col: tp.Column,
		Pass: pass, Msg: fmt.Sprintf(format, args...),
	})
}

// reportGraph files a position-less, graph-level finding (a property of
// the whole extraction rather than one site); it cannot be waived with
// a line directive.
func (v *vetter) reportGraph(pass, file, format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.findings = append(v.findings, Finding{
		File: file, Pass: pass, Msg: fmt.Sprintf(format, args...),
	})
}

// --- Suppression directives ------------------------------------------

type supKey struct {
	file string
	line int
	pass string
}

// trackedDirective is a waiver eligible for staleness reporting:
// //fsvet:ignore and //fsvet:fsm directives must suppress something
// every run or be removed. (//fsvet:shared markers are excluded: they
// are state documentation as much as waivers.)
type trackedDirective struct {
	key  supKey
	col  int
	text string
}

type suppressor struct {
	lines     map[supKey]bool
	used      map[supKey]bool
	tracked   []trackedDirective
	malformed []Finding
}

// suppressed reports (and records, for staleness) whether a directive
// covers a finding of the pass at the line or the line above.
func (s *suppressor) suppressed(file string, line int, pass string) bool {
	hit := false
	for _, k := range []supKey{{file, line, pass}, {file, line - 1, pass}} {
		if s.lines[k] {
			s.used[k] = true
			hit = true
		}
	}
	return hit
}

// collectDirectives gathers //fsvet:ignore and //fsvet:fsm directives
// across every loaded file, tests included. Malformed directives are
// findings: they silently protect nothing.
func collectDirectives(p *Program) *suppressor {
	s := &suppressor{lines: map[supKey]bool{}, used: map[supKey]bool{}}
	for _, ip := range p.Paths {
		for _, files := range [][]*ast.File{p.Files[ip], p.TestFiles[ip]} {
			for _, file := range files {
				for _, cg := range file.Comments {
					for _, c := range cg.List {
						s.directive(p, c)
					}
				}
			}
		}
	}
	return s
}

// foreignIgnore matches another tool's line waiver (//<tool>:ignore).
// fsvet is the only analyzer here, so such a directive — a retired
// waiver syntax, say — protects nothing and is reported.
var foreignIgnore = regexp.MustCompile(`^([a-z][a-z0-9]*):ignore\b`)

func (s *suppressor) directive(p *Program, c *ast.Comment) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	tp := p.RelPos(c.Pos())
	switch {
	case strings.HasPrefix(text, "fsvet:ignore"):
		fields := strings.Fields(strings.TrimPrefix(text, "fsvet:ignore"))
		switch {
		case len(fields) == 0:
			s.malformed = append(s.malformed, Finding{File: tp.Filename, Line: tp.Line, Col: tp.Column,
				Pass: PassDirective, Msg: "fsvet:ignore needs a pass and a reason: //fsvet:ignore <pass> <reason>"})
		case !knownPasses[fields[0]]:
			s.malformed = append(s.malformed, Finding{File: tp.Filename, Line: tp.Line, Col: tp.Column,
				Pass: PassDirective, Msg: fmt.Sprintf("fsvet:ignore names unknown pass %q (known: determinism, reach, units, lockorder, charge, escape, alloc, shard, mailbox, fsm)", fields[0])})
		case len(fields) < 2:
			s.malformed = append(s.malformed, Finding{File: tp.Filename, Line: tp.Line, Col: tp.Column,
				Pass: PassDirective, Msg: fmt.Sprintf("fsvet:ignore %s needs a reason", fields[0])})
		default:
			k := supKey{tp.Filename, tp.Line, fields[0]}
			s.lines[k] = true
			s.tracked = append(s.tracked, trackedDirective{key: k, col: tp.Column, text: "//fsvet:ignore " + fields[0]})
		}
	case strings.HasPrefix(text, "fsvet:fsm"):
		// Site-level waiver for the fsm pass, with the audit reason
		// inline; a reasonless one protects nothing.
		if len(strings.Fields(strings.TrimPrefix(text, "fsvet:fsm"))) == 0 {
			s.malformed = append(s.malformed, Finding{File: tp.Filename, Line: tp.Line, Col: tp.Column,
				Pass: PassDirective, Msg: "fsvet:fsm needs a reason: //fsvet:fsm <reason>"})
			return
		}
		k := supKey{tp.Filename, tp.Line, PassFSM}
		s.lines[k] = true
		s.tracked = append(s.tracked, trackedDirective{key: k, col: tp.Column, text: "//fsvet:fsm"})
	case strings.HasPrefix(text, "fsvet:shared"):
		// A well-formed site-level shared waiver also suppresses the
		// shard pass on its line; collectMarkers reports malformed ones.
		if len(strings.Fields(strings.TrimPrefix(text, "fsvet:shared"))) > 0 {
			s.lines[supKey{tp.Filename, tp.Line, PassShard}] = true
		}
	case foreignIgnore.MatchString(text):
		s.malformed = append(s.malformed, Finding{File: tp.Filename, Line: tp.Line, Col: tp.Column,
			Pass: PassDirective, Msg: fmt.Sprintf("//%s:ignore is not an fsvet directive and suppresses nothing: use //fsvet:ignore <pass> <reason>",
				foreignIgnore.FindStringSubmatch(text)[1])})
	}
}
