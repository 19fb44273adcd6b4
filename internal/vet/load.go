package vet

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ModPath is the module path from go.mod; fsvet resolves module
// import paths underneath it from source.
const ModPath = "fastsocket"

// Program is a fully type-checked view of the module: every package
// under the root (plus any corpus overlays), with shared type
// information. All fsvet passes run against a Program.
type Program struct {
	Fset  *token.FileSet
	Root  string
	Info  *types.Info
	Pkgs  map[string]*types.Package // import path -> package
	Files map[string][]*ast.File    // import path -> parsed files
	// Paths lists the loaded module import paths in sorted order; all
	// pass output iterates in this order for determinism.
	Paths []string
	// TestFiles maps an import path to its package's _test.go files,
	// in-package and external. They are type-checked into TestInfo: the
	// in-package files together with a second copy of the package, the
	// external ones as a package of their own that imports the real
	// one. Only the lockorder pass's lock-balance check reads them;
	// every other pass sees non-test code only.
	TestFiles map[string][]*ast.File
	TestInfo  *types.Info

	// overlay maps an import path to an on-disk directory outside the
	// normal module layout (golden-corpus packages in testdata).
	overlay map[string]string
}

// Load parses and type-checks every package under root (skipping
// hidden directories and testdata), plus its _test.go files, against
// the standard library via the source importer. go.mod stays
// dependency-free, so nothing else can appear in the import graph.
func Load(root string) (*Program, error) {
	return load(root, nil)
}

// LoadWithOverlay is Load plus corpus packages: overlay maps synthetic
// module import paths (e.g. "fastsocket/internal/kernel/corpusfoo") to
// directories holding their sources. Overlay packages may import real
// module packages; the synthetic path decides restricted-package
// status exactly as it would for real code.
func LoadWithOverlay(root string, overlay map[string]string) (*Program, error) {
	return load(root, overlay)
}

func load(root string, overlay map[string]string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	p := &Program{
		Fset:      token.NewFileSet(),
		Root:      root,
		Info:      newInfo(),
		Pkgs:      map[string]*types.Package{},
		Files:     map[string][]*ast.File{},
		TestFiles: map[string][]*ast.File{},
		TestInfo:  newInfo(),
		overlay:   overlay,
	}
	ld := &loader{prog: p, std: importer.ForCompiler(p.Fset, "source", nil)}

	var paths []string
	seen := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, walkErr error) error {
		if walkErr != nil {
			return walkErr
		}
		if d.IsDir() {
			name := d.Name()
			if (strings.HasPrefix(name, ".") && path != root) || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if seen[dir] {
			return nil
		}
		seen[dir] = true
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := ModPath
		if rel != "." {
			ip = ModPath + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ip := range overlay {
		paths = append(paths, ip)
	}
	sort.Strings(paths)

	for _, ip := range paths {
		if _, err := ld.Import(ip); err != nil {
			return nil, fmt.Errorf("vet: load %s: %w", ip, err)
		}
	}
	p.Paths = make([]string, 0, len(p.Pkgs))
	for ip := range p.Pkgs {
		p.Paths = append(p.Paths, ip)
	}
	sort.Strings(p.Paths)
	for _, ip := range p.Paths {
		if err := ld.loadTests(ip); err != nil {
			return nil, fmt.Errorf("vet: load %s tests: %w", ip, err)
		}
	}
	return p, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// loader resolves imports: module paths from source under the root (or
// an overlay directory), everything else through the stdlib source
// importer.
type loader struct {
	prog *Program
	std  types.Importer
}

func (l *loader) Import(path string) (*types.Package, error) {
	p := l.prog
	if pkg, ok := p.Pkgs[path]; ok {
		return pkg, nil
	}
	if path != ModPath && !strings.HasPrefix(path, ModPath+"/") {
		return l.std.Import(path)
	}
	dir := l.dir(path)
	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	cfg := types.Config{Importer: l}
	pkg, err := cfg.Check(path, p.Fset, files, p.Info)
	if err != nil {
		return nil, err
	}
	p.Pkgs[path] = pkg
	p.Files[path] = files
	return pkg, nil
}

// loadTests type-checks a loaded package's _test.go files into
// TestInfo. Module imports, including an external test's import of
// the package under test, resolve to the real (non-test) packages, so
// an external test cannot see declarations from in-package test files.
func (l *loader) loadTests(path string) error {
	p := l.prog
	files, err := l.parseDir(l.dir(path), true)
	if err != nil || len(files) == 0 {
		return err
	}
	var inPkg, external []*ast.File
	for _, f := range files {
		if f.Name.Name == p.Pkgs[path].Name() {
			inPkg = append(inPkg, f)
		} else {
			external = append(external, f)
		}
	}
	cfg := types.Config{Importer: l}
	if len(inPkg) > 0 {
		withPkg := append(append([]*ast.File{}, p.Files[path]...), inPkg...)
		if _, err := cfg.Check(path, p.Fset, withPkg, p.TestInfo); err != nil {
			return err
		}
	}
	if len(external) > 0 {
		if _, err := cfg.Check(path+"_test", p.Fset, external, p.TestInfo); err != nil {
			return err
		}
	}
	p.TestFiles[path] = files
	return nil
}

// dir is the source directory of a module import path.
func (l *loader) dir(path string) string {
	if dir, ok := l.prog.overlay[path]; ok {
		return dir
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, ModPath), "/")
	return filepath.Join(l.prog.Root, filepath.FromSlash(rel))
}

// parseDir parses the directory's _test.go files (tests) or its other
// .go files (!tests).
func (l *loader) parseDir(dir string, tests bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") != tests {
			continue
		}
		f, err := parser.ParseFile(l.prog.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// RelPos renders a position with the filename relative to the module
// root, so findings and baselines are machine-independent.
func (p *Program) RelPos(pos token.Pos) token.Position {
	tp := p.Fset.Position(pos)
	if rel, err := filepath.Rel(p.Root, tp.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		tp.Filename = filepath.ToSlash(rel)
	}
	return tp
}

// PkgDir returns the import path's package directory path relative to
// the module ("internal/kernel"), used for restricted-package checks.
func PkgDir(importPath string) string {
	return strings.TrimPrefix(strings.TrimPrefix(importPath, ModPath), "/")
}

// Restricted reports whether the package at this import path must obey
// the determinism, unit and charge rules: internal/<name> packages
// feeding simulated results, minus the recorded exemptions.
func Restricted(importPath string) bool {
	rest, ok := strings.CutPrefix(PkgDir(importPath), "internal/")
	if !ok {
		return false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	if _, exempt := exemptPkgs[rest]; exempt {
		return false
	}
	return restrictedPkgs[rest]
}

// restrictedPkgs are the internal/<name> packages whose code feeds
// simulated results and therefore must stay deterministic.
var restrictedPkgs = map[string]bool{
	"sim": true, "lock": true, "cpu": true, "nic": true,
	"kernel": true, "tcb": true, "tcp": true, "vfs": true,
	"epoll": true, "ktimer": true, "core": true, "netproto": true,
	"workload": true, "experiment": true,
	// fault makes the per-run fault decisions; it must stay on the
	// seeded splitmix hash (no math/rand, no waivers) or replays and
	// parallel sweeps diverge.
	"fault": true,
}

// exemptPkgs are internal/<name> packages explicitly excluded from the
// restricted-package rules, with the reason on record. An entry here
// wins over restrictedPkgs. Exempt packages are also barriers for the
// reachability pass: restricted code calling into them is covered by
// the recorded exemption reason.
var exemptPkgs = map[string]string{
	// sweep runs independent simulation jobs on parallel host
	// goroutines. It never touches the inside of a running simulation:
	// each job builds its own sim.Loop, seeds its own PRNGs and writes
	// to its own result slot, so host scheduling can reorder only job
	// *completion*, never any simulated outcome. go test -race
	// ./internal/sweep asserts parallel results are byte-identical to
	// serial ones.
	"sweep": "host-parallel sweep orchestration; jobs are whole independently-seeded simulations",
	// shard is the conservative-lookahead parallel engine: real
	// goroutines step disjoint coupling domains (whole sim.Loops)
	// between barriers, and every cross-domain injection is mailed and
	// drained in (time, source shard, source sequence) order on the
	// coordinator. go test -race ./internal/shard and the sharded
	// digest-equality suite (make shardgate) prove parallel == serial
	// bit-for-bit.
	"shard": "conservative-lookahead parallel engine; domains are whole sim.Loops synchronized at deterministic mailbox barriers",
}

// ForbiddenImports are the packages a restricted package may neither
// import (determinism pass) nor reach through a call chain (reach
// pass).
var ForbiddenImports = map[string]string{
	"time":         "wall-clock time; use sim.Time",
	"math/rand":    "host randomness; use sim.Rand",
	"math/rand/v2": "host randomness; use sim.Rand",
	"sync":         "real synchronization; the simulation is single-threaded",
	"sync/atomic":  "real synchronization; the simulation is single-threaded",
}
