package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
)

// checkDeterminism enforces the single-threaded, bit-reproducible
// execution model on restricted packages: no forbidden import (even
// one no function reaches, like a package-level sync.Mutex), no
// goroutines, no channel machinery or select, and no map iteration
// whose order can leak into results. Map-ness comes from the type
// checker, so a map behind a named type or a multi-step flow is
// caught, and a slice that merely shares a name with a map field is
// not flagged.
func (v *vetter) checkDeterminism() {
	for _, ip := range v.prog.Paths {
		if !Restricted(ip) {
			continue
		}
		for _, file := range v.prog.Files[ip] {
			v.determinismFile(file)
		}
	}
}

func (v *vetter) determinismFile(file *ast.File) {
	info := v.prog.Info
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		if why, bad := ForbiddenImports[path]; bad {
			v.report(imp.Pos(), PassDeterminism,
				"import %q is forbidden in deterministic simulation packages (%s)", path, why)
		}
	}
	var enclosing []*ast.FuncDecl
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			enclosing = append(enclosing, n)
		case *ast.GoStmt:
			v.report(n.Pos(), PassDeterminism, "goroutines are forbidden: the simulation is single-threaded")
		case *ast.SelectStmt:
			v.report(n.Pos(), PassDeterminism, "select statements are forbidden in deterministic simulation packages")
		case *ast.SendStmt:
			v.report(n.Pos(), PassDeterminism, "channel sends are forbidden in deterministic simulation packages")
		case *ast.ChanType:
			v.report(n.Pos(), PassDeterminism, "channel types are forbidden in deterministic simulation packages")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				v.report(n.Pos(), PassDeterminism, "channel receives are forbidden in deterministic simulation packages")
			}
		case *ast.RangeStmt:
			tv, ok := info.Types[n.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			var fn *ast.FuncDecl
			for i := len(enclosing) - 1; i >= 0; i-- {
				if enclosing[i].Body != nil && enclosing[i].Body.Pos() <= n.Pos() && n.End() <= enclosing[i].Body.End() {
					fn = enclosing[i]
					break
				}
			}
			if v.mapRangeAllowed(fn, n) {
				return true
			}
			v.report(n.Pos(), PassDeterminism,
				"iteration over map %s (type %s): order is nondeterministic; collect into a slice and sort it, or iterate sorted keys",
				types.ExprString(n.X), tv.Type)
		}
		return true
	})
}

// mapRangeAllowed implements the sorted-collect allowance with object
// identity instead of names: the loop body may only append to slice
// variables, and at least one of those variables must be passed to a
// sort/slices call later in the same function.
func (v *vetter) mapRangeAllowed(fn *ast.FuncDecl, rng *ast.RangeStmt) bool {
	if fn == nil {
		return false
	}
	targets, onlyAppends := v.sliceAppendTargets(rng.Body)
	return onlyAppends && len(targets) > 0 && v.sortedAfter(fn.Body, rng.End(), targets)
}

func (v *vetter) sliceAppendTargets(body *ast.BlockStmt) (map[types.Object]bool, bool) {
	info := v.prog.Info
	targets := map[types.Object]bool{}
	ok := true
	var visit func(list []ast.Stmt)
	visit = func(list []ast.Stmt) {
		for _, stmt := range list {
			switch s := stmt.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					ok = false
					continue
				}
				for i := range s.Lhs {
					lhs, lok := s.Lhs[i].(*ast.Ident)
					call, cok := s.Rhs[i].(*ast.CallExpr)
					if !lok || !cok {
						ok = false
						continue
					}
					fun, fok := call.Fun.(*ast.Ident)
					if !fok || fun.Name != "append" || len(call.Args) < 2 {
						ok = false
						continue
					}
					first, aok := ast.Unparen(call.Args[0]).(*ast.Ident)
					obj := info.ObjectOf(lhs)
					if !aok || obj == nil || info.ObjectOf(first) != obj {
						ok = false
						continue
					}
					targets[obj] = true
				}
			case *ast.IfStmt:
				visit(s.Body.List)
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					visit(e.List)
				case *ast.IfStmt:
					visit([]ast.Stmt{e})
				case nil:
				default:
					ok = false
				}
			case *ast.BranchStmt:
				if s.Tok != token.CONTINUE {
					ok = false
				}
			case *ast.EmptyStmt:
			default:
				ok = false
			}
		}
	}
	visit(body.List)
	return targets, ok
}

func (v *vetter) sortedAfter(body *ast.BlockStmt, pos token.Pos, targets map[types.Object]bool) bool {
	info := v.prog.Info
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := exprFunc(info, call.Fun)
		if fn == nil || fn.Pkg() == nil || (fn.Pkg().Path() != "sort" && fn.Pkg().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && targets[info.ObjectOf(id)] {
					found = true
					return false
				}
				return true
			})
		}
		return true
	})
	return found
}

// exprFunc resolves a call's fun expression to a *types.Func where it
// statically names one (package function or method value).
func exprFunc(info *types.Info, e ast.Expr) *types.Func {
	switch fun := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// checkReach reports restricted functions that reach forbidden-import
// functionality (time, math/rand, sync) through any call chain in the
// module, not merely a direct import. Exempt packages are barriers:
// internal/sweep legitimately uses sync, and calls into it are covered
// by the recorded exemption.
func (v *vetter) checkReach(cg *callGraph) {
	// direct taint: forbidden packages whose objects a function's body
	// uses (calls, types, constants — any identifier resolving there).
	direct := map[*types.Func][]string{}
	for _, fn := range cg.funcs {
		if exemptFunc(cg, fn) {
			continue
		}
		set := map[string]bool{}
		ast.Inspect(cg.decls[fn], func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := v.prog.Info.Uses[id]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if _, bad := ForbiddenImports[obj.Pkg().Path()]; bad {
				set[obj.Pkg().Path()] = true
			}
			return true
		})
		if len(set) > 0 {
			direct[fn] = sortedKeys(set)
		}
	}

	// reaches: fn -> forbidden pkg -> first hop toward it (for the
	// reported chain). Fixpoint over the may-call relation, excluding
	// exempt functions.
	type via struct{ next *types.Func }
	reaches := map[*types.Func]map[string]via{}
	for fn, pkgs := range direct {
		m := map[string]via{}
		for _, p := range pkgs {
			m[p] = via{}
		}
		reaches[fn] = m
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range cg.funcs {
			if exemptFunc(cg, fn) {
				continue
			}
			for _, c := range cg.callees[fn] {
				if exemptFunc(cg, c) {
					continue
				}
				for p := range reaches[c] {
					if _, ok := reaches[fn][p]; ok {
						continue
					}
					if reaches[fn] == nil {
						reaches[fn] = map[string]via{}
					}
					reaches[fn][p] = via{next: c}
					changed = true
				}
			}
		}
	}

	// Report restricted functions at the frontier: direct users, and
	// restricted functions whose chain passes through non-restricted
	// module code (a restricted callee is reported on its own).
	for _, fn := range cg.funcs {
		if !Restricted(cg.pkgOf[fn]) {
			continue
		}
		for _, p := range sortedReachKeys(reaches[fn]) {
			r := reaches[fn][p]
			if r.next != nil && Restricted(cg.pkgOf[r.next]) {
				continue
			}
			chain := qualifiedName(fn)
			for hop := r.next; hop != nil; {
				chain += " -> " + qualifiedName(hop)
				hop = reaches[hop][p].next
			}
			v.report(cg.decls[fn].Name.Pos(), PassReach,
				"%s reaches forbidden package %q (%s) via %s",
				qualifiedName(fn), p, ForbiddenImports[p], chain)
		}
	}
}

func exemptFunc(cg *callGraph, fn *types.Func) bool {
	dir := PkgDir(cg.pkgOf[fn])
	rest, ok := strings.CutPrefix(dir, "internal/")
	if !ok {
		return false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	_, exempt := exemptPkgs[rest]
	return exempt
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedReachKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
