package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// checkBalance is the lockorder pass's per-function lock-balance
// check. Where the class walk in locks.go asks which lock classes nest,
// this asks whether each lock.SpinLock instance taken in a function is
// given back: every Acquire or TryAcquire must be matched by a Release
// (directly or via defer) on every return path of the same function, a
// lock must not be acquired again while held or carried into the next
// loop iteration, and a successful `if l.TryAcquire(c)` must release
// inside its guarded branch. Function literals are checked on their
// own. Locks are keyed by instance text "recv(ctx)" (e.g.
// "sk.Slock(t)"), so the same lock taken under two contexts tracks
// separately and no class resolution is needed.
//
// The check runs on every loaded package and, alone among the passes,
// on _test.go files too: a test that leaks a lock drives the model
// into a state no kernel path can reach. A function that deliberately
// acquires on behalf of its caller carries
// //fsvet:ignore lockorder <reason>.
func (v *vetter) checkBalance() {
	for _, ip := range v.prog.Paths {
		for _, file := range v.prog.Files[ip] {
			v.balanceFile(v.prog.Info, file)
		}
		for _, file := range v.prog.TestFiles[ip] {
			v.balanceFile(v.prog.TestInfo, file)
		}
	}
}

func (v *vetter) balanceFile(info *types.Info, file *ast.File) {
	b := &balancer{v: v, info: info, reported: map[string]bool{}}
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
			b.checkFunc(fn.Body)
		}
	}
}

type balancer struct {
	v        *vetter
	info     *types.Info
	reported map[string]bool // acquire position + message
}

// heldLocks is the set of lock instances held at a program point, with
// the acquisition position, plus those whose Release is deferred.
type heldLocks struct {
	held     map[string]token.Pos
	deferred map[string]bool
}

func newHeldLocks() *heldLocks {
	return &heldLocks{held: map[string]token.Pos{}, deferred: map[string]bool{}}
}

func (s *heldLocks) clone() *heldLocks {
	n := newHeldLocks()
	for k, p := range s.held {
		n.held[k] = p
	}
	for k := range s.deferred {
		n.deferred[k] = true
	}
	return n
}

func (s *heldLocks) keys() []string {
	keys := make([]string, 0, len(s.held))
	for k := range s.held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// intersect merges the states of branches that fall through: a lock is
// held after the merge only if every branch holds it; a deferred
// Release in any branch covers the rest of the function.
func intersect(outs []*heldLocks) *heldLocks {
	merged := newHeldLocks()
	if len(outs) == 0 {
		return merged
	}
	for k, p := range outs[0].held {
		inAll := true
		for _, o := range outs[1:] {
			if _, ok := o.held[k]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			merged.held[k] = p
		}
	}
	for _, o := range outs {
		for k := range o.deferred {
			merged.deferred[k] = true
		}
	}
	return merged
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opAcquire
	opTryAcquire
	opRelease
)

// lockOp classifies a call as a lock.SpinLock Acquire, TryAcquire or
// Release and returns its instance key.
func (b *balancer) lockOp(e ast.Expr) (lockOpKind, string, token.Pos) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return opNone, "", token.NoPos
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	fn := exprFunc(b.info, call.Fun)
	if !ok || fn == nil {
		return opNone, "", token.NoPos
	}
	var op lockOpKind
	switch fullName(fn) {
	case lockAcquire:
		op = opAcquire
	case lockTryAcquire:
		op = opTryAcquire
	case lockRelease:
		op = opRelease
	default:
		return opNone, "", token.NoPos
	}
	return op, types.ExprString(sel.X) + "(" + types.ExprString(call.Args[0]) + ")", call.Pos()
}

// report files a finding once per acquisition site and message: a leak
// reached along several paths is one finding.
func (b *balancer) report(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprint(pos) + msg
	if b.reported[key] {
		return
	}
	b.reported[key] = true
	b.v.report(pos, PassLockOrder, "%s", msg)
}

// checkFunc analyzes one function (or function literal) body with
// nothing held.
func (b *balancer) checkFunc(body *ast.BlockStmt) {
	st := newHeldLocks()
	if b.block(body.List, st) {
		return
	}
	for _, k := range st.keys() {
		b.report(st.held[k], "lock %s is still held when the function ends: missing Release", k)
	}
}

// block processes a statement list, mutating st, and reports whether
// control cannot fall off its end.
func (b *balancer) block(list []ast.Stmt, st *heldLocks) bool {
	for _, stmt := range list {
		if b.stmt(stmt, st) {
			return true
		}
	}
	return false
}

// stmt processes one statement and reports whether it terminates
// control flow in its block.
func (b *balancer) stmt(stmt ast.Stmt, st *heldLocks) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		b.expr(s.X, st)
		return terminatingCall(s.X)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			b.expr(rhs, st)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, val := range vs.Values {
						b.expr(val, st)
					}
				}
			}
		}
	case *ast.GoStmt, *ast.SendStmt, *ast.IncDecStmt:
		b.funcLits(s)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			b.expr(r, st)
		}
		for _, k := range st.keys() {
			b.report(st.held[k], "lock %s is not released on a return path (return at line %d)",
				k, b.v.prog.Fset.Position(s.Pos()).Line)
		}
		return true
	case *ast.DeferStmt:
		if op, key, _ := b.lockOp(s.Call); op == opRelease {
			delete(st.held, key)
			st.deferred[key] = true
			return false
		}
		// defer func() { ... Release ... }(): its releases cover the
		// rest of the function; the literal is also checked alone.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if op, key, _ := b.lockOp(call); op == opRelease {
						delete(st.held, key)
						st.deferred[key] = true
					}
				}
				return true
			})
			b.checkFunc(lit.Body)
		}
	case *ast.BlockStmt:
		return b.block(s.List, st)
	case *ast.IfStmt:
		return b.ifStmt(s, st)
	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, st)
		}
		b.loopBody(s.Body, st)
	case *ast.RangeStmt:
		b.funcLits(s.X)
		b.loopBody(s.Body, st)
	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, st)
		}
		return b.cases(s.Body, st)
	case *ast.TypeSwitchStmt:
		return b.cases(s.Body, st)
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			if comm, ok := cc.(*ast.CommClause); ok {
				b.block(comm.Body, st.clone())
			}
		}
	case *ast.LabeledStmt:
		return b.stmt(s.Stmt, st)
	}
	// break/continue/goto: merging across jumps is beyond this
	// structural check; they are treated as falling through.
	return false
}

// expr handles an expression evaluated for its effect or its value
// (`ok := l.TryAcquire(c)` holds the lock just as a bare call does),
// then checks the function literals inside it.
func (b *balancer) expr(e ast.Expr, st *heldLocks) {
	b.funcLits(e)
	if op, key, pos := b.lockOp(e); op != opNone {
		b.apply(op, key, pos, st)
	}
}

// apply updates the state for one lock operation, reporting a
// re-acquisition without an intervening Release.
func (b *balancer) apply(op lockOpKind, key string, pos token.Pos, st *heldLocks) {
	switch op {
	case opAcquire, opTryAcquire:
		if prev, ok := st.held[key]; ok {
			b.report(pos, "lock %s acquired again while already held (first acquired at line %d)",
				key, b.v.prog.Fset.Position(prev).Line)
			return
		}
		if !st.deferred[key] {
			st.held[key] = pos
		}
	case opRelease:
		delete(st.held, key)
	}
}

// ifStmt merges branches and models the two TryAcquire guards:
//
//	if l.TryAcquire(c) { ... }   // held only inside the then-branch
//	if !l.TryAcquire(c) { ... }  // held after the statement
func (b *balancer) ifStmt(s *ast.IfStmt, st *heldLocks) bool {
	if s.Init != nil {
		b.stmt(s.Init, st)
	}
	var tryKey string
	var tryPos token.Pos
	negated := false
	if call, neg := tryAcquireCond(s.Cond); call != nil {
		if op, key, pos := b.lockOp(call); op == opTryAcquire {
			tryKey, tryPos, negated = key, pos, neg
		}
	}

	thenSt := st.clone()
	if tryKey != "" && !negated {
		thenSt.held[tryKey] = tryPos
	}
	thenTerm := b.block(s.Body.List, thenSt)
	if tryKey != "" && !negated && !thenTerm {
		// Falling out of a successful-TryAcquire guard still holding
		// the lock leaks it: later statements run on both outcomes.
		if _, held := thenSt.held[tryKey]; held {
			b.report(tryPos, "lock %s from TryAcquire is not released inside the guarded branch", tryKey)
			delete(thenSt.held, tryKey)
		}
	}

	elseSt := st.clone()
	if tryKey != "" && negated {
		elseSt.held[tryKey] = tryPos
	}
	elseTerm := false
	switch e := s.Else.(type) {
	case *ast.BlockStmt:
		elseTerm = b.block(e.List, elseSt)
	case *ast.IfStmt:
		elseTerm = b.ifStmt(e, elseSt)
	}

	switch {
	case thenTerm && elseTerm:
		*st = *elseSt
		return true
	case thenTerm:
		*st = *elseSt
	case elseTerm:
		*st = *thenSt
	default:
		*st = *intersect([]*heldLocks{thenSt, elseSt})
	}
	return false
}

// loopBody flags acquisitions that survive into the next iteration.
func (b *balancer) loopBody(body *ast.BlockStmt, st *heldLocks) {
	bodySt := st.clone()
	b.block(body.List, bodySt)
	for _, k := range bodySt.keys() {
		if _, outer := st.held[k]; !outer {
			b.report(bodySt.held[k], "lock %s acquired inside a loop is not released before the next iteration", k)
		}
	}
}

// cases merges switch clauses like parallel if-branches; without a
// default clause, falling past every case is one more branch.
func (b *balancer) cases(body *ast.BlockStmt, st *heldLocks) bool {
	var outs []*heldLocks
	hasDefault := false
	for _, cc := range body.List {
		clause, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		if clause.List == nil {
			hasDefault = true
		}
		cs := st.clone()
		if !b.block(clause.Body, cs) {
			outs = append(outs, cs)
		}
	}
	if !hasDefault {
		outs = append(outs, st.clone())
	}
	if len(outs) == 0 && len(body.List) > 0 {
		return true
	}
	*st = *intersect(outs)
	return false
}

// funcLits checks the function literals inside a node as independent
// functions: their lock pairing is their own.
func (b *balancer) funcLits(n ast.Node) {
	ast.Inspect(n, func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok {
			b.checkFunc(lit.Body)
			return false
		}
		return true
	})
}

// terminatingCall recognizes calls after which control does not return
// to this block: panic, os.Exit, and the testing/log fatals and skips.
func terminatingCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Fatal", "Fatalf", "Fatalln", "Exit", "SkipNow", "Skip", "Skipf":
			return true
		}
	}
	return false
}
