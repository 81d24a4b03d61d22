package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// walkHeld walks one function body in statement order, tracking which
// mutexes are held, and calls visit for every statement and expression
// node with the set held there. It is the one held-lock walker that
// lockhold and lockorder share; key names a mutex receiver the way the
// calling pass wants it reported (ok == false leaves a mutex untracked).
//
// The analysis is flow-approximate:
//   - an x.Lock()/x.RLock() statement opens a critical section and the
//     matching x.Unlock()/x.RUnlock() statement closes it; the lock call
//     itself is visited before its mutex joins the set;
//   - `defer x.Unlock()` keeps the mutex held to the end of the body;
//   - the branches of if/for/range/switch/select get a copy of the held
//     set, while a bare block and a labeled statement share it;
//   - a select or range statement is visited whole before its body; a
//     select's communications are not visited (the select statement
//     stands for them), but their operands are, since a send's channel
//     and value and a receive's channel are evaluated under the held set
//     before the select blocks;
//   - function literals, go calls and deferred calls are walked with
//     nothing held: they run in another goroutine or at function exit.
func walkHeld(info *types.Info, body *ast.BlockStmt, key func(recv ast.Expr) (string, bool), visit func(n ast.Node, held map[string]bool)) {
	w := &heldWalker{info: info, key: key, visit: visit}
	w.stmts(body.List, map[string]bool{})
}

type heldWalker struct {
	info  *types.Info
	key   func(recv ast.Expr) (string, bool)
	visit func(n ast.Node, held map[string]bool)
}

func (w *heldWalker) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *heldWalker) stmt(s ast.Stmt, held map[string]bool) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.visit(s, held)
		w.stmts(s.List, held)
	case *ast.LabeledStmt:
		w.visit(s, held)
		w.stmt(s.Stmt, held)
	case *ast.IfStmt:
		w.visit(s, held)
		w.opt(s.Init, held)
		w.node(s.Cond, held)
		w.stmts(s.Body.List, maps.Clone(held))
		w.opt(s.Else, maps.Clone(held))
	case *ast.ForStmt:
		w.visit(s, held)
		w.opt(s.Init, held)
		w.node(s.Cond, held)
		w.stmts(s.Body.List, maps.Clone(held))
		w.opt(s.Post, maps.Clone(held))
	case *ast.RangeStmt:
		w.visit(s, held)
		w.node(s.Key, held)
		w.node(s.Value, held)
		w.node(s.X, held)
		w.stmts(s.Body.List, maps.Clone(held))
	case *ast.SwitchStmt:
		w.visit(s, held)
		w.opt(s.Init, held)
		w.node(s.Tag, held)
		w.clauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		w.visit(s, held)
		w.opt(s.Init, held)
		w.stmt(s.Assign, held)
		w.clauses(s.Body, held)
	case *ast.SelectStmt:
		w.visit(s, held)
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			w.comm(cc.Comm, held)
			w.stmts(cc.Body, maps.Clone(held))
		}
	case *ast.GoStmt:
		w.visit(s, held)
		w.node(s.Call, map[string]bool{})
	case *ast.DeferStmt:
		w.visit(s, held)
		w.node(s.Call, map[string]bool{})
	default:
		w.node(s, held)
		if x, ok := s.(*ast.ExprStmt); ok {
			if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
				if recv, acquire, ok := mutexCall(w.info, call); ok {
					if k, ok := w.key(recv); ok {
						if acquire {
							held[k] = true
						} else {
							delete(held, k)
						}
					}
				}
			}
		}
	}
}

// opt walks an optional statement (an Init, Post or Else).
func (w *heldWalker) opt(s ast.Stmt, held map[string]bool) {
	if s != nil {
		w.stmt(s, held)
	}
}

// comm walks a select clause's communication without visiting the
// send or receive itself: the send's channel and value, or the
// receive's channel operand and assignment targets.
func (w *heldWalker) comm(s ast.Stmt, held map[string]bool) {
	var recv ast.Expr
	switch s := s.(type) {
	case *ast.SendStmt:
		w.node(s.Chan, held)
		w.node(s.Value, held)
	case *ast.ExprStmt:
		recv = s.X
	case *ast.AssignStmt:
		for _, e := range s.Lhs {
			w.node(e, held)
		}
		recv = s.Rhs[0]
	}
	if u, ok := ast.Unparen(recv).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		w.node(u.X, held)
	}
}

// clauses walks a switch body: each case's expressions under held, and
// each case's statements under a copy of it.
func (w *heldWalker) clauses(body *ast.BlockStmt, held map[string]bool) {
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		w.visit(cc, held)
		for _, e := range cc.List {
			w.node(e, held)
		}
		w.stmts(cc.Body, maps.Clone(held))
	}
}

// node visits a subtree that opens no critical section of its own: a
// simple statement or an expression. Function literals inside it are
// walked as bodies of their own, with nothing held.
func (w *heldWalker) node(n ast.Node, held map[string]bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case nil:
			return false
		case *ast.FuncLit:
			w.stmts(n.Body.List, map[string]bool{})
			return false
		}
		w.visit(n, held)
		return true
	})
}

// mutexCall reports whether call is a Lock/RLock (acquire) or
// Unlock/RUnlock (release) on a sync.Mutex or sync.RWMutex, and returns
// the mutex expression it is called on.
func mutexCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return nil, false, false
	}
	recv = ast.Unparen(sel.X)
	t := info.Types[recv].Type
	if t == nil || (!isNamed(t, "sync", "Mutex") && !isNamed(t, "sync", "RWMutex")) {
		return nil, false, false
	}
	return recv, acquire, true
}

// heldList returns the held set's keys in sorted order, so diagnostics
// and ordering edges are deterministic.
func heldList(held map[string]bool) []string {
	if len(held) == 0 {
		return nil
	}
	out := make([]string, 0, len(held))
	for h := range held {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}
