package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// SpanBalance enforces the tracing contract obs.Tracer.StartSpan
// documents: every started span must be ended on all paths. A span is
// committed to the store the moment it starts, so one that can never be
// ended exports forever as "open" and skews every duration rollup. The
// accepted patterns are:
//
//   - defer sp.End() (directly, inside a deferred func literal, or as a
//     deferred call's argument);
//   - storing the span where a longer-lived owner ends it: a struct
//     field, a call argument, the RHS of another assignment, a
//     composite literal, a return value, or a channel send.
//
// A direct, non-deferred sp.End() alone does not count — it only runs
// on the paths that reach it, and a panic or early return between
// StartSpan and End leaves the span open. Discarding the result
// (expression statement or `_`) is always a finding: that span is
// unreachable and can never be ended by anyone.
type SpanBalance struct{}

func (*SpanBalance) Name() string { return "spanbalance" }
func (*SpanBalance) Doc() string {
	return "require every StartSpan result to be deferred-ended or stored for a longer-lived owner to end; never discarded or left to conditional End calls"
}

func (*SpanBalance) Scope(prog *Program, u *Unit) bool {
	return u.Fixture() == "spanbalance" || u.InPaths(prog, "internal/obs", "internal/server", "internal/cluster")
}

func (s *SpanBalance) Run(prog *Program, u *Unit) []Finding {
	var out []Finding
	eachFuncDecl(u, func(fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && isStartSpan(call) {
					out = append(out, Finding{Pos: call.Pos(), Message: "the span from StartSpan is discarded; nothing can ever End it (bind the result, or drop the call)"})
				}
			case *ast.AssignStmt:
				if len(n.Rhs) != 1 || len(n.Lhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok || !isStartSpan(call) {
					return true
				}
				id, isIdent := ast.Unparen(n.Lhs[0]).(*ast.Ident)
				if !isIdent {
					// j.span = ... — stored in longer-lived state whose
					// owner's teardown ends it.
					return true
				}
				if id.Name == "_" {
					out = append(out, Finding{Pos: id.Pos(), Message: "the span from StartSpan is discarded as _; nothing can ever End it"})
					return true
				}
				obj := usedObject(u.Info, id)
				if obj == nil {
					return true
				}
				if !spanHandled(u.Info, fd.Body, obj, id) {
					out = append(out, Finding{Pos: id.Pos(), Message: fmt.Sprintf(
						"the span %s is neither deferred-ended nor stored; a panic or early return leaves it open forever (defer %s.End())",
						id.Name, id.Name)})
				}
			}
			return true
		})
	})
	return out
}

// isStartSpan reports whether the call invokes something named
// StartSpan. Matching by name rather than by concrete type keeps the
// pass applicable to any tracer shape (including fixtures, which cannot
// import morc packages).
func isStartSpan(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "StartSpan"
	case *ast.SelectorExpr:
		return fun.Sel.Name == "StartSpan"
	}
	return false
}

// spanHandled reports whether the span object is deferred-ended or
// escapes to a longer-lived owner anywhere in the function body.
func spanHandled(info *types.Info, body *ast.BlockStmt, obj types.Object, def *ast.Ident) bool {
	handled := false
	ast.Inspect(body, func(n ast.Node) bool {
		if handled {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			// defer sp.End() — or defer func() { ...; sp.End() }(), or
			// defer closeAll(sp).
			if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && usedObject(info, id) == obj {
					handled = true
					return false
				}
			}
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok && refersTo(info, lit, obj) {
				handled = true
				return false
			}
			for _, arg := range n.Call.Args {
				if refersTo(info, arg, obj) {
					handled = true
					return false
				}
			}
		case *ast.CallExpr:
			// sp passed as an argument (newJob(id, spec, span, ...)).
			for _, arg := range n.Args {
				if id, ok := ast.Unparen(arg).(*ast.Ident); ok && id != def && usedObject(info, id) == obj {
					handled = true
					return false
				}
			}
		case *ast.AssignStmt:
			// sp stored: j.phaseSp = sp (appearing on the RHS of an
			// assignment other than its own definition).
			for _, rhs := range n.Rhs {
				if id, ok := ast.Unparen(rhs).(*ast.Ident); ok && id != def && usedObject(info, id) == obj {
					handled = true
					return false
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				e := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if id, ok := ast.Unparen(e).(*ast.Ident); ok && id != def && usedObject(info, id) == obj {
					handled = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if refersTo(info, res, obj) {
					handled = true
					return false
				}
			}
		case *ast.SendStmt:
			if refersTo(info, n.Value, obj) {
				handled = true
				return false
			}
		}
		return true
	})
	return handled
}

// refersTo reports whether expr mentions obj.
func refersTo(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && usedObject(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}
