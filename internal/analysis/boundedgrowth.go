package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// BoundedGrowth watches the per-instruction simulation loop for the
// class of bug PR 3 fixed: a slice field that grows by one element per
// simulated access. A full-budget run retires hundreds of millions of
// instructions, so an `append` onto long-lived state inside the hot loop
// is an unbounded allocation (the old one-entry-per-miss missLats slice
// reached gigabytes before it was replaced with an online histogram).
//
// The pass walks the shared call graph (static and interface edges) from
// the simulation-loop entry points — functions named run, Run, RunCtx,
// or step in an in-scope unit — and flags appends whose destination is
// a field reached through a pointer (receiver, pointer parameter, or
// package-level state): growth that outlives the call. Appends into
// value-typed locals (a result struct assembled once per run) are fine.
// Findings are reported only in the in-scope units; the packages the
// loop calls into (compress, core, telemetry) bound their own buffers.
type BoundedGrowth struct {
	reach map[*Program]map[*CGNode]bool
}

func (*BoundedGrowth) Name() string { return "boundedgrowth" }
func (*BoundedGrowth) Doc() string {
	return "forbid appends onto pointer-reachable struct fields inside the per-instruction simulation loop (use bounded histograms/rings)"
}

func (*BoundedGrowth) Scope(prog *Program, u *Unit) bool {
	return u.Fixture() == "boundedgrowth" || u.InPaths(prog, "internal/sim", "internal/sample", "internal/obs")
}

// loopRoots are the names that anchor the per-instruction loop.
var loopRoots = map[string]bool{"run": true, "Run": true, "RunCtx": true, "step": true}

func (b *BoundedGrowth) Run(prog *Program, u *Unit) []Finding {
	if b.reach == nil {
		b.reach = map[*Program]map[*CGNode]bool{}
	}
	reach, ok := b.reach[prog]
	if !ok {
		cg := prog.CallGraph()
		var roots []*CGNode
		for _, n := range cg.Nodes() {
			if loopRoots[n.Fn.Name()] && b.Scope(prog, n.Unit) {
				roots = append(roots, n)
			}
		}
		reach = cg.Reachable(roots, StaticAndIface)
		b.reach[prog] = reach
	}

	var out []Finding
	for node := range reach {
		if node.Unit != u {
			continue
		}
		fd := node.Decl
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fid, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || fid.Name != "append" || len(call.Args) == 0 {
				return true
			}
			if _, isBuiltin := usedObject(u.Info, fid).(*types.Builtin); !isBuiltin {
				return true
			}
			dest, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr)
			if !ok {
				return true // plain locals are per-call and bounded
			}
			root := baseIdent(dest)
			if root == nil {
				return true
			}
			obj := usedObject(u.Info, root)
			if obj == nil {
				return true
			}
			escapes := !declaredWithin(obj, fd) // package-level or closed-over state
			if v, ok := obj.(*types.Var); ok && !escapes {
				if _, isPtr := v.Type().Underlying().(*types.Pointer); isPtr {
					escapes = true // receiver/param pointer: the field outlives the call
				}
			}
			if !escapes {
				return true
			}
			out = append(out, Finding{Pos: call.Pos(), Message: fmt.Sprintf(
				"append grows %s inside the per-instruction simulation loop (reached from %s); over a full run this is unbounded — use a bounded histogram, ring, or windowed reset",
				types.ExprString(dest), fd.Name.Name)})
			return true
		})
	}
	return out
}
