package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"strings"
)

// DetTaint enforces the deterministic-replay contract: sim.Result, the
// telemetry series and the golden files are byte-identical run to run
// only because no wall clock, global math/rand state or map iteration
// order reaches them. The pass has two rules.
//
// Inside the deterministic core (corePkgs) every wall-clock read
// (time.Now / time.Since / time.Until) and every math/rand (and v2)
// package-level function that uses the shared global generator is a
// finding wherever its value goes: clock-driven control flow changes
// results without ever storing the clock. Seeded *rand.Rand values and
// internal/rng are fine.
//
// Beyond that, the pass walks the whole-module call graph from every
// function declared in a core package (plus obs.ShapeOf) and flags, in
// every reachable function of any package, a nondeterministic value
// that escapes: returned, stored into shared state (a package-level
// variable, anything reached through a pointer, a slice-, map- or
// chan-typed parameter, or a call result), handed to a mutating method
// of shared state, sent on a channel, or written as formatted output.
// The sources are the two above plus map iteration order: range-over-map
// loop variables and the callback parameters of sync.Map.Range. Taint
// spreads through assignments to locals, stores into a local's fields
// and elements, and arguments to a local's mutating methods (a
// strings.Builder, a hash). Outside the core, a clock read whose value
// dies locally is not a finding.
//
// Map-order taint is dropped by the idioms that restore determinism: a
// slice passed to sort.*/slices.Sort* after its last map-order write
// (collect-then-sort), writes keyed by the loop variable (per-key
// effects commute), and integer/boolean accumulation. Wall-clock and
// global-rand taint is never laundered: sorting a slice of timestamps
// does not make them deterministic.
//
// Reachability follows static and interface edges only. Function-value
// edges are excluded on purpose: hooks like System.OnProgress are how
// the service layer (which may stamp wall-clock times onto events)
// observes the core, and their bodies feed server state, not Result.
type DetTaint struct {
	state map[*Program]map[*Unit][]Finding
}

// corePkgs is the deterministic core: every package whose behaviour
// feeds sim.Result, telemetry, or the golden files.
var corePkgs = []string{
	"internal/sim", "internal/core", "internal/cache", "internal/compress",
	"internal/baseline", "internal/mem", "internal/trace", "internal/energy",
	"internal/stats", "internal/telemetry", "internal/exp", "internal/check",
	"internal/rng", "internal/sample",
}

func (*DetTaint) Name() string { return "dettaint" }
func (*DetTaint) Doc() string {
	return "no wall-clock or global math/rand in the deterministic core, and no nondeterministic value (those or map order) flowing into results reachable from it"
}

func (*DetTaint) Scope(prog *Program, u *Unit) bool {
	return u.Fixture() == "dettaint" || u.Fixture() == ""
}

// coreUnit reports whether u belongs to the deterministic core: one of
// corePkgs, or a top-level dettaint fixture package (a fixture's
// sub-packages stand in for the non-core code the core calls into).
func coreUnit(prog *Program, u *Unit) bool {
	if u.Fixture() == "dettaint" {
		return strings.HasSuffix(path.Dir(u.Path), "/testdata/src")
	}
	return u.Fixture() == "" && u.InPaths(prog, corePkgs...)
}

// taint is a bitset of nondeterminism kinds.
type taint uint8

const (
	taintTime taint = 1 << iota
	taintRand
	taintMapOrder
)

func (t taint) String() string {
	var parts []string
	if t&taintTime != 0 {
		parts = append(parts, "wall-clock")
	}
	if t&taintRand != 0 {
		parts = append(parts, "global math/rand")
	}
	if t&taintMapOrder != 0 {
		parts = append(parts, "map-iteration-order")
	}
	return strings.Join(parts, "+")
}

// randConstructors are the math/rand names that only build seeded local
// generators (deterministic and allowed); every other package-level
// function touches the global generator.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// sortFuncNames are the sort-package helpers whose first argument is the
// slice being ordered (besides the Sort* family).
var sortFuncNames = map[string]bool{
	"Strings": true, "Ints": true, "Float64s": true,
	"Slice": true, "SliceStable": true, "Stable": true,
}

// sourceTaint reports the nondeterminism a reference to obj introduces:
// time.Now/Since/Until, or a math/rand function using the global
// generator. Methods (on a seeded *rand.Rand, a time.Time) are fine.
func sourceTaint(obj types.Object) taint {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return 0
	}
	if sig, _ := fn.Type().(*types.Signature); sig == nil || sig.Recv() != nil {
		return 0
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return taintTime
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			return taintRand
		}
	}
	return 0
}

func (d *DetTaint) Run(prog *Program, u *Unit) []Finding {
	if d.state == nil {
		d.state = map[*Program]map[*Unit][]Finding{}
	}
	byUnit, ok := d.state[prog]
	if !ok {
		byUnit = d.analyze(prog)
		d.state[prog] = byUnit
	}
	return byUnit[u]
}

// dettaintRoots returns the artifact-producing entry points: every
// function and method declared in a core package, and obs.ShapeOf.
func dettaintRoots(prog *Program, cg *CallGraph) []*CGNode {
	var roots []*CGNode
	for _, n := range cg.Nodes() {
		u := n.Unit
		if !u.Lint {
			continue
		}
		if coreUnit(prog, u) ||
			u.Fixture() == "" && u.InPaths(prog, "internal/obs") && n.Fn.Name() == "ShapeOf" {
			roots = append(roots, n)
		}
	}
	return roots
}

// analyze runs the whole-module pass once and buckets findings by unit.
func (d *DetTaint) analyze(prog *Program) map[*Unit][]Finding {
	cg := prog.CallGraph()
	roots := dettaintRoots(prog, cg)
	reach := cg.Reachable(roots, StaticAndIface)

	out := map[*Unit][]Finding{}
	for _, n := range cg.Nodes() {
		if reach[n] && n.Unit.Lint {
			out[n.Unit] = append(out[n.Unit], checkFunc(cg, roots, n)...)
		}
	}
	for _, u := range prog.Units {
		if u.Lint && coreUnit(prog, u) {
			out[u] = append(out[u], coreSources(prog, u, out[u])...)
		}
	}
	return out
}

// coreSources flags every wall-clock read and global-rand use in a core
// unit, package-level initializers included. A line that already
// carries an escape finding gets no second one.
func coreSources(prog *Program, u *Unit, escapes []Finding) []Finding {
	line := func(pos token.Pos) token.Position {
		p := prog.Fset.Position(pos)
		return token.Position{Filename: p.Filename, Line: p.Line}
	}
	flagged := map[token.Position]bool{}
	for _, f := range escapes {
		flagged[line(f.Pos)] = true
	}
	var out []Finding
	for _, f := range u.Files {
		ast.Inspect(f, func(nd ast.Node) bool {
			id, ok := nd.(*ast.Ident)
			if !ok {
				return true
			}
			obj := usedObject(u.Info, id)
			t := sourceTaint(obj)
			if t == 0 || flagged[line(id.Pos())] {
				return true
			}
			flagged[line(id.Pos())] = true
			msg := fmt.Sprintf("time.%s reads the wall clock in the deterministic core; wall-clock values must never influence simulation results", obj.Name())
			if t == taintRand {
				msg = fmt.Sprintf("%s.%s uses math/rand's global generator in the deterministic core; use internal/rng or a seeded *rand.Rand", obj.Pkg().Name(), obj.Name())
			}
			out = append(out, Finding{Pos: id.Pos(), Message: msg})
			return true
		})
	}
	return out
}

// chainTo renders a short root→function call chain for messages.
func chainTo(cg *CallGraph, roots []*CGNode, n *CGNode) string {
	path := cg.PathTo(roots, n, StaticAndIface)
	if len(path) <= 1 {
		return shortKey(n.Key())
	}
	if len(path) > 4 {
		path = append(path[:2:2], "…", path[len(path)-1])
	}
	short := make([]string, len(path))
	for i, p := range path {
		short[i] = shortKey(p)
	}
	return strings.Join(short, " → ")
}

// shortKey trims the module prefix off a node key for readability.
func shortKey(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// checkFunc performs the intraprocedural escape analysis of one
// reachable function.
func checkFunc(cg *CallGraph, roots []*CGNode, n *CGNode) []Finding {
	fd, info := n.Decl, n.Unit.Info

	// One walk collects the taint sources and, for each variable, the
	// last sort call it is passed to and the last position map-order
	// taint was written into it: a sort after that write launders it.
	sortedAt := map[types.Object]token.Pos{}
	vt := map[types.Object]taint{}
	mapAt := map[types.Object]token.Pos{}
	loopVars := map[types.Object]bool{}
	seed := func(id *ast.Ident, end token.Pos) {
		if obj := usedObject(info, id); obj != nil && id.Name != "_" {
			vt[obj] |= taintMapOrder
			mapAt[obj] = end // sorting a loop variable inside the loop launders nothing
			loopVars[obj] = true
		}
	}
	ast.Inspect(fd.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.RangeStmt:
			if tv, ok := info.Types[nd.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					for _, e := range []ast.Expr{nd.Key, nd.Value} {
						if id, ok := e.(*ast.Ident); ok {
							seed(id, nd.End())
						}
					}
				}
			}
		case *ast.CallExpr:
			if len(nd.Args) == 0 {
				return true
			}
			if fn := calleeFunc(info, nd); fn != nil && fn.Pkg() != nil &&
				(fn.Pkg().Path() == "sort" || fn.Pkg().Path() == "slices") &&
				(strings.HasPrefix(fn.Name(), "Sort") || sortFuncNames[fn.Name()]) {
				if id, ok := ast.Unparen(nd.Args[0]).(*ast.Ident); ok {
					if obj := usedObject(info, id); obj != nil {
						sortedAt[obj] = max(sortedAt[obj], nd.Pos())
					}
				}
			}
			// sync.Map.Range(func(k, v any) bool { ... }): the callback
			// parameters arrive in nondeterministic order.
			if sel, ok := ast.Unparen(nd.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Range" {
				if selection := info.Selections[sel]; selection != nil &&
					isNamed(selection.Recv(), "sync", "Map") && len(nd.Args) == 1 {
					if lit, ok := ast.Unparen(nd.Args[0]).(*ast.FuncLit); ok {
						for _, fld := range lit.Type.Params.List {
							for _, name := range fld.Names {
								seed(name, lit.End())
							}
						}
					}
				}
			}
		}
		return true
	})

	// exprTaint: union over contained tainted variables and source
	// references.
	exprTaint := func(e ast.Expr) taint {
		var t taint
		ast.Inspect(e, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.Ident:
				obj := usedObject(info, nd)
				k := vt[obj]
				if sortedAt[obj] > mapAt[obj] {
					k &^= taintMapOrder
				}
				t |= k | sourceTaint(obj)
			case *ast.FuncLit:
				return false // its body runs elsewhere
			}
			return true
		})
		return t
	}
	rhsTaint := func(as *ast.AssignStmt, i int) taint {
		if len(as.Rhs) == len(as.Lhs) {
			return exprTaint(as.Rhs[i])
		}
		return exprTaint(as.Rhs[0])
	}

	// sharedRoot reports whether an lvalue chain escapes the function:
	// rooted at a pointer-typed variable (receiver, pointer parameter), a
	// slice-, map- or chan-typed parameter (it aliases the caller's
	// data), or package-level state.
	params := map[types.Object]bool{}
	for _, fl := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
		if fl == nil {
			continue
		}
		for _, fld := range fl.List {
			for _, name := range fld.Names {
				params[info.Defs[name]] = true
			}
		}
	}
	sharedRoot := func(e ast.Expr) bool {
		root := baseIdent(e)
		if root == nil {
			return false
		}
		obj := usedObject(info, root)
		if obj == nil {
			return false
		}
		if !declaredWithin(obj, fd) {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return false
		}
		switch v.Type().Underlying().(type) {
		case *types.Pointer:
			return true
		case *types.Slice, *types.Map, *types.Chan:
			return params[obj]
		}
		return false
	}
	// storeEscapes reports whether a store to lvalue e is visible outside
	// the function: a package-level variable, a chain through shared
	// state, or a chain rooted in a call result.
	storeEscapes := func(e ast.Expr) bool {
		if id, plain := e.(*ast.Ident); plain {
			obj := usedObject(info, id)
			return obj != nil && !declaredWithin(obj, fd)
		}
		return baseIdent(e) == nil || sharedRoot(e)
	}

	usesLoopVar := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(nd ast.Node) bool {
			if id, ok := nd.(*ast.Ident); ok && loopVars[usedObject(info, id)] {
				found = true
			}
			return !found
		})
		return found
	}
	isIntegerish := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil {
			return false
		}
		b, ok := tv.Type.Underlying().(*types.Basic)
		return ok && b.Info()&(types.IsInteger|types.IsBoolean) != 0
	}
	// commutes reports whether a map-order write to lhs is independent
	// of iteration order: keyed by the loop variable, or integer/boolean
	// accumulation.
	commutes := func(lhs ast.Expr, tok token.Token) bool {
		if ix, ok := lhs.(*ast.IndexExpr); ok && usesLoopVar(ix.Index) {
			return true
		}
		return tok != token.ASSIGN && tok != token.DEFINE && isIntegerish(lhs)
	}

	// mutatedRecv returns the receiver of a method call that can mutate
	// it (a pointer-receiver or interface method), or nil.
	mutatedRecv := func(call *ast.CallExpr) ast.Expr {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		selection := info.Selections[sel]
		if selection == nil || selection.Kind() != types.MethodVal {
			return nil
		}
		sig, _ := selection.Obj().Type().(*types.Signature)
		if sig == nil || sig.Recv() == nil {
			return nil
		}
		if _, isPtr := sig.Recv().Type().(*types.Pointer); !isPtr && !isInterface(selection.Recv()) {
			return nil
		}
		return sel.X
	}
	// argTaint is the taint a call's arguments carry into a mutating
	// method. Integer observations handed to one commute, like counters.
	argTaint := func(call *ast.CallExpr, intsCommute bool) taint {
		var t taint
		for _, arg := range call.Args {
			k := exprTaint(arg)
			if intsCommute && isIntegerish(arg) {
				k &^= taintMapOrder
			}
			t |= k
		}
		return t
	}

	// Spread taint until stable: a plain assignment taints its variable,
	// and a store into a local's field or element, or a tainted argument
	// to a mutating method of a local, taints the local. Each round can
	// only add taint bits or move a map-order write later, so the loop
	// terminates.
	changed := true
	taintLocal := func(root *ast.Ident, t taint, at token.Pos) {
		obj := usedObject(info, root)
		if obj == nil || root.Name == "_" {
			return
		}
		if vt[obj]|t != vt[obj] {
			vt[obj] |= t
			changed = true
		}
		if t&taintMapOrder != 0 && mapAt[obj] < at {
			mapAt[obj] = at
			changed = true
		}
	}
	for changed {
		changed = false
		ast.Inspect(fd.Body, func(nd ast.Node) bool {
			switch nd := nd.(type) {
			case *ast.AssignStmt:
				for i, lhs := range nd.Lhs {
					lhs = ast.Unparen(lhs)
					if storeEscapes(lhs) {
						continue // flagged below
					}
					t := rhsTaint(nd, i)
					if commutes(lhs, nd.Tok) {
						t &^= taintMapOrder
					}
					taintLocal(baseIdent(lhs), t, nd.Pos())
				}
			case *ast.CallExpr:
				if recv := mutatedRecv(nd); recv != nil && baseIdent(recv) != nil && !sharedRoot(recv) {
					taintLocal(baseIdent(recv), argTaint(nd, true), nd.Pos())
				}
			}
			return true
		})
	}

	// escapingCall describes what a call does with its arguments when
	// that is an escape: formatted output, or a mutating method of
	// shared state (a setter is a store).
	escapingCall := func(call *ast.CallExpr) (what string, intsCommute bool) {
		if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
			(strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint")) {
			return "is written as formatted output", false
		}
		if recv := mutatedRecv(call); recv != nil && sharedRoot(recv) {
			sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			return fmt.Sprintf("is passed to %s.%s on shared state", types.ExprString(recv), sel.Sel.Name), true
		}
		return "", false
	}

	chain := ""
	var out []Finding
	flag := func(pos token.Pos, t taint, what string) {
		if chain == "" {
			chain = chainTo(cg, roots, n)
		}
		out = append(out, Finding{Pos: pos, Message: fmt.Sprintf(
			"%s value %s; it is reachable into the deterministic artifacts (%s)", t, what, chain)})
	}

	ast.Inspect(fd.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.ReturnStmt:
			for _, res := range nd.Results {
				if t := exprTaint(res); t != 0 {
					flag(nd.Pos(), t, "escapes via return")
					break
				}
			}
		case *ast.SendStmt:
			if t := exprTaint(nd.Value); t != 0 {
				flag(nd.Pos(), t, "is sent on a channel")
			}
		case *ast.AssignStmt:
			for i, lhs := range nd.Lhs {
				lhs = ast.Unparen(lhs)
				if !storeEscapes(lhs) {
					continue // a local: handled by propagation
				}
				t := rhsTaint(nd, i)
				if commutes(lhs, nd.Tok) {
					t &^= taintMapOrder
				}
				if t != 0 {
					flag(nd.Pos(), t, "is stored into shared state")
				}
			}
		case *ast.CallExpr:
			what, intsCommute := escapingCall(nd)
			if what == "" {
				return true
			}
			if t := argTaint(nd, intsCommute); t != 0 {
				flag(nd.Pos(), t, what)
			}
		}
		return true
	})
	return out
}
