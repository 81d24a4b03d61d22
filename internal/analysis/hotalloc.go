package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc enumerates heap allocations on the per-instruction hot path.
// A full-budget run retires hundreds of millions of instructions;
// anything the simulator allocates per access multiplies by that count,
// and the morcd SSE/timeseries encoders run once per epoch per
// subscriber. The pass computes the set of functions reachable (static
// and interface edges) from the hot roots —
//
//	sim.(*System).stepAccess, sim.(*System).serviceMiss,
//	server.writeEvent, server.(*Server).handleTimeseries
//
// — and flags the allocation idioms inside them:
//
//   - append with a freshly allocated destination (append([]T(nil), …),
//     append([]T{}, …)): one heap slice per call;
//   - the fmt.Sprint* / fmt.Fprint* / fmt.Append* families (interface
//     boxing of every operand plus formatting state);
//   - string ⇄ []byte conversions (copy per call);
//   - function literals that capture enclosing variables (closure
//     allocation per evaluation).
//
// Failure paths are exempt: arguments to panic, fmt.Errorf (error
// construction means the access already failed), and the bodies of
// String()/Error() formatting methods. Constructors (make, new, &T{})
// are deliberately not classes — object construction allocates by
// definition and the inventory targets steady-state operations.
//
// The pass is an allocation *inventory*, not a correctness check: a
// finding is either fixed or carries a //morclint:ignore hotalloc
// justification saying why the allocation is required (an
// ownership-transfer copy, a snapshot taken under a lock). The
// committed allocs/op baselines live in BENCH_alloc.json, and the hard
// per-site bounds are plain Allocs tests.
type HotAlloc struct {
	state map[*Program]map[*Unit][]Finding
}

func (*HotAlloc) Name() string { return "hotalloc" }
func (*HotAlloc) Doc() string {
	return "inventory heap allocations (fresh-slice appends, fmt formatting, string conversions, capturing closures) on call paths reachable from the simulation hot loop and the morcd encode paths"
}

// hotallocPkgs are the packages whose units can carry findings: the
// deterministic core the hot loop runs through, plus the service encode
// path. (Reachability itself is module-wide; this bounds where the
// inventory lands.)
var hotallocPkgs = []string{
	"internal/sim", "internal/cache", "internal/core", "internal/baseline",
	"internal/compress", "internal/mem", "internal/stats", "internal/trace",
	"internal/server", "internal/telemetry",
}

func (*HotAlloc) Scope(prog *Program, u *Unit) bool {
	return u.Fixture() == "hotalloc" || u.InPaths(prog, hotallocPkgs...)
}

// hotRootSuffixes name the hot-path entry points, matched against node
// keys ("pkg.Type.method" / "pkg.func"). Fixture packages use the same
// function names.
var hotRootSuffixes = []string{
	".System.stepAccess", ".System.serviceMiss",
	"internal/server.writeEvent", ".Server.handleTimeseries",
}

// hotallocRoots finds the entry points in real units and, in hotalloc
// fixture packages, any function whose bare name matches a root's last
// segment (stepAccess, serviceMiss, writeEvent, handleTimeseries).
func hotallocRoots(prog *Program, cg *CallGraph) []*CGNode {
	var roots []*CGNode
	for _, n := range cg.Nodes() {
		key := n.Key()
		if n.Unit.Fixture() == "hotalloc" {
			for _, suf := range hotRootSuffixes {
				if key[strings.LastIndex(key, ".")+1:] == suf[strings.LastIndex(suf, ".")+1:] {
					roots = append(roots, n)
					break
				}
			}
			continue
		}
		if n.Unit.Fixture() != "" {
			continue
		}
		for _, suf := range hotRootSuffixes {
			if strings.HasSuffix(key, suf) {
				roots = append(roots, n)
				break
			}
		}
	}
	return roots
}

func (h *HotAlloc) Run(prog *Program, u *Unit) []Finding {
	if h.state == nil {
		h.state = map[*Program]map[*Unit][]Finding{}
	}
	byUnit, ok := h.state[prog]
	if !ok {
		byUnit = h.analyze(prog)
		h.state[prog] = byUnit
	}
	return byUnit[u]
}

func (h *HotAlloc) analyze(prog *Program) map[*Unit][]Finding {
	cg := prog.CallGraph()
	roots := hotallocRoots(prog, cg)
	reach := cg.Reachable(roots, StaticAndIface)

	out := map[*Unit][]Finding{}
	for _, n := range cg.Nodes() {
		if !reach[n] || !n.Unit.Lint {
			continue
		}
		if !(&HotAlloc{}).Scope(prog, n.Unit) {
			continue
		}
		fs := h.checkFunc(cg, roots, n)
		if len(fs) > 0 {
			out[n.Unit] = append(out[n.Unit], fs...)
		}
	}
	return out
}

func (h *HotAlloc) checkFunc(cg *CallGraph, roots []*CGNode, n *CGNode) []Finding {
	info := n.Unit.Info
	if isFormattingMethod(n.Decl) {
		return nil
	}
	chain := chainTo(cg, roots, n)
	var out []Finding
	flag := func(pos token.Pos, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		out = append(out, Finding{Pos: pos, Message: fmt.Sprintf(
			"%s on the hot path (%s); preallocate, reuse, or defer to a cold path", msg, chain)})
	}

	// Map reads keyed by a conversion (m[string(b)]) are recognized by
	// the compiler and do not allocate; only stores retain the key.
	// Collect the rvalue index keys so the conversion check skips them.
	// (ast.Inspect visits an AssignStmt before its operands, so LHS
	// index expressions are recorded before they are revisited below.)
	lvalues := map[ast.Node]bool{}
	freeKey := map[ast.Node]bool{}
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		if as, ok := nd.(*ast.AssignStmt); ok {
			for _, lhs := range as.Lhs {
				lvalues[ast.Unparen(lhs)] = true
			}
		}
		if ie, ok := nd.(*ast.IndexExpr); ok && !lvalues[ie] {
			if tv, ok := info.Types[ie.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					freeKey[ast.Unparen(ie.Index)] = true
				}
			}
		}
		return true
	})

	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.CallExpr:
			fun := ast.Unparen(nd.Fun)
			if id, ok := fun.(*ast.Ident); ok {
				if _, isBuiltin := usedObject(info, id).(*types.Builtin); isBuiltin {
					if id.Name == "panic" {
						return false // failure path: whatever it formats never runs hot
					}
					if id.Name == "append" && len(nd.Args) > 0 && isFreshSlice(info, nd.Args[0]) {
						flag(nd.Pos(), "append onto a freshly allocated slice (one heap slice per call)")
					}
					return true
				}
			}
			// String conversions: []byte(s), string(b).
			if tv, ok := info.Types[fun]; ok && tv.IsType() && len(nd.Args) == 1 {
				dst := tv.Type.Underlying()
				src := info.Types[nd.Args[0]].Type
				if src != nil && isStringByteConv(dst, src.Underlying()) && !freeKey[nd] {
					flag(nd.Pos(), "string ⇄ []byte conversion copies per call")
				}
				return true
			}
			if fn := calleeFunc(info, nd); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				switch {
				case fn.Name() == "Errorf":
					// Error construction is the failure path.
				case strings.HasPrefix(fn.Name(), "Sprint"),
					strings.HasPrefix(fn.Name(), "Fprint"), strings.HasPrefix(fn.Name(), "Append"):
					flag(nd.Pos(), "fmt.%s formats (and boxes every operand)", fn.Name())
				}
			}
		case *ast.FuncLit:
			if capturesOuter(info, nd) {
				flag(nd.Pos(), "capturing closure allocates per evaluation")
			}
			return true // its body is a separate (possibly unreachable) context
		}
		return true
	})
	return out
}

// isFormattingMethod reports whether fd is a String() string or
// Error() string method — diagnostic formatting, exempt from the
// inventory.
func isFormattingMethod(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || (fd.Name.Name != "String" && fd.Name.Name != "Error") {
		return false
	}
	ft := fd.Type
	return (ft.Params == nil || len(ft.Params.List) == 0) &&
		ft.Results != nil && len(ft.Results.List) == 1
}

// isFreshSlice reports whether an append destination is freshly
// allocated at the call: []T(nil) conversions, empty or non-empty
// composite literals.
func isFreshSlice(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		// []T(nil) / []T(x) conversion to a slice type.
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
			_, isSlice := tv.Type.Underlying().(*types.Slice)
			return isSlice
		}
	}
	return false
}

// isStringByteConv reports whether a conversion moves between string
// and []byte/[]rune (both directions copy).
func isStringByteConv(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isBytes(src)) || (isBytes(dst) && isStr(src))
}

// capturesOuter reports whether a function literal references variables
// declared outside itself (the captures that force a heap closure).
func capturesOuter(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		if found {
			return false
		}
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := usedObject(info, id).(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level: no capture needed
		}
		if !declaredWithin(v, lit) {
			found = true
		}
		return true
	})
	return found
}
