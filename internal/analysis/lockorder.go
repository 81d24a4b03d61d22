package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder derives the module's lock-acquisition-ordering graph and
// reports the two shapes that turn a slow path into a frozen one:
//
//   - cycles: lock class A is acquired while B is held on one path and
//     B while A is held on another — two goroutines interleaving those
//     paths deadlock;
//   - lock-acquired-twice: a path (possibly through several calls)
//     acquires a lock class that is already held. sync.Mutex is not
//     reentrant, so same-instance self-acquisition deadlocks
//     immediately, and distinct-instance acquisition of one class is an
//     AB-BA hazard between two goroutines crossing instances.
//
// A lock class is the declaration site of the mutex, canonicalized as
// "pkg.Type.field" for struct-field mutexes (array/slice elements
// collapse onto their field: every element of a per-shard []sync.Mutex
// is one class) and "pkg.var" for package-level mutexes. Function-local
// mutexes cannot participate in cross-function ordering and are
// ignored.
//
// The graph is interprocedural: for every call site executed while
// locks are held, every lock class the callee may (transitively,
// following static and interface edges) acquire is ordered after the
// held classes. The held sets come from walkHeld (shared with
// lockhold), keyed here by lock class. Function literals, go calls and
// deferred calls start with nothing held (a lock held where a literal is
// defined is not held when it runs), but their acquisitions and calls
// still count toward the enclosing function's may-acquire summary.
//
// Scope: internal/server, internal/cluster, internal/cache, and
// internal/obs — the layers whose mutexes sit on the job, cluster, and
// telemetry paths.
type LockOrder struct {
	state map[*Program]map[*Unit][]Finding
}

func (*LockOrder) Name() string { return "lockorder" }
func (*LockOrder) Doc() string {
	return "derive the cross-package lock-acquisition-order graph and report potential-deadlock cycles and lock-acquired-twice paths"
}

// lockOrderPkgs are the concurrency layers whose mutexes the pass
// classes and orders.
var lockOrderPkgs = []string{
	"internal/server", "internal/cluster", "internal/cache", "internal/obs",
}

func (*LockOrder) Scope(prog *Program, u *Unit) bool {
	return u.Fixture() == "lockorder" || u.InPaths(prog, lockOrderPkgs...)
}

func (l *LockOrder) Run(prog *Program, u *Unit) []Finding {
	if l.state == nil {
		l.state = map[*Program]map[*Unit][]Finding{}
	}
	byUnit, ok := l.state[prog]
	if !ok {
		byUnit = l.analyze(prog)
		l.state[prog] = byUnit
	}
	return byUnit[u]
}

// lockAcq is one lock acquisition with the classes already held there.
type lockAcq struct {
	class string
	pos   token.Pos
	held  []string
}

// lockCall is one call site with the classes held around it.
type lockCall struct {
	callee *CGNode
	pos    token.Pos
	held   []string
}

// fnLockInfo is one function's lock behaviour summary.
type fnLockInfo struct {
	acqs  []lockAcq
	calls []lockCall
}

// lockEdge is one ordering edge: "to" was acquired while "from" held.
type lockEdge struct {
	from, to string
	pos      token.Pos
	unit     *Unit
	via      string // human-readable provenance for the message
}

func (l *LockOrder) analyze(prog *Program) map[*Unit][]Finding {
	cg := prog.CallGraph()
	inScope := func(u *Unit) bool {
		return u.Fixture() == "lockorder" || u.InPaths(prog, lockOrderPkgs...)
	}

	// Per-function lock summaries over every module function (a
	// scoped-package lock may be taken under a lock by a function in any
	// package).
	infos := map[*CGNode]*fnLockInfo{}
	for _, n := range cg.Nodes() {
		infos[n] = l.summarize(n)
	}

	// Transitive may-acquire per function (classes only).
	mayAcquire := map[*CGNode]map[string]bool{}
	for n, info := range infos {
		set := map[string]bool{}
		for _, a := range info.acqs {
			set[a.class] = true
		}
		mayAcquire[n] = set
	}
	for changed := true; changed; {
		changed = false
		for n, info := range infos {
			set := mayAcquire[n]
			for _, c := range info.calls {
				for cls := range mayAcquire[c.callee] {
					if !set[cls] {
						set[cls] = true
						changed = true
					}
				}
			}
		}
	}

	// Ordering edges. Direct: an acquisition with held classes. Derived:
	// a call made with held classes, for everything the callee may
	// acquire.
	var edges []lockEdge
	for _, n := range cg.Nodes() {
		info := infos[n]
		for _, a := range info.acqs {
			for _, h := range a.held {
				edges = append(edges, lockEdge{
					from: h, to: a.class, pos: a.pos, unit: n.Unit,
					via: fmt.Sprintf("%s acquires %s while holding %s", shortKey(n.Key()), a.class, h),
				})
			}
		}
		for _, c := range info.calls {
			if len(c.held) == 0 {
				continue
			}
			for cls := range mayAcquire[c.callee] {
				for _, h := range c.held {
					edges = append(edges, lockEdge{
						from: h, to: cls, pos: c.pos, unit: n.Unit,
						via: fmt.Sprintf("%s calls %s (which may acquire %s) while holding %s",
							shortKey(n.Key()), shortKey(c.callee.Key()), cls, h),
					})
				}
			}
		}
	}

	// Graph condensation: adjacency over classes, with one representative
	// edge per (from, to) pair: the first by position, and at one call
	// site the first recorded (the sort is stable).
	sort.SliceStable(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.pos < b.pos
	})
	rep := map[[2]string]lockEdge{}
	adj := map[string][]string{}
	for _, e := range edges {
		key := [2]string{e.from, e.to}
		if _, ok := rep[key]; ok {
			continue
		}
		rep[key] = e
		adj[e.from] = append(adj[e.from], e.to)
	}

	out := map[*Unit][]Finding{}
	emit := func(e lockEdge, msg string) {
		if e.unit == nil || !e.unit.Lint || !inScope(e.unit) {
			return
		}
		out[e.unit] = append(out[e.unit], Finding{Pos: e.pos, Message: msg})
	}

	// Self-edges: lock-acquired-twice paths.
	for key, e := range rep {
		if key[0] != key[1] {
			continue
		}
		emit(e, fmt.Sprintf(
			"lock-acquired-twice path on %s: %s; sync mutexes are not reentrant, and cross-instance acquisition of one class is an ordering hazard",
			e.to, e.via))
	}

	// Cycles among distinct classes: report every edge that sits on some
	// cycle, with one concrete cycle spelled out.
	for key, e := range rep {
		if key[0] == key[1] {
			continue
		}
		if cyc := findCycle(adj, key[1], key[0]); cyc != nil {
			emit(e, fmt.Sprintf(
				"potential deadlock cycle %s: %s; acquire these classes in one global order",
				strings.Join(append([]string{key[0]}, cyc...), " → "), e.via))
		}
	}

	for _, fs := range out {
		sort.Slice(fs, func(i, j int) bool {
			if fs[i].Pos != fs[j].Pos {
				return fs[i].Pos < fs[j].Pos
			}
			return fs[i].Message < fs[j].Message
		})
	}
	return out
}

// findCycle returns a path from → … → to in adj (nil if none),
// completing the cycle to→from the caller already holds an edge for.
// Deterministic: neighbors are explored in sorted insertion order.
func findCycle(adj map[string][]string, from, to string) []string {
	seen := map[string]bool{from: true}
	type hop struct {
		n    string
		prev *hop
	}
	queue := []*hop{{n: from}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		if h.n == to {
			var rev []string
			for x := h; x != nil; x = x.prev {
				rev = append(rev, x.n)
			}
			out := make([]string, 0, len(rev))
			for i := len(rev) - 1; i >= 0; i-- {
				out = append(out, rev[i])
			}
			return out
		}
		for _, nb := range adj[h.n] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, &hop{n: nb, prev: h})
			}
		}
	}
	return nil
}

// summarize walks one function: lock classes acquired and call sites,
// each with the classes held there. Function literals, go calls and
// deferred calls are walked with nothing held but contribute to the
// same summary.
func (l *LockOrder) summarize(n *CGNode) *fnLockInfo {
	info := &fnLockInfo{}
	u := n.Unit

	// Call sites resolved through the shared graph: index this
	// function's outgoing edges by position.
	edgesAt := map[token.Pos][]*CGEdge{}
	for _, e := range n.Out {
		if e.Kind == EdgeStatic || e.Kind == EdgeIface {
			edgesAt[e.Pos] = append(edgesAt[e.Pos], e)
		}
	}

	key := func(recv ast.Expr) (string, bool) { return lockClassOf(u.Info, recv) }
	walkHeld(u.Info, n.Decl.Body, key, func(nd ast.Node, held map[string]bool) {
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return
		}
		if recv, acquire, ok := mutexCall(u.Info, call); ok {
			if cls, ok := key(recv); ok && acquire {
				info.acqs = append(info.acqs, lockAcq{class: cls, pos: call.Pos(), held: heldList(held)})
			}
			return
		}
		for _, edge := range edgesAt[call.Pos()] {
			info.calls = append(info.calls, lockCall{callee: edge.Callee, pos: call.Pos(), held: heldList(held)})
		}
	})
	return info
}

// lockClassOf canonicalizes a mutex expression (the receiver of a
// Lock/Unlock call) to its lock class, or ok == false for
// function-local mutexes.
func lockClassOf(info *types.Info, recv ast.Expr) (class string, ok bool) {
	// Walk to the field selection naming the mutex: x.mu, x.mus[i],
	// pkgvar.mu, or a bare package-level mu.
	switch x := recv.(type) {
	case *ast.Ident:
		obj := usedObject(info, x)
		if v, isVar := obj.(*types.Var); isVar && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return shortPkg(v.Pkg().Path()) + "." + v.Name(), true
		}
		return "", false // function-local mutex
	default:
		// Find the innermost field selector (strip indexing: all elements
		// of one mutex array/slice field are one class).
		e := recv
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.StarExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				if fieldSel := info.Selections[x]; fieldSel != nil && fieldSel.Kind() == types.FieldVal {
					owner := namedType(fieldSel.Recv())
					if owner != nil && owner.Obj().Pkg() != nil {
						return shortPkg(owner.Obj().Pkg().Path()) + "." + owner.Obj().Name() + "." + x.Sel.Name, true
					}
				}
				// Package-qualified var: pkg.mu.
				if obj := usedObject(info, x.Sel); obj != nil {
					if v, isVar := obj.(*types.Var); isVar && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
						return shortPkg(v.Pkg().Path()) + "." + v.Name(), true
					}
				}
				return "", false
			default:
				return "", false
			}
		}
	}
}

// shortPkg trims the module prefix off a package path for lock-class
// names ("morc/internal/server" → "server").
func shortPkg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
