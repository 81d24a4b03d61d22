package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockHold guards morcd's liveness: the server's mutexes protect the job
// table, per-job state, and metrics, all of which sit on the simulator's
// synchronous epoch-publishing path. A blocking operation performed while
// one of those mutexes is held lets one slow SSE client (or a full
// channel) stall every worker. The pass scans internal/server for
// operations that can block for unbounded time inside a critical
// section:
//
//   - channel sends and receives (unless inside a select that has a
//     default case, which makes them non-blocking);
//   - select statements without a default case;
//   - http.Flusher-style Flush calls;
//   - Write/WriteString/ReadFrom calls and fmt.Fprint* where the
//     destination's static type is an interface (io.Writer,
//     http.ResponseWriter, net.Conn) — writes to concrete in-memory
//     buffers (*bytes.Buffer, *strings.Builder) are fine;
//   - sync.WaitGroup.Wait and time.Sleep;
//   - network round-trips: any method on net/http.Client (Do, Get,
//     Post, ...). The cluster coordinator's registry lives or dies by
//     this one — a probe or dispatch performed under the registry mutex
//     would let one dead peer freeze the whole cluster. The enforced
//     idiom is snapshot-under-lock, round-trip outside, record back
//     under lock.
//
// The pass scans internal/server, internal/cluster, and internal/obs
// (the span store's lock sits on every instrumented request path).
//
// The analysis is per-function and flow-approximate; walkHeld (shared
// with lockorder) tracks the held set, keyed here by the mutex
// expression as written ("s.mu").
type LockHold struct{}

func (*LockHold) Name() string { return "lockhold" }
func (*LockHold) Doc() string {
	return "forbid blocking operations (channel ops, Flush, interface writes, network round-trips, Wait, Sleep) while a mutex is held in internal/server and internal/cluster"
}

func (*LockHold) Scope(prog *Program, u *Unit) bool {
	return u.Fixture() == "lockhold" || u.InPaths(prog, "internal/server", "internal/cluster", "internal/obs")
}

func (l *LockHold) Run(prog *Program, u *Unit) []Finding {
	var out []Finding
	key := func(recv ast.Expr) (string, bool) { return types.ExprString(recv), true }
	check := func(body *ast.BlockStmt) {
		walkHeld(u.Info, body, key, func(n ast.Node, held map[string]bool) {
			if len(held) == 0 {
				return
			}
			if msg := blocking(u.Info, n, strings.Join(heldList(held), ", ")); msg != "" {
				out = append(out, Finding{Pos: n.Pos(), Message: msg})
			}
		})
	}
	eachFuncDecl(u, func(fd *ast.FuncDecl) { check(fd.Body) })
	// Function literals outside any function body (package-level
	// variables); walkHeld covers the ones inside function bodies.
	for _, f := range u.Files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok {
				ast.Inspect(gd, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						check(lit.Body)
						return false
					}
					return true
				})
			}
		}
	}
	return out
}

// blocking describes how node n can block for unbounded time while hn
// (the held mutexes) are held, or returns "" if it cannot.
func blocking(info *types.Info, n ast.Node, hn string) string {
	switch n := n.(type) {
	case *ast.SendStmt:
		return fmt.Sprintf("sends on %s while holding %s; a full channel stalls the critical section", types.ExprString(n.Chan), hn)
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return fmt.Sprintf("receives from %s while holding %s", types.ExprString(n.X), hn)
		}
	case *ast.SelectStmt:
		for _, c := range n.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				return "" // a default case makes every communication non-blocking
			}
		}
		return "select with no default case blocks while holding " + hn
	case *ast.RangeStmt:
		if t := info.Types[n.X].Type; t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return fmt.Sprintf("ranges over channel %s while holding %s; the loop blocks until the channel closes", types.ExprString(n.X), hn)
			}
		}
	case *ast.CallExpr:
		return blockingCall(info, n, hn)
	}
	return ""
}

// writeMethodNames are io-style methods that push bytes toward their
// destination.
var writeMethodNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteTo": true, "ReadFrom": true,
}

// blockingCall describes a call that can block for unbounded time.
func blockingCall(info *types.Info, call *ast.CallExpr, hn string) string {
	if fn := calleeFunc(info, call); fn != nil && fn.Pkg() != nil {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() == nil {
			if fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
				return "sleeps while holding " + hn
			}
			// fmt.Fprint* writing to an interface-typed destination.
			if fn.Pkg().Path() == "fmt" && len(call.Args) > 0 {
				switch fn.Name() {
				case "Fprint", "Fprintf", "Fprintln":
					if t := info.Types[call.Args[0]].Type; isInterface(t) {
						return fmt.Sprintf(
							"fmt.%s writes to an interface-typed destination (%s) while holding %s; render into a bytes.Buffer and write after unlocking",
							fn.Name(), types.ExprString(call.Args[0]), hn)
					}
				}
			}
			return ""
		}
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return ""
	}
	recvT := selection.Recv()
	name := sel.Sel.Name
	switch {
	case name == "Flush":
		return fmt.Sprintf("flushes %s while holding %s; a slow client stalls the critical section", types.ExprString(sel.X), hn)
	case name == "Wait" && isNamed(recvT, "sync", "WaitGroup"):
		return "waits on a sync.WaitGroup while holding " + hn
	case isNamed(recvT, "net/http", "Client"):
		return fmt.Sprintf(
			"performs an HTTP round-trip (%s.%s) while holding %s; snapshot under the lock, do the network call outside, record the outcome back under the lock",
			types.ExprString(sel.X), name, hn)
	case writeMethodNames[name] && (isInterface(recvT) || isNamed(recvT, "net", "Conn")):
		return fmt.Sprintf(
			"calls %s on interface-typed %s while holding %s; the destination may be a network connection — buffer under the lock, write after unlocking",
			name, types.ExprString(sel.X), hn)
	}
	return ""
}
