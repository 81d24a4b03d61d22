// Command morclint runs the repository's static-analysis suite: the
// MORC-specific passes in internal/analysis that machine-check the
// determinism and concurrency contracts the runtime tests rely on.
//
// Usage:
//
//	morclint [-json] [-time] [-passes a,b] [packages ...]
//	morclint -callgraph [packages ...]
//	morclint -list
//
// -callgraph dumps the interprocedural call graph the boundedgrowth,
// dettaint, lockorder and hotalloc passes share (one "caller -> callee [kind]"
// edge per line, deterministically ordered); -time reports per-pass
// wall time on stderr after a normal run.
//
// Package arguments are directories relative to the working directory,
// with the usual "./..." recursion (testdata is skipped unless named
// explicitly). With no arguments, ./... is assumed. Diagnostics print as
//
//	file:line: [passname] message
//
// and the exit status is 0 when the tree is clean, 1 when findings were
// reported, and 2 on load or usage errors. Individual findings are
// allowlisted in source with `//morclint:ignore <pass[,pass]> <reason>`
// on the flagged line or the line above it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"morc/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("morclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut   = fs.Bool("json", false, "emit diagnostics as a JSON array")
		list      = fs.Bool("list", false, "list passes with one-line descriptions and exit")
		passNames = fs.String("passes", "", "comma-separated pass names to run (default: all)")
		callgraph = fs.Bool("callgraph", false, "dump the resolved call graph (one edge per line) instead of diagnostics")
		timing    = fs.Bool("time", false, "report per-pass wall time on stderr")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr,
			"usage: morclint [-json] [-time] [-passes a,b] [packages ...]\n       morclint -callgraph [packages ...]\n       morclint -list\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := analysis.AllPasses()
	if *list {
		for _, p := range all {
			fmt.Fprintf(stdout, "%-14s %s\n", p.Name(), p.Doc())
		}
		return 0
	}

	passes := all
	if *passNames != "" {
		byName := map[string]analysis.Pass{}
		for _, p := range all {
			byName[p.Name()] = p
		}
		passes = nil
		for _, name := range strings.Split(*passNames, ",") {
			name = strings.TrimSpace(name)
			p, ok := byName[name]
			if !ok {
				fmt.Fprintf(stderr, "morclint: unknown pass %q; valid passes: %s\n",
					name, strings.Join(analysis.PassNames(all), ", "))
				return 2
			}
			passes = append(passes, p)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "morclint:", err)
		return 2
	}
	prog, err := analysis.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "morclint:", err)
		return 2
	}
	for _, terr := range prog.TypeErrors {
		fmt.Fprintln(stderr, "morclint: type error:", terr)
	}

	if *callgraph {
		prog.CallGraph().Dump(stdout)
		if len(prog.TypeErrors) > 0 {
			return 2
		}
		return 0
	}

	diags, timings := prog.RunTimed(passes)
	if *timing {
		for _, pt := range timings {
			fmt.Fprintf(stderr, "morclint: pass %-14s %8.1fms\n", pt.Name, float64(pt.Duration.Microseconds())/1000)
		}
	}
	// Render file names relative to the working directory, the way the
	// go tool does, so diagnostics are clickable from the repo root.
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "morclint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}

	switch {
	case len(prog.TypeErrors) > 0:
		return 2
	case len(diags) > 0:
		return 1
	}
	return 0
}
