// Package analysis is a from-scratch static-analysis framework for this
// repository, built only on the standard library's go/parser, go/types,
// and go/importer (the module's stdlib-only rule applies to its tooling
// too). It loads every package in the module, type-checks them against
// source-imported standard-library packages, and runs a suite of
// MORC-specific passes that enforce the contracts the runtime tests rely
// on: byte-identical deterministic replay in the simulation core, and
// non-blocking critical sections in the concurrent service layer.
//
// Each pass emits diagnostics rendered as
//
//	file:line: [passname] message
//
// and cmd/morclint exits nonzero when any survive filtering. Individual
// findings can be allowlisted with a comment on the flagged line or the
// line directly above it:
//
//	//morclint:ignore passname reason for the exception
//
// The pass name may be a comma-separated list (or "all"), and the reason
// is mandatory: an ignore without a justification is itself a finding.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"time"
)

// Diagnostic is one finding, positioned and attributed to a pass.
type Diagnostic struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

// String renders the diagnostic in the canonical file:line format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Pass, d.Message)
}

// Finding is a pass-internal diagnostic, positioned by token.Pos; the
// runner resolves positions, applies ignore comments, and sorts.
type Finding struct {
	Pos     token.Pos
	Message string
}

// Pass is one analyzer. Run is called once per in-scope lint unit.
type Pass interface {
	// Name is the pass identifier used in diagnostics and ignore comments.
	Name() string
	// Doc is a one-line description (cmd/morclint -list).
	Doc() string
	// Scope reports whether the unit should be analyzed by this pass.
	Scope(prog *Program, u *Unit) bool
	// Run analyzes one unit.
	Run(prog *Program, u *Unit) []Finding
}

// AllPasses returns the full suite in stable order.
func AllPasses() []Pass {
	return []Pass{
		&LockHold{},
		&Invariants{},
		&BoundedGrowth{},
		&SpanBalance{},
		&DetTaint{},
		&LockOrder{},
		&HotAlloc{},
	}
}

// PassNames returns the names of the given passes.
func PassNames(passes []Pass) []string {
	out := make([]string, len(passes))
	for i, p := range passes {
		out[i] = p.Name()
	}
	return out
}

// PassTiming records one pass's total wall time across all units.
type PassTiming struct {
	Name     string
	Duration time.Duration
}

// Run executes the passes over every lint unit, filters findings through
// the //morclint:ignore index, and returns position-sorted diagnostics.
func (prog *Program) Run(passes []Pass) []Diagnostic {
	diags, _ := prog.RunTimed(passes)
	return diags
}

// RunTimed is Run plus per-pass wall-clock timings, in pass order. A
// pass's first Run call pays for any shared whole-program state it
// builds (the call graph is attributed to whichever interprocedural
// pass runs first).
func (prog *Program) RunTimed(passes []Pass) ([]Diagnostic, []PassTiming) {
	ign := newIgnoreIndex(prog)
	elapsed := make([]time.Duration, len(passes))
	var out []Diagnostic
	for _, u := range prog.Units {
		if !u.Lint {
			continue
		}
		for i, p := range passes {
			if !p.Scope(prog, u) {
				continue
			}
			start := time.Now()
			fs := p.Run(prog, u)
			elapsed[i] += time.Since(start)
			for _, f := range fs {
				pos := prog.Fset.Position(f.Pos)
				if ign.suppressed(p.Name(), pos) {
					continue
				}
				out = append(out, Diagnostic{
					File:    pos.Filename,
					Line:    pos.Line,
					Col:     pos.Column,
					Pass:    p.Name(),
					Message: f.Message,
				})
			}
		}
	}
	// Malformed ignore comments are findings in their own right: an
	// allowlist entry without a pass name or reason silently suppresses
	// nothing and usually means a contract violation went unreviewed.
	out = append(out, ign.malformed...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
	timings := make([]PassTiming, len(passes))
	for i, p := range passes {
		timings[i] = PassTiming{Name: p.Name(), Duration: elapsed[i]}
	}
	return out, timings
}
