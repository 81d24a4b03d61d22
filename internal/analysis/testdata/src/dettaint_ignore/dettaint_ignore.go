// Package dettaintignore is a morclint fixture: allowlisted dettaint
// findings and malformed ignore comments. The ignore comments here are
// the justified-false-positive form the repo policy requires (reason
// mandatory). As a top-level dettaint fixture it stands in for a core
// package, so global-rand calls are findings wherever their value goes.
package dettaintignore

import (
	"math/rand"
	"time"
)

type sink struct {
	last int64
	keys []string
}

// Mark stores a wall-clock value that is documented as part of the
// trace format, not a replayed artifact.
func Mark(s *sink) {
	//morclint:ignore dettaint fixture: the timestamp annotates the trace envelope, not the replayed payload
	s.last = time.Now().UnixNano()
}

// Snapshot allowlists a map-order store into shared state.
func Snapshot(s *sink, m map[string]bool) {
	for k := range m {
		s.keys = append(s.keys, k) //morclint:ignore dettaint fixture: consumer treats keys as an unordered set
	}
}

func trailingIgnore() int {
	return rand.Intn(4) //morclint:ignore dettaint fixture exercises the trailing allowlist form
}

func ignoreOnLineAbove() int {
	//morclint:ignore dettaint a comment alone on the line above covers the next line
	return rand.Intn(4)
}

func ignoreList() int {
	return rand.Intn(4) //morclint:ignore dettaint,lockhold a comma-separated pass list is accepted
}

func ignoreAll() int {
	return rand.Intn(4) //morclint:ignore all the wildcard suppresses every pass
}

func ignoreSpacedList() int {
	return rand.Intn(4) //morclint:ignore dettaint, lockhold a space after the comma still reads as one list
}

func ignoreAllPlusNamed() int {
	return rand.Intn(4) //morclint:ignore all,dettaint the wildcard swallows the named pass
}

func multilineStatement() int {
	//morclint:ignore dettaint the line-above form covers only the statement's first line
	return rand.Intn(4) +
		rand.Intn(8) // want "rand.Intn uses math/rand's global generator in the deterministic core"
}

func malformedIgnore() int {
	/* want "malformed ignore comment" */ //morclint:ignore dettaint
	return rand.Intn(4)                   // want "global math/rand value escapes via return"
}

func reasonlessList() int {
	/* want "malformed ignore comment" */ //morclint:ignore dettaint, lockhold
	return rand.Intn(4)                   // want "global math/rand value escapes via return"
}

func unknownPass() int {
	/* want "ignore comment names unknown pass .detrand." */ //morclint:ignore detrand the pass was folded into dettaint
	return rand.Intn(4)                                      // want "global math/rand value escapes via return"
}
