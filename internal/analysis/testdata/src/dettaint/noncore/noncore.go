// Package noncore is part of the dettaint fixture: a package outside
// the deterministic core that the core calls. Only values that escape
// from here are findings; reads that die locally are not.
package noncore

import "time"

// Spin reads the clock, but the value dies locally: no finding outside
// the core.
func Spin() int {
	t0 := time.Now()
	n := 0
	for time.Since(t0) < 0 {
		n++
	}
	return n
}

// Stamp lets the clock escape into its core caller.
func Stamp() int64 {
	return time.Now().UnixNano() // want "wall-clock value escapes via return"
}

// Unreached is called from nowhere in the core, so its escape is not a
// finding.
func Unreached() int64 {
	return time.Now().UnixNano()
}
