package dettaint

import (
	"math/rand"
	"sort"
	"time"
)

// Sampling-shaped code, like morc/internal/sample: the bugs here would
// make a sampled run non-reproducible.

type signature struct {
	footprint float64
	missRate  float64
}

// seedCenters picks k-means++ centers with the global generator.
func seedCenters(sigs []signature, k int) []signature {
	centers := make([]signature, 0, k)
	for len(centers) < k {
		centers = append(centers, sigs[rand.Intn(len(sigs))]) // want "rand.Intn uses math/rand's global generator in the deterministic core"
	}
	return centers // want "global math/rand value escapes via return"
}

// seedCentersSeeded is the allowed idiom: a seeded local generator.
func seedCentersSeeded(sigs []signature, k int, seed int64) []signature {
	r := rand.New(rand.NewSource(seed))
	centers := make([]signature, 0, k)
	for len(centers) < k {
		centers = append(centers, sigs[r.Intn(len(sigs))])
	}
	return centers
}

// profileCost leaks host speed into a supposedly pure profile.
func profileCost() int64 {
	return time.Now().UnixNano() // want "wall-clock value escapes via return"
}

// footprintSignature stores into a field of a local struct in map
// iteration order and returns the struct: the float sum depends on
// which lines come first.
func footprintSignature(footprint map[uint64]float64) signature {
	var s signature
	for _, reuse := range footprint {
		s.footprint += reuse
	}
	return s // want "map-iteration-order value escapes via return"
}

func footprintLines(footprint map[uint64]struct{}) []uint64 {
	var lines []uint64
	for addr := range footprint {
		lines = append(lines, addr)
	}
	return lines // want "map-iteration-order value escapes via return"
}

// footprintLinesSorted is the collect-then-sort idiom plus a commuting
// integer count.
func footprintLinesSorted(footprint map[uint64]struct{}) ([]uint64, int) {
	var lines []uint64
	distinct := 0
	for addr := range footprint {
		lines = append(lines, addr)
		distinct++
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines, distinct
}
