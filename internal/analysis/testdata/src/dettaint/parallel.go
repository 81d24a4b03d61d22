package dettaint

import (
	"sort"
	"time"
)

// Worker-pool idioms (channels, keyed merges of per-worker streams) and
// the violations the pass must still catch inside them. Deterministic
// fan-out merges per-worker streams by explicit keys, never by
// scheduling or iteration order.

type rec struct {
	key uint64
	val uint64
}

type track struct {
	id   int
	segs []rec
}

// coordinator drains worker-produced segments from a channel. Every
// segment carries its producer id, so the handoff is deterministic-safe:
// no finding.
func coordinator(repq chan *track, tracks []*track) {
	for t := range repq {
		tracks[t.id] = t
	}
}

// merge replays records in canonical key order: no finding.
func merge(tracks []*track) []rec {
	var out []rec
	for {
		best := -1
		for i, t := range tracks {
			if len(t.segs) == 0 {
				continue
			}
			if best < 0 || t.segs[0].key < tracks[best].segs[0].key {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, tracks[best].segs[0])
		tracks[best].segs = tracks[best].segs[1:]
	}
}

// mergeProbes averages per-shard gauge maps into a local map that it
// returns: writes keyed by the loop variable commute, so no finding.
func mergeProbes(banks []map[string]float64) map[string]float64 {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, b := range banks {
		for k, v := range b {
			sums[k] += v
			counts[k]++
		}
	}
	for k := range sums {
		sums[k] /= float64(counts[k])
	}
	return sums
}

func sortedGauges(probes map[string]float64) []string {
	var names []string
	for k := range probes {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// timestampedWorker makes segment contents depend on scheduling.
func timestampedWorker(work chan rec, done chan rec) {
	for r := range work {
		r.val = uint64(time.Now().UnixNano()) // want "time.Now reads the wall clock in the deterministic core"
		done <- r                             // want "wall-clock value is sent on a channel"
	}
}

// unsortedBankReport leaks map iteration order into worker output.
func unsortedBankReport(probes map[string]float64, out chan string) {
	for k := range probes {
		out <- k // want "map-iteration-order value is sent on a channel"
	}
}

// driftingAverage accumulates floats in map iteration order, so the
// rounding depends on the walk.
func driftingAverage(probes map[string]float64) float64 {
	var total float64
	for _, v := range probes {
		total += v
	}
	return total / float64(len(probes)) // want "map-iteration-order value escapes via return"
}
