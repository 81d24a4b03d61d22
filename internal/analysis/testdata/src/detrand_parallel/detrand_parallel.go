// Package detrand_parallel is a morclint fixture: worker-pool idioms
// (channels, WaitGroups, keyed merges of per-worker streams) and the
// violations the pass must still catch when they appear inside them.
// Deterministic fan-out merges per-worker streams by explicit keys,
// never by scheduling or iteration order.
package detrand_parallel

import (
	"sort"
	"time"
)

type rec struct {
	key uint64
	val uint64
}

type track struct {
	id   int
	segs []rec
}

// coordinator drains worker-produced segments from a channel. The
// receive order is scheduling-dependent, but every segment carries its
// producer id and the merge below orders by (key, id), so channel handoff
// itself is deterministic-safe: no diagnostic.
func coordinator(repq chan *track, tracks []*track) {
	for t := range repq {
		tracks[t.id] = t
	}
}

// merge replays records in canonical (key, id) order — index iteration
// over a slice, nothing order-sensitive: no diagnostic.
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

// mergeProbes averages per-shard gauge maps: accumulation keyed by the
// loop variable commutes across iteration orders, so none of these
// writes is flagged.
func mergeProbes(banks []map[string]float64) map[string]float64 {
	sums := make(map[string]float64)
	counts := make(map[string]int)
	for _, b := range banks {
		for k, v := range b {
			sums[k] += v // keyed by the loop variable: fine
			counts[k]++  // fine
		}
	}
	for k := range sums {
		sums[k] /= float64(counts[k]) // writing the ranged map by its own key: fine
	}
	return sums
}

// sortedGauges emits gauge names for a report: collected in map order
// but sorted before use, which the pass accepts.
func sortedGauges(probes map[string]float64) []string {
	var names []string
	for k := range probes {
		names = append(names, k) // sorted below: fine
	}
	sort.Strings(names)
	return names
}

// timestampedWorker is the classic determinism bug in a worker loop:
// wall-clock reads make segment contents depend on scheduling.
func timestampedWorker(work chan rec, done chan rec) {
	for r := range work {
		r.val = uint64(time.Now().UnixNano()) // want "time.Now in the deterministic core"
		done <- r
	}
}

// unsortedBankReport leaks map iteration order into worker output — the
// mistake mergeProbes exists to avoid.
func unsortedBankReport(probes map[string]float64, out chan string) {
	for k := range probes {
		out <- k // want "sends on a channel in map iteration order"
	}
}

// driftingAverage accumulates floats in map iteration order, so the
// rounding — and every downstream golden byte — depends on the walk.
func driftingAverage(probes map[string]float64) float64 {
	var total float64
	for _, v := range probes {
		total += v // want "accumulates floating-point values into total in map iteration order"
	}
	return total / float64(len(probes))
}
