package dettaint

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// The cases below are per-function sources and map-order escapes.

func globalRand() int {
	return rand.Intn(8) // want "global math/rand value escapes via return"
}

func globalFloat() float64 {
	return rand.Float64() // want "global math/rand value escapes via return"
}

func seededRand() int {
	r := rand.New(rand.NewSource(1)) // constructors and seeded generators are fine
	return r.Intn(8)
}

func wallClock() int64 {
	return time.Now().UnixNano() // want "wall-clock value escapes via return"
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want "wall-clock value escapes via return"
}

// commutingWrites returns an integer sum over a map range: integer
// accumulation, per-key writes and deletes commute across orders.
func commutingWrites(m map[string]int, other map[string]int) int {
	total := 0
	for k, v := range m {
		total += v
		m[k] = v + 1
		other[k] = v
		delete(m, k)
	}
	return total
}

func collectThenSort(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortThenCollect sorts before the appends, which launders nothing.
func sortThenCollect(m map[string]int) []string {
	var keys []string
	sort.Strings(keys)
	for k := range m {
		keys = append(keys, k)
	}
	return keys // want "map-iteration-order value escapes via return"
}

func collectNeverSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys // want "map-iteration-order value escapes via return"
}

func lastWriterWins(m map[string]int) string {
	var last string
	for k := range m {
		last = k
	}
	return last // want "map-iteration-order value escapes via return"
}

func floatAccumulation(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum // want "map-iteration-order value escapes via return"
}

func arbitraryEntry(m map[string]int) string {
	for k := range m {
		return k // want "map-iteration-order value escapes via return"
	}
	return ""
}

func printsEntries(m map[string]int) {
	for k := range m {
		fmt.Println(k) // want "map-iteration-order value is written as formatted output"
	}
}

func sendsEntries(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want "map-iteration-order value is sent on a channel"
	}
}

// The cases below mutate a local through its methods, or store into
// state that outlives the call, in map order.

func buildsString(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k)
	}
	return b.String() // want "map-iteration-order value escapes via return"
}

func hashesKeys(m map[string]int) uint64 {
	h := fnv.New64a()
	for k := range m {
		h.Write([]byte(k))
	}
	return h.Sum64() // want "map-iteration-order value escapes via return"
}

// fillsSliceParam writes through a slice parameter, which aliases the
// caller's backing array.
func fillsSliceParam(out []float64, m map[int]float64) {
	i := 0
	for _, v := range m {
		out[i] = v // want "map-iteration-order value is stored into shared state"
		i++
	}
}

var lastKey string

func storesPackageVar(m map[string]int) {
	for k := range m {
		lastKey = k // want "map-iteration-order value is stored into shared state"
	}
}

type holder struct{ last string }

var theHolder holder

func state() *holder { return &theHolder }

func storesThroughCall(m map[string]int) {
	for k := range m {
		state().last = k // want "map-iteration-order value is stored into shared state"
	}
}
