package server

import (
	"io"
	"testing"
)

// TestWriteEventAllocs bounds the per-frame cost of the SSE encoder.
// writeEvent was rewritten fmt-free after the hotalloc pass flagged the
// formatting calls on the stream path: the remaining allocations are the
// JSON encoding of the payload plus the interface boxing of the value
// argument, so the count must stay small and flat regardless of stream
// length.
func TestWriteEventAllocs(t *testing.T) {
	p := eventProgress{ID: "bench", Status: StatusRunning, Progress: 0.5}
	allocs := testing.AllocsPerRun(1000, func() {
		writeEvent(io.Discard, "progress", &p)
	})
	if allocs > 4 {
		t.Fatalf("writeEvent allocates %.0f objects per frame, want <= 4 (JSON encode only)", allocs)
	}
}

// BenchmarkWriteEvent measures the per-frame cost of the SSE encoder
// (run with -benchmem); TestWriteEventAllocs holds its allocation bound.
func BenchmarkWriteEvent(b *testing.B) {
	p := eventProgress{ID: "bench", Status: StatusRunning, Progress: 0.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		writeEvent(io.Discard, "progress", &p)
	}
}
