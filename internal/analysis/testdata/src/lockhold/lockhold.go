// Package lockhold is a morclint fixture: blocking operations inside
// critical sections, plus the non-blocking idioms the pass must accept.
package lockhold

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"
)

type srv struct {
	mu sync.Mutex
	ch chan int
	wg sync.WaitGroup
}

func (s *srv) blockingUnderLock(w io.Writer) {
	s.mu.Lock()
	fmt.Fprintf(w, "x")          // want "fmt.Fprintf writes to an interface-typed destination"
	time.Sleep(time.Millisecond) // want "sleeps while holding s.mu"
	s.ch <- 1                    // want "sends on s.ch while holding s.mu"
	<-s.ch                       // want "receives from s.ch while holding s.mu"
	s.wg.Wait()                  // want "waits on a sync.WaitGroup while holding s.mu"
	w.Write(nil)                 // want "calls Write on interface-typed w while holding s.mu"
	s.mu.Unlock()
	w.Write(nil) // after the unlock: fine
}

func (s *srv) selectWithoutDefault() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select with no default case blocks while holding s.mu"
	case v := <-s.ch:
		return v
	}
}

func (s *srv) rangesOverChannel() {
	s.mu.Lock()
	for v := range s.ch { // want "ranges over channel s.ch while holding s.mu"
		_ = v
	}
	s.mu.Unlock()
}

type flusher interface{ Flush() }

func (s *srv) flushUnderLock(f flusher) {
	s.mu.Lock()
	f.Flush() // want "flushes f while holding s.mu"
	s.mu.Unlock()
}

func (s *srv) nonBlockingIdioms(buf *bytes.Buffer) {
	s.mu.Lock()
	fmt.Fprintf(buf, "x") // concrete in-memory destination: fine
	select {
	case s.ch <- 1: // non-blocking thanks to the default case: fine
	default:
	}
	s.mu.Unlock()
	s.ch <- 2 // no lock held: fine
}

func (s *srv) goroutineEscapesCriticalSection(w io.Writer) {
	s.mu.Lock()
	go func() {
		fmt.Fprintf(w, "x") // runs without the spawning goroutine's lock: fine
	}()
	s.mu.Unlock()
}

func (s *srv) receiveInSwitchTag() {
	s.mu.Lock()
	switch <-s.ch { // want "receives from s.ch while holding s.mu"
	case 0:
	}
	s.mu.Unlock()
}

func (s *srv) receiveInForPost() {
	s.mu.Lock()
	for i := 0; i < 3; i += <-s.ch { // want "receives from s.ch while holding s.mu"
	}
	s.mu.Unlock()
}

func f(v int) int { return v }

// The select's own send is non-blocking (default case), but its operands
// are evaluated under the lock before the select runs.
func (s *srv) receiveInSelectOperand() {
	s.mu.Lock()
	select {
	case s.ch <- f(<-s.ch): // want "receives from s.ch while holding s.mu"
	default:
	}
	s.mu.Unlock()
}
