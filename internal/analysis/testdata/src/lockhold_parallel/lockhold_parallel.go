// Package lockhold_parallel is a morclint fixture: the locking idioms
// of a sharded structure and a worker pool (channels, WaitGroups,
// per-instance mutexes), as the server and cluster layers use them.
// Per-shard mutexes guard only the delegated shard operation; every
// channel handoff and barrier wait must happen outside the critical
// section.
package lockhold_parallel

import "sync"

// banked is a sharded map: one mutex per bank, held across nothing but
// the bank's own in-memory operation.
type banked struct {
	mus   []sync.Mutex
	banks []map[uint64][]byte
}

func (b *banked) read(i int, addr uint64) []byte {
	b.mus[i].Lock()
	defer b.mus[i].Unlock()
	return b.banks[i][addr] // pure map access under the bank lock: fine
}

func (b *banked) fill(i int, addr uint64, data []byte) {
	b.mus[i].Lock()
	b.banks[i][addr] = data
	b.mus[i].Unlock()
}

// engine is a worker pool: dispatch and completion ride on channels,
// and a WaitGroup joins the workers at shutdown.
type engine struct {
	mu   sync.Mutex
	runq chan int
	wg   sync.WaitGroup
}

func (e *engine) dispatchUnderLock(t int) {
	e.mu.Lock()
	e.runq <- t // want "sends on e.runq while holding e.mu"
	e.mu.Unlock()
}

func (e *engine) barrierUnderLock() {
	e.mu.Lock()
	e.wg.Wait() // want "waits on a sync.WaitGroup while holding e.mu"
	e.mu.Unlock()
}

func (e *engine) receiveUnderLock() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return <-e.runq // want "receives from e.runq while holding e.mu"
}

// dispatchAfterUnlock is the correct shape: snapshot under the lock,
// hand off outside it.
func (e *engine) dispatchAfterUnlock(t int) {
	e.mu.Lock()
	pending := t
	e.mu.Unlock()
	e.runq <- pending // handoff outside the critical section: fine
}

// nonBlockingDrain is the coordinator's opportunistic drain: a select
// with a default never blocks, so holding the lock is fine.
func (e *engine) nonBlockingDrain() (n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		select {
		case <-e.runq: // non-blocking thanks to the default case: fine
			n++
		default:
			return n
		}
	}
}

// shutdown joins workers with no lock held: fine.
func (e *engine) shutdown() {
	close(e.runq)
	e.wg.Wait()
}
