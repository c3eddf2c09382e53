package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers bounds the goroutines used by intra-run parallel phases: the
// engine's mobility advance and contact-pair sharding fan out through one
// Workers value sized by Config.Workers.
//
// The determinism contract is placement, not scheduling: a phase hands out
// part indices to whichever goroutine is free, but every part writes only
// into its own pre-assigned slot (a scratch range, a per-part buffer), and
// the caller merges the slots in part order afterwards. Parts therefore
// must not touch shared mutable state — reads of state that no part writes
// are fine.
//
// Goroutines are spawned per call rather than parked in a resident pool:
// engines have no Close hook (sweeps build hundreds of them), so a
// resident pool would leak its goroutines with every finished run. The
// spawn cost — at most N goroutines per phase, two phases per tick — is
// noise next to the phase bodies themselves.
type Workers struct {
	n int
}

// NewWorkers returns a pool bounded to n concurrent goroutines per phase.
// Values below 1 are treated as 1 (serial). n is also clamped to GOMAXPROCS
// at construction: more workers than schedulable CPUs can never cut
// wall-clock time, but would forfeit the serial fast paths. The
// determinism contract (identical results at every worker
// count) is what makes the clamp invisible.
func NewWorkers(n int) *Workers {
	if p := runtime.GOMAXPROCS(0); n > p {
		n = p
	}
	if n < 1 {
		n = 1
	}
	return &Workers{n: n}
}

// N returns the concurrency bound; a nil pool is serial.
func (w *Workers) N() int {
	if w == nil {
		return 1
	}
	return w.n
}

// Do runs fn(0) … fn(parts-1), distributing parts over at most N
// goroutines, and returns when all parts have finished. Parts are handed
// out dynamically (cheap work stealing), so fn may run for any part on any
// goroutine — fn must write only to part-indexed slots. With one worker or
// one part the calls run inline in index order.
func (w *Workers) Do(parts int, fn func(part int)) {
	if parts <= 0 {
		return
	}
	k := w.N()
	if k > parts {
		k = parts
	}
	if k <= 1 {
		for i := 0; i < parts; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(k)
	for g := 0; g < k; g++ {
		go func() {
			defer wg.Done()
			for {
				p := int(next.Add(1)) - 1
				if p >= parts {
					return
				}
				fn(p)
			}
		}()
	}
	wg.Wait()
}

// Shard partitions [0, n) into one contiguous range per worker and runs
// fn(lo, hi) for each range concurrently. Contiguous ranges keep each
// worker streaming over adjacent slots (the mobility scratch array) instead
// of interleaving cache lines.
func (w *Workers) Shard(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	k := w.N()
	if k > n {
		k = n
	}
	if k <= 1 {
		fn(0, n)
		return
	}
	w.Do(k, func(p int) {
		fn(n*p/k, n*(p+1)/k)
	})
}
