// Package par is the repo's one approved worker-pool shape: a bounded
// pool of goroutines claiming indices off an atomic counter, with panic
// containment. Every simulation layer is single-threaded per kernel;
// concurrency lives only in harnesses (internal/experiments fanning
// experiments out, internal/fleet sharding vehicles) and both reuse this
// pool so that panic handling, work claiming and shutdown exist exactly
// once.
//
// The pool preserves the byte-identity contract the harnesses rely on:
// fn(i) must be a pure function of i (each call builds its own seeded
// kernel), results are written to caller-owned slots indexed by i, and
// neither the worker count nor goroutine interleaving can influence any
// result.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// PanicError reports that a worker's fn(i) panicked. The pool recovers
// the panic in the worker so sibling workers drain instead of crashing
// the process, records which index failed, and surfaces the panic as an
// error after every worker has stopped.
type PanicError struct {
	// Index is the work item whose fn panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: worker panicked on item %d: %v", e.Index, e.Value)
}

// ForEach runs fn(i) for every i in [0, n) across a pool of workers.
// workers <= 0 means GOMAXPROCS; the pool never exceeds n goroutines and
// workers <= 1 runs serially on the calling goroutine (still with panic
// containment, so callers handle one shape).
//
// If any fn panics, the panic is recovered in the worker, remaining
// unclaimed work is abandoned (in-flight items finish), and after all
// workers return ForEach reports the lowest-index panic as a
// *PanicError — the same error regardless of interleaving when a single
// item is at fault. A nil return means every item ran to completion.
func ForEach(n, workers int, fn func(int)) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		first  *PanicError
	)
	next.Store(-1)
	record := func(i int, v any) {
		// Stop further claims before the slow stack capture.
		failed.Store(true)
		stack := make([]byte, 64<<10)
		stack = stack[:runtime.Stack(stack, false)]
		mu.Lock()
		if first == nil || i < first.Index {
			first = &PanicError{Index: i, Value: v, Stack: stack}
		}
		mu.Unlock()
	}
	work := func() {
		for {
			i := int(next.Add(1))
			if i >= n || failed.Load() {
				return
			}
			func() {
				defer func() {
					if v := recover(); v != nil {
						record(i, v)
					}
				}()
				fn(i)
			}()
		}
	}

	if workers <= 1 {
		work()
		if first != nil {
			return first
		}
		return nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return nil
}
