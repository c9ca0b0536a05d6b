// Package pool is the one worker pool every study-level fan-out in the
// repository rides: the core study scheduler (honeyfarm months +
// telescope snapshots, PR 4) and the report graph's per-(snapshot,
// band) model fits share this implementation instead of hand-rolling
// goroutine loops.
//
// The pool's contract is built for deterministic assembly: jobs are
// identified by index, handed to workers in index order through one
// buffered channel, and the caller writes each job's result into an
// index-addressed slot — so the assembled output is independent of
// which worker ran which job, and byte-identical to a serial loop over
// the same indices. Error handling is first-error-wins: the first
// failure cancels the pool's context and the remaining queue is
// drained without working, mirroring the original core scheduler
// semantics.
package pool

import (
	"context"
	"runtime"
	"sync"
)

// Each runs jobs 0..n-1 across up to workers goroutines (<= 0 means
// GOMAXPROCS — this is the one place a fan-out of "0 workers" is
// resolved — capped at n) and blocks until all of them finish or the
// first error cancels the rest. One worker, asked for or left by the
// cap, is the caller's own goroutine. do must be safe for concurrent
// invocation on distinct jobs; results should land in index-addressed
// slots owned by the caller. Each returns the first job error, or ctx's
// error when the caller's context ends the run.
func Each(ctx context.Context, workers, n int, do func(ctx context.Context, job int) error) error {
	return EachWorker(ctx, workers, n,
		func() struct{} { return struct{}{} },
		func(struct{}) {},
		func(ctx context.Context, _ struct{}, job int) error { return do(ctx, job) })
}

// EachWorker is Each with per-goroutine private state: every pool
// goroutine calls newState once before its first job and closeState
// once after its last, so workers can own non-concurrency-safe
// resources (a private telescope, a single-connection store client, a
// fit scratch buffer) across the jobs they happen to run. newState and
// closeState run on the worker goroutine; closeState always runs,
// including on error or cancellation.
func EachWorker[S any](ctx context.Context, workers, n int, newState func() S, closeState func(S), do func(ctx context.Context, state S, job int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// One worker is the caller: same contract, no goroutine.
		state := newState()
		defer closeState(state)
		for job := 0; job < n; job++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := do(ctx, state, job); err != nil {
				return err
			}
		}
		return ctx.Err()
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan int, n)
	for job := 0; job < n; job++ {
		jobs <- job
	}
	close(jobs)

	var (
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			defer closeState(state)
			for job := range jobs {
				if ctx.Err() != nil {
					continue // abandoned: drain the queue without working
				}
				if err := do(ctx, state, job); err != nil {
					fail(err)
				}
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
