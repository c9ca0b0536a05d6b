package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEachRunsEveryJobOnce covers the index contract at worker counts
// below, at, and above the job count, including one worker (the
// caller) and zero (GOMAXPROCS).
func TestEachRunsEveryJobOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 17
			var ran [n]int32
			err := Each(context.Background(), workers, n, func(_ context.Context, job int) error {
				atomic.AddInt32(&ran[job], 1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for job, c := range ran {
				if c != 1 {
					t.Errorf("job %d ran %d times", job, c)
				}
			}
		})
	}
}

// TestEachZeroJobs runs no callbacks and returns nil.
func TestEachZeroJobs(t *testing.T) {
	if err := Each(context.Background(), 4, 0, func(context.Context, int) error {
		t.Error("job ran")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEachFirstErrorWins returns the first failure and stops handing
// out the remaining queue. Jobs are handed out in index order, so job 3
// always runs, and every job after it waits for the cancellation its
// failure brings: no timing decides the outcome. A worker can have
// taken at most one later job before it sees the cancellation, so at
// most 3 + workers jobs run.
func TestEachFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var ran int32
			err := Each(context.Background(), workers, 1000, func(ctx context.Context, job int) error {
				atomic.AddInt32(&ran, 1)
				switch {
				case job == 3:
					return boom
				case job > 3:
					select {
					case <-ctx.Done():
					case <-time.After(10 * time.Second):
						t.Errorf("job %d: the pool's context was never cancelled", job)
					}
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
			if n := atomic.LoadInt32(&ran); n > int32(3+workers) {
				t.Errorf("%d jobs ran; after job 3 failed at most %d may", n, 3+workers)
			}
		})
	}
}

// TestEachContextCancellation drains without working once the caller's
// context dies and reports the context error.
func TestEachContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	err := Each(ctx, 2, 1000, func(ctx context.Context, job int) error {
		if atomic.AddInt32(&ran, 1) == 4 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := atomic.LoadInt32(&ran); n == 1000 {
		t.Error("all jobs ran despite cancellation")
	}
}

// TestEachWorkerStateLifecycle proves each goroutine gets exactly one
// state, jobs see their own goroutine's state, and every state is
// closed exactly once — including when jobs fail.
func TestEachWorkerStateLifecycle(t *testing.T) {
	var (
		mu     sync.Mutex
		opened int
		closed int
	)
	type state struct{ jobs int }
	err := EachWorker(context.Background(), 4, 64,
		func() *state {
			mu.Lock()
			opened++
			mu.Unlock()
			return &state{}
		},
		func(s *state) {
			mu.Lock()
			closed++
			mu.Unlock()
		},
		func(_ context.Context, s *state, job int) error {
			s.jobs++ // races iff two goroutines ever share a state
			if job == 50 {
				return errors.New("late failure")
			}
			return nil
		})
	if err == nil {
		t.Fatal("expected the injected failure")
	}
	if opened != closed {
		t.Errorf("opened %d states, closed %d", opened, closed)
	}
	if opened == 0 || opened > 4 {
		t.Errorf("opened %d states, want 1..4", opened)
	}
}

// TestEachIndexAddressedAssembly is the determinism contract the study
// scheduler and report graph rely on: results written to slots by
// index assemble identically at any worker count.
func TestEachIndexAddressedAssembly(t *testing.T) {
	const n = 40
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{1, 3, 8} {
		got := make([]int, n)
		if err := Each(context.Background(), workers, n, func(_ context.Context, job int) error {
			got[job] = job * job
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// goroutineID reads the running goroutine's id off its stack header —
// for telling goroutines apart in a test, nothing else.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestEachResolvesWorkerCount pins the one place "0 workers" is
// resolved: zero means GOMAXPROCS, so on two or more procs the jobs
// spread over more than one goroutine, while exactly one worker — and
// a single job at any worker count — runs on the caller's goroutine.
func TestEachResolvesWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	caller := goroutineID()
	ranOn := func(workers, n int) map[string]bool {
		var mu sync.Mutex
		ids := make(map[string]bool)
		// Every job but the last waits until a second job has started, so
		// with two or more workers two goroutines must show up; with one
		// worker nothing waits.
		started := make(chan struct{}, n)
		if err := Each(context.Background(), workers, n, func(_ context.Context, job int) error {
			mu.Lock()
			ids[goroutineID()] = true
			mu.Unlock()
			started <- struct{}{}
			if workers != 1 && n > 1 && job == 0 {
				for len(started) < 2 {
					runtime.Gosched()
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return ids
	}
	if ids := ranOn(0, 8); len(ids) < 2 {
		t.Errorf("workers=0 on 2 procs ran 8 jobs on %d goroutine(s), want more than one", len(ids))
	}
	if ids := ranOn(1, 8); len(ids) != 1 || !ids[caller] {
		t.Errorf("workers=1 ran on %v, want only the caller's goroutine %s", ids, caller)
	}
	if ids := ranOn(0, 1); len(ids) != 1 || !ids[caller] {
		t.Errorf("one job at workers=0 ran on %v, want only the caller's goroutine %s", ids, caller)
	}
}
