package scenario

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/pool"
	"repro/internal/tripled"
)

// Result is one scenario's execution record: every assertion's check,
// or the error that stopped the run before the checks could be made.
type Result struct {
	Scenario *Scenario
	Checks   []Check
	Err      error // pipeline failure or cancellation; nil when Checks ran
	Elapsed  time.Duration
}

// FailedChecks returns the assertions that did not hold.
func (r *Result) FailedChecks() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// serverSlot is a restartable in-process store node: the crash hook
// swaps in the recovered server under the mutex, and the deferred
// close always tears down the current occupant.
type serverSlot struct {
	mu  sync.Mutex
	srv *tripled.Server
}

func (s *serverSlot) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.srv.Close()
}

// crashRestart closes the slot's server (listener and in-memory state
// gone) and restarts it on the same address from its WAL dir. A failed
// restart leaves the slot dead; the pipeline then surfaces the store
// loss as a runtime error rather than asserting against partial data.
func (s *serverSlot) crashRestart(addr string, opts ...tripled.Option) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.srv.Close()
	srv, err := tripled.Serve(tripled.NewStore(), addr, opts...)
	if err != nil {
		return
	}
	s.srv = srv
}

// execute runs one configuration through the full pipeline, optionally
// routed through an in-process tripled store or a 3-node replicated
// cluster (the same services the production path dials over TCP, bound
// to loopback ports for the scenario's lifetime). With st.WAL the
// servers are durable (per-node WAL dirs under a run-scoped temp dir);
// st.ChaosBlackholeBytes blackholes cluster node 1 after that much table
// traffic, and st.ChaosCrashBytes crashes a durable node at that byte
// count and restarts it from its WAL — both deterministic mid-study
// faults.
func execute(ctx context.Context, cfg core.Config, st StoreSettings) (*core.Result, error) {
	var walRoot string
	nodeOpts := func(i int) ([]tripled.Option, error) {
		if !st.WAL {
			return nil, nil
		}
		dir := filepath.Join(walRoot, fmt.Sprintf("node-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("scenario: wal dir: %w", err)
		}
		return []tripled.Option{tripled.WithDataDir(dir)}, nil
	}
	if st.WAL && st.Mode != StoreMemory {
		dir, err := os.MkdirTemp("", "scenario-wal-")
		if err != nil {
			return nil, fmt.Errorf("scenario: wal dir: %w", err)
		}
		defer os.RemoveAll(dir)
		walRoot = dir
	}
	switch st.Mode {
	case StoreTripled:
		opts, err := nodeOpts(0)
		if err != nil {
			return nil, err
		}
		srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0", opts...)
		if err != nil {
			return nil, fmt.Errorf("scenario: start store: %w", err)
		}
		slot := &serverSlot{srv: srv}
		defer slot.close()
		raw := srv.Addr()
		cfg.StoreAddr = raw
		if st.ChaosCrashBytes > 0 {
			p, err := faultinject.New(raw)
			if err != nil {
				return nil, fmt.Errorf("scenario: start chaos proxy: %w", err)
			}
			defer p.Close()
			p.TriggerAfterBytes(st.ChaosCrashBytes, func() { slot.crashRestart(raw, opts...) })
			// A lone store has no replica to fail over to: route through a
			// 1-node cluster spec so client retries absorb the restart
			// window instead of failing the study.
			cfg.StoreAddr = p.Addr() + ";replicas=1;io_timeout=500ms;retries=8"
		}
	case StoreCluster:
		addrs := make([]string, 3)
		slots := make([]*serverSlot, 3)
		optsByNode := make([][]tripled.Option, 3)
		for i := range addrs {
			opts, err := nodeOpts(i)
			if err != nil {
				return nil, err
			}
			optsByNode[i] = opts
			srv, err := tripled.Serve(tripled.NewStore(), "127.0.0.1:0", opts...)
			if err != nil {
				return nil, fmt.Errorf("scenario: start cluster node: %w", err)
			}
			slots[i] = &serverSlot{srv: srv}
			defer slots[i].close()
			addrs[i] = srv.Addr()
		}
		cfg.StoreAddr = strings.Join(addrs, ",") + ";replicas=2"
		switch {
		case st.ChaosBlackholeBytes > 0:
			p, err := faultinject.New(addrs[1])
			if err != nil {
				return nil, fmt.Errorf("scenario: start chaos proxy: %w", err)
			}
			defer p.Close()
			p.BlackholeAfterBytes(st.ChaosBlackholeBytes)
			addrs[1] = p.Addr()
			// Short detection budget: the lost replica must cost seconds,
			// not the default five-second timeout per retry.
			cfg.StoreAddr = strings.Join(addrs, ",") + ";replicas=2;io_timeout=300ms;retries=2"
		case st.ChaosCrashBytes > 0:
			raw := addrs[1]
			p, err := faultinject.New(raw)
			if err != nil {
				return nil, fmt.Errorf("scenario: start chaos proxy: %w", err)
			}
			defer p.Close()
			p.TriggerAfterBytes(st.ChaosCrashBytes, func() { slots[1].crashRestart(raw, optsByNode[1]...) })
			addrs[1] = p.Addr()
			cfg.StoreAddr = strings.Join(addrs, ",") + ";replicas=2;io_timeout=500ms;retries=8"
		}
	default:
		cfg.StoreAddr = ""
	}
	p, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return p.RunContext(ctx)
}

// Run executes one scenario: the configured study, then every
// assertion against its result.
func Run(ctx context.Context, sc *Scenario) *Result {
	start := time.Now()
	out := &Result{Scenario: sc}
	defer func() { out.Elapsed = time.Since(start) }()

	res, err := execute(ctx, sc.Config, sc.Store)
	if err != nil {
		out.Err = err
		return out
	}
	env := &runEnv{sc: sc, cfg: sc.Config, res: res}
	var (
		other    *core.Result
		otherErr error
		reran    bool
	)
	env.rerun = func() (*core.Result, error) {
		// Memoized: several parity assertions share one opposite-mode run.
		// The parity reference for any store-backed mode (including a
		// chaos-degraded cluster) is the pure in-memory study; a memory
		// scenario checks against the single-store path.
		if !reran {
			opposite := StoreMemory
			if sc.Store.Mode == StoreMemory {
				opposite = StoreTripled
			}
			other, otherErr = execute(ctx, sc.Config, StoreSettings{Mode: opposite})
			reran = true
		}
		return other, otherErr
	}
	for _, a := range sc.Assertions {
		if err := ctx.Err(); err != nil {
			out.Err = err
			return out
		}
		out.Checks = append(out.Checks, a.run(env))
	}
	return out
}

// RunAll executes scenarios in parallel over the shared worker pool,
// returning results index-aligned with the input. Cancellation marks
// every unstarted scenario's result with the context error rather than
// dropping it, so a suite interrupted mid-run still reports one record
// per scenario.
func RunAll(ctx context.Context, scs []*Scenario, workers int) []*Result {
	out := make([]*Result, len(scs))
	// Run never returns an error, so Each only stops early on ctx.
	_ = pool.Each(ctx, workers, len(scs), func(ctx context.Context, i int) error {
		out[i] = Run(ctx, scs[i])
		return nil
	})
	for i, r := range out {
		if r == nil {
			err := ctx.Err()
			if err == nil {
				err = errors.New("scenario: not run")
			}
			out[i] = &Result{Scenario: scs[i], Err: err}
		}
	}
	return out
}
