package scenario

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/pool"
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

// execute runs one configuration through the full pipeline, optionally
// routed through a faultinject.Fleet of one tripled store or a 3-node
// R=2 cluster, durable under a run-scoped temp dir with st.WAL. The
// chaos keys place a byte-counted, so deterministic, mid-study fault.
func execute(ctx context.Context, cfg core.Config, st StoreSettings) (*core.Result, error) {
	cfg.StoreAddr = ""
	if st.Mode != StoreMemory {
		fc := faultinject.FleetConfig{Nodes: 1, Proxied: st.ChaosBlackholeBytes > 0 || st.ChaosCrashBytes > 0}
		replicas, faulty := 1, 0
		if st.Mode == StoreCluster {
			fc.Nodes, replicas, faulty = 3, 2, 1
		}
		if st.WAL {
			dir, err := os.MkdirTemp("", "scenario-wal-")
			if err != nil {
				return nil, fmt.Errorf("scenario: wal dir: %w", err)
			}
			defer os.RemoveAll(dir)
			fc.WALRoot = dir
		}
		f, err := faultinject.NewFleet(fc)
		if err != nil {
			return nil, fmt.Errorf("scenario: start store: %w", err)
		}
		defer f.Close()
		cfg.StoreAddr = f.Spec(replicas)
		switch {
		case st.ChaosBlackholeBytes > 0:
			f.Proxy(faulty).BlackholeAfterBytes(st.ChaosBlackholeBytes)
			// Short detection budget: the lost replica must cost seconds,
			// not the default five-second timeout per retry.
			cfg.StoreAddr += ";io_timeout=300ms;retries=2"
		case st.ChaosCrashBytes > 0:
			// Client retries absorb the restart window, even where a lone
			// store has no replica to fail over to; a failed restart leaves
			// the node down, and the study then fails on the store loss.
			f.Proxy(faulty).TriggerAfterBytes(st.ChaosCrashBytes, func() { f.Restart(faulty) })
			cfg.StoreAddr += ";io_timeout=500ms;retries=8"
		case st.Mode == StoreTripled:
			cfg.StoreAddr = f.Addrs()[0]
		}
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
