package core

// cluster_store_test.go proves the replicated store path is a no-op
// for the science even under failure: a study routed through a 3-node
// R=2 cluster with one replica silently blackholed mid-run must
// produce every Table I-II / Fig 3-8 artifact byte-identical to the
// in-memory study, while the Result records that the run was degraded.

import (
	"slices"
	"testing"
	"time"

	"repro/internal/faultinject"
)

func TestClusterStudyBlackholedReplicaMatchesInMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick studies")
	}
	mem := quickResult(t)

	// Three nodes, each behind a chaos proxy; node 1 silently stops
	// answering once 50 KB of table traffic have flowed — early in the
	// study, so most of it runs degraded. The cut point is byte-counted
	// rather than timed, so where the study is interrupted is stable.
	f, err := faultinject.NewFleet(faultinject.FleetConfig{Nodes: 3, Proxied: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Proxy(1).BlackholeAfterBytes(50_000)

	cfg := QuickConfig()
	cfg.StoreAddr = f.Spec(2) + ";io_timeout=300ms;retries=2"
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := p.Run()
	if err != nil {
		t.Fatalf("cluster study with blackholed replica: %v", err)
	}
	t.Logf("degraded cluster study took %v", time.Since(start))

	// The degradation must be recorded, not hidden.
	if !res.StoreHealth.Degraded {
		t.Error("study rode out a blackholed replica but StoreHealth.Degraded is false")
	}
	if down := f.Addrs()[1]; !slices.Contains(res.StoreHealth.DownNodes, down) {
		t.Errorf("StoreHealth.DownNodes = %v, want it to include %s", res.StoreHealth.DownNodes, down)
	}

	// And the science must not have noticed: every artifact byte-equal.
	sameRender(t, "degraded cluster vs in-memory", renderAll(t, res), renderAll(t, mem))

	// The in-memory baseline ran clean.
	if mem.StoreHealth.Degraded || len(mem.StoreHealth.DownNodes) != 0 {
		t.Errorf("in-memory study reports store health %+v", mem.StoreHealth)
	}
}

// TestClusterStudyCleanMatchesInMemory is the no-fault control: the
// multi-address StoreAddr spec alone must not perturb artifacts.
func TestClusterStudyCleanMatchesInMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("two full quick studies")
	}
	mem := quickResult(t)

	f, err := faultinject.NewFleet(faultinject.FleetConfig{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cfg := QuickConfig()
	cfg.StoreAddr = f.Spec(2)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.StoreHealth.Degraded {
		t.Errorf("clean cluster run reports degraded: %+v", res.StoreHealth)
	}
	sameRender(t, "clean cluster vs in-memory", renderAll(t, res), renderAll(t, mem))
}
