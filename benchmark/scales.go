package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// scale fixes the input sizes of a run. The two study shapes are named
// so later issues can cite them: scale_window is capture-dominated like
// the paper's 2^30-packet windows, scale_table is table- and
// store-dominated. Worker knobs stay at their zero value in both — what
// cmd/experiments, cmd/figures and cmd/studyd run by default.
type scale struct {
	name   string
	window func() core.Config // scale_window
	table  func() core.Config // scale_table

	pcapWindows int // back-to-back windows in the pcap file
	kvOps       int // scripted operations per tripled_kv client
	kvRows      int // Put keyspace per client
	probeOps    int // samples behind each direct-call layer probe

	warmup  bool // one discarded repetition goes first
	minReps int
	maxReps int // 0 = until the time budget is spent
	setups  int // how many times a shared set-up is built and timed
}

func studyConfig(nvLog2, leafLog2, sources, zmLog2 int, brightLog2 float64) core.Config {
	c := core.DefaultConfig()
	c.NV = 1 << nvLog2
	c.LeafSize = 1 << leafLog2
	c.Radiation.NumSources = sources
	c.Radiation.ZM = stats.PaperZM(float64(int(1) << zmLog2))
	c.Radiation.BrightLog2 = brightLog2
	return c
}

// smokeConfig is core.QuickConfig cut to six months and two snapshots:
// the model fits, whose cost does not shrink with NV, run over fewer
// (snapshot, band) pairs, which is what keeps the tier-1 test short.
func smokeConfig() core.Config {
	c := core.QuickConfig()
	c.Radiation.Months = 6
	c.SnapshotTimes = c.SnapshotTimes[:2]
	return c
}

var scales = []scale{
	{
		name:        "full",
		window:      func() core.Config { return studyConfig(18, 14, 100000, 16, 9) },
		table:       func() core.Config { return studyConfig(16, 12, 40000, 14, 8) },
		pcapWindows: 8,
		kvOps:       1500,
		kvRows:      512,
		probeOps:    200,
		warmup:      true,
		minReps:     2,
		setups:      3,
	},
	{
		// Tier-1 test only: one repetition of everything, seconds in all.
		name:        "smoke",
		window:      smokeConfig,
		table:       smokeConfig,
		pcapWindows: 3,
		kvOps:       60,
		kvRows:      16,
		probeOps:    10,
		minReps:     1,
		maxReps:     1,
		setups:      1,
	},
}

func scaleByName(name string) (scale, error) {
	for _, s := range scales {
		if s.name == name {
			return s, nil
		}
	}
	return scale{}, fmt.Errorf("unknown scale %q (want full or smoke)", name)
}

// seeded returns cfg with the run's seed: the only place the seed
// enters the program under test.
func (r *run) seeded(cfg core.Config) core.Config {
	cfg.Radiation.Seed = r.seed
	return cfg
}
