// Command tripled-load is the load generator for the tripled D4M
// service: M concurrent clients drive a mixed PUT/GET/TOPDEG workload
// against one server, an N-node replicated cluster, or a remote target,
// and report per-op-kind throughput and latency percentiles — the
// harness for sizing the store's stripe count, the client's
// batch/pipelining parameters, and the cluster's failover behavior
// against the ROADMAP's heavy-traffic goal.
//
// Usage:
//
//	tripled-load [-addr HOST:PORT|CLUSTER-SPEC] [-nodes N] [-replicas R]
//	             [-chaos MODE] [-clients M] [-ops N] [-batch B]
//	             [-rows N] [-mix PUT,GET,TOPDEG] [-stripes N] [-seed N]
//	             [-data-dir DIR] [-wal-sync always|interval]
//
// With -nodes > 1 the tool serves N in-process tripled servers and
// drives them through the consistent-hash cluster client at -replicas
// copies per row. -chaos puts every node behind a fault-injection
// proxy and flips node 1 into MODE (blackhole, delay, slow-read, reset,
// drop) at the exact halfway point of every client's script, so the
// tail of the run measures detection + failover, deterministically
// placed. -addr accepts a cluster spec ("a,b,c;replicas=2") as well as
// a single address.
//
// With -data-dir the in-process servers are durable: each appends its
// mutations to a checksummed WAL under DIR/node-N before acking, and a
// rerun with the same dir replays the log at startup. -chaos crash
// (requires -data-dir) stops one node at the halfway barrier and
// restarts it on the same address from its WAL, reporting the restart
// wall time; a single durable node is driven through a 1-node cluster
// spec so client retries absorb the restart window. The stop is a
// clean close (handlers drain, the WAL is flushed), so this measures
// restart-from-log, not a torn tail: the SIGKILL path is the cluster
// package's TestClusterKill9RestartWALRepairRejoins. A bad size or
// flag combination exits 2 with a usage line.
//
// With -batch > 1 the PUT share of the workload flows through the
// pipelined BATCH path (B cells per request); -batch 1 is the classic
// one-round-trip-per-cell mode the batched protocol replaced.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/tripled"
	"repro/internal/tripled/cluster"
	"repro/internal/tripled/loadgen"
)

func main() {
	var (
		addr     = flag.String("addr", "", "tripled server address or cluster spec (default: serve in-process)")
		nodes    = flag.Int("nodes", 1, "in-process servers to start (ignored with -addr)")
		replicas = flag.Int("replicas", cluster.DefaultReplicas, "copies per row when -nodes > 1")
		chaos    = flag.String("chaos", "", "fault injected at half-run: blackhole, delay, slow-read, reset, drop (node 1), or crash (needs -data-dir)")
		clients  = flag.Int("clients", 8, "concurrent client connections")
		ops      = flag.Int("ops", 5000, "operations per client")
		batch    = flag.Int("batch", 256, "cells per PUT batch (1 = per-cell round trips)")
		rows     = flag.Int("rows", 100000, "row keyspace size")
		mixFlag  = flag.String("mix", "70,25,5", "PUT,GET,TOPDEG weights")
		stripes  = flag.Int("stripes", tripled.DefaultStripes, "store stripes for in-process servers")
		topk     = flag.Int("topk", 10, "k of each TOPDEG query")
		seed     = flag.Int64("seed", 1, "workload seed")
		dataDir  = flag.String("data-dir", "", "make in-process servers durable: per-node WAL dirs under this path")
		walSync  = flag.String("wal-sync", "interval", "WAL sync policy with -data-dir: always or interval")
	)
	flag.Parse()
	for refusal, bad := range map[string]bool{"-nodes must be >= 1": *nodes < 1, "-clients must be >= 1": *clients < 1, "-batch must be >= 0": *batch < 0} {
		if bad {
			usage("%s", refusal)
		}
	}
	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		usage("%v", err)
	}
	crash := *chaos == "crash"
	var mode faultinject.Mode
	switch {
	case *chaos == "":
	case crash && *dataDir == "":
		usage("-chaos crash needs -data-dir (recovery replays the WAL)")
	case *addr != "":
		usage("-chaos needs in-process nodes (drop -addr)")
	case crash:
	case *nodes < 2:
		usage("-chaos needs -nodes >= 2 (a 1-node cluster cannot fail over)")
	default:
		if mode, err = faultinject.ParseMode(*chaos); err != nil {
			usage("%v", err)
		}
	}

	target := *addr
	var fleet *faultinject.Fleet
	if target == "" {
		fc := faultinject.FleetConfig{Nodes: *nodes, Stripes: *stripes, WALRoot: *dataDir, Proxied: *chaos != "" && !crash}
		fc.Options = []tripled.Option{tripled.WithWALSyncPolicy(*walSync)}
		if fleet, err = faultinject.NewFleet(fc); err != nil {
			log.Fatal(err)
		}
		defer fleet.Close()
		for i := range *nodes {
			if rec := fleet.Server(i).Recovery(); rec.Enabled && (rec.HadSnapshot || rec.TailRecords > 0) {
				fmt.Printf("node %d: recovered %d snapshot cells + %d tail records in %v\n",
					i, rec.SnapshotCells, rec.TailRecords, rec.Wall.Round(time.Millisecond))
			}
		}
		fmt.Printf("in-process: %d node(s) on %v, %d replicas/row, %d stripes each\n",
			*nodes, fleet.Addrs(), min(*replicas, *nodes), *stripes)
		target = fleet.Spec(*replicas)
		if *nodes == 1 && !crash {
			target = fleet.Addrs()[0]
		}
		if *chaos != "" {
			// Bound detection cost so the post-fault tail measures failover
			// or rejoin, not five-second default timeouts; a lone node has
			// no peer to fail over to, so retries absorb its restart window.
			target += ";io_timeout=500ms;retries=8"
		}
	}

	// Track cluster clients so the post-run report can sum failovers.
	var mu sync.Mutex
	var cclients []*cluster.Client
	cfg := loadgen.Config{
		Clients: *clients,
		Ops:     *ops,
		Batch:   *batch,
		Rows:    *rows,
		Mix:     mix,
		TopK:    *topk,
		Seed:    *seed,
		Dial: func(int) (tripled.Conn, error) {
			if !cluster.IsClusterSpec(target) {
				return tripled.Dial(target)
			}
			c, err := cluster.Dial(target)
			if err == nil {
				mu.Lock()
				cclients = append(cclients, c)
				mu.Unlock()
			}
			return c, err
		},
	}
	switch {
	case crash:
		// Restart one node from its WAL at the halfway barrier: the tail
		// of the run measures recovery and rejoin.
		i := min(1, *nodes-1)
		cfg.Mid = func() {
			fmt.Printf("half-run: stopping node %d (in-memory state discarded)\n", i)
			start := time.Now()
			if err := fleet.Restart(i); err != nil {
				log.Fatalf("tripled-load: restart: %v", err)
			}
			rec := fleet.Server(i).Recovery()
			fmt.Printf("crash: node %d restarted in %v (%d snapshot cells, %d tail records, %d ops replayed, %d torn bytes)\n",
				i, time.Since(start).Round(time.Millisecond),
				rec.SnapshotCells, rec.TailRecords, rec.TailOps, rec.TornBytes)
		}
	case *chaos != "":
		cfg.Mid = func() {
			fmt.Printf("half-run: injecting %v on node 1\n", mode)
			fleet.Proxy(1).SetMode(mode)
		}
	}

	st, err := loadgen.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%d clients x %d ops in %v\n\n", *clients, *ops, st.Elapsed.Round(time.Millisecond))
	fmt.Printf("%-8s %10s %12s %10s %10s %10s\n", "op", "requests", "cells/sec", "p50", "p95", "p99")
	grand := 0.0
	for _, kind := range loadgen.OpKinds {
		if len(st.Lat[kind]) == 0 {
			continue
		}
		grand += st.PerSec(kind)
		fmt.Printf("%-8s %10d %12.0f %10v %10v %10v\n",
			kind, len(st.Lat[kind]), st.PerSec(kind),
			st.Percentile(kind, 0.50).Round(time.Microsecond),
			st.Percentile(kind, 0.95).Round(time.Microsecond),
			st.Percentile(kind, 0.99).Round(time.Microsecond))
	}
	fmt.Printf("\noverall: %.0f cells+queries/sec\n", grand)
	if len(cclients) > 0 {
		failovers, down := 0, map[string]bool{}
		for _, c := range cclients {
			h := c.Health()
			failovers += h.Failovers
			for _, a := range h.Down {
				down[a] = true
			}
		}
		fmt.Printf("cluster: %d read failovers, %d nodes marked down\n", failovers, len(down))
	}
}

// usage refuses a bad command line: one line on stderr, exit 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tripled-load: "+format+"\n", args...)
	os.Exit(2)
}
