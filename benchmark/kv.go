package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/assoc"
	"repro/internal/honeyfarm"
	"repro/internal/radiation"
	"repro/internal/tripled"
	"repro/internal/tripled/cluster"
	"repro/internal/tripled/wal"
)

// The op mix, in operations per 50: 60 % per-cell Put, 30 % Get, 8 %
// prefix page (FetchAssoc, 512 rows a page), 2 % TopRowsByDegree(10).
// Every client's script holds exactly these shares, shuffled by the
// seed, so op counts do not depend on the seed.
const (
	kvPut = iota
	kvGet
	kvScan
	kvTopDeg
	kvKindCount
)

var (
	kvKinds = [kvKindCount]string{"put", "get", "scan", "topdeg"}
	kvPer50 = [kvKindCount]int{kvPut: 30, kvGet: 15, kvScan: 4, kvTopDeg: 1}
)

const (
	kvTopK   = 10
	kvNodes  = 3 // R=2 of 3
	kvPolicy = wal.SyncAlways
	kvCol    = "v"
)

type kvOp struct {
	kind int
	row  string      // put, get: the cell's row; scan: the prefix
	val  assoc.Value // put: the value written; get: the value that must come back
	n    int         // scan: cells under the prefix
}

// kvInput is the seeded input: the preloaded month table and every
// client's fixed script with the state it must leave behind.
type kvInput struct {
	month   *honeyfarm.MonthWindow
	scripts [][]kvOp
	last    map[string]assoc.Value // row → value of its last scripted Put
	puts    int                    // scripted Puts, all clients
	user    int                    // user bytes written: preload plus scripted Puts
}

func (r *run) kvInput(clients int) (*kvInput, error) {
	cfg := r.seeded(r.scale.table())
	pop, err := radiation.NewPopulation(cfg.Radiation)
	if err != nil {
		return nil, err
	}
	label := cfg.StudyStart.Format("2006-01")
	farm := honeyfarm.New(cfg.Sensors, cfg.Radiation.Seed+1)
	in := &kvInput{
		month: farm.IngestMonth(label, cfg.StudyStart, pop.HoneyfarmMonth(0, cfg.StudyStart)),
		last:  make(map[string]assoc.Value),
	}
	// Scan targets: the month's rows grouped by first octet.
	prefix := honeyfarm.MonthRowPrefix(label)
	cells := make(map[string]int)
	in.month.Table.Iterate(func(row, col string, v assoc.Value) bool {
		in.user += len(prefix) + len(row) + len(col) + len(v.String())
		cells[prefix+row[:strings.IndexByte(row, '.')+1]]++
		return true
	})
	var prefixes []string
	for p := range cells {
		prefixes = append(prefixes, p)
	}
	// Map order is random; the script must depend on the seed alone.
	sort.Strings(prefixes)

	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(r.seed*1000 + int64(c)))
		kinds := make([]int, 0, r.scale.kvOps)
		for len(kinds) < r.scale.kvOps {
			for kind, n := range kvPer50 {
				for i := 0; i < n && len(kinds) < r.scale.kvOps; i++ {
					kinds = append(kinds, kind)
				}
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for i, k := range kinds { // a Get needs an earlier Put: lead with one
			if k == kvPut {
				kinds[0], kinds[i] = kinds[i], kinds[0]
				break
			}
		}
		var script []kvOp
		var written []string
		for i, kind := range kinds {
			op := kvOp{kind: kind}
			switch kind {
			case kvPut:
				op.row = fmt.Sprintf("kv/%d/%05d", c, rng.Intn(r.scale.kvRows))
				op.val = assoc.Num(float64(i))
				if _, seen := in.last[op.row]; !seen {
					written = append(written, op.row)
				}
				in.last[op.row] = op.val
				in.puts++
				in.user += len(op.row) + len(kvCol) + len(op.val.String())
			case kvGet:
				op.row = written[rng.Intn(len(written))]
				op.val = in.last[op.row]
			case kvScan:
				op.row = prefixes[rng.Intn(len(prefixes))]
				op.n = cells[op.row]
			}
			script = append(script, op)
		}
		in.scripts = append(in.scripts, script)
	}
	return in, nil
}

// kvCluster is a set of in-process tripled servers on loopback, each
// durable in a directory of its own.
type kvCluster struct {
	dirs    []string
	addrs   []string
	servers []*tripled.Server
}

// openCluster starts one server per directory ("" = in memory). With
// addrs set it reopens on the same addresses: the ring is a function
// of the address list, so a restarted cluster must keep them.
func openCluster(dirs, addrs []string) (*kvCluster, error) {
	c := &kvCluster{dirs: dirs}
	for i, dir := range dirs {
		addr := "127.0.0.1:0"
		if addrs != nil {
			addr = addrs[i]
		}
		var opts []tripled.Option
		if dir != "" {
			opts = []tripled.Option{tripled.WithDataDir(dir), tripled.WithWALSyncPolicy(kvPolicy)}
		}
		srv, err := tripled.Serve(tripled.NewStore(), addr, opts...)
		if err != nil {
			c.close()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		c.addrs = append(c.addrs, srv.Addr())
	}
	return c, nil
}

func (c *kvCluster) close() error {
	var first error
	for _, s := range c.servers {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	c.servers = nil
	return first
}

// dial opens a client: the replicated ring client for several nodes,
// the plain single-connection client for one.
func (c *kvCluster) dial() (tripled.Conn, error) {
	if len(c.addrs) == 1 {
		return tripled.Dial(c.addrs[0])
	}
	return cluster.Dial(strings.Join(c.addrs, ",") + ";replicas=2")
}

// freshDirs makes n new data directories under the run's scratch dir.
func (r *run) freshDirs(n int) ([]string, error) {
	base, err := os.MkdirTemp(r.dir, "cluster-")
	if err != nil {
		return nil, err
	}
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("node%d", i))
	}
	return dirs, nil
}

// kvRep is what one repetition of the script measured.
type kvRep struct {
	wall float64
	lat  [kvKindCount][]float64 // seconds per op, by kind
}

// tripledKV is the third north-star number: client Put → fsynced,
// replicated ack, beside reads and scans on the same servers.
func (r *run) tripledKV() error {
	clients := r.gomaxprocs
	r.clients = clients
	in, err := r.kvInput(clients)
	if err != nil {
		return err
	}

	var walls, putP50 []float64    // per repetition
	var lat [kvKindCount][]float64 // pooled over repetitions
	rep := func(tr *tracer) error {
		var cl *kvCluster
		err := r.timeSetup(func() (err error) {
			dirs, err := r.freshDirs(kvNodes)
			if err != nil {
				return err
			}
			if cl, err = openCluster(dirs, nil); err != nil {
				return err
			}
			conn, err := cl.dial()
			if err != nil {
				return err
			}
			defer conn.Close()
			return in.month.Publish(conn)
		})
		if cl != nil {
			defer os.RemoveAll(filepath.Dir(cl.dirs[0]))
			defer cl.close()
		}
		if err != nil {
			return err
		}
		out, err := r.kvScript(cl, in, tr)
		if err != nil {
			return err
		}
		if tr == nil && !r.warming {
			walls = append(walls, out.wall)
			putP50 = append(putP50, median(out.lat[kvPut]))
			for k := range lat {
				lat[k] = append(lat[k], out.lat[k]...)
			}
		}
		// Durability gate: every acked Put reads back with its last
		// value, now and after each node restarts from its data dir.
		if err := r.kvVerify(cl, in, "before restart"); err != nil {
			return err
		}
		if err := cl.close(); err != nil {
			return err
		}
		if tr != nil {
			if err := r.walMetrics(cl.dirs, in.user); err != nil {
				return err
			}
		}
		reopened, err := openCluster(cl.dirs, cl.addrs)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		defer reopened.close()
		if tr != nil {
			var wall time.Duration
			var ops int
			for _, s := range reopened.servers {
				rec := s.Recovery()
				wall += rec.Wall
				ops += rec.TailOps + rec.SnapshotCells
			}
			r.set("tripled.recovery_s", wall.Seconds(), kvNodes)
			r.set("tripled.recovered_ops", float64(ops), kvNodes)
		}
		return r.kvVerify(reopened, in, "after restart")
	}
	if err := r.repeat(func(int) error { return rep(nil) }); err != nil {
		return err
	}
	ops := float64(clients * r.scale.kvOps)
	r.setMedian("wall_s", 1, walls)
	r.setMedian("latency_ms", 1e3, putP50)
	r.set("put_ack_p50_ms", 1e3*median(putP50), len(putP50))
	r.set("kv_ops_per_s", ops/median(walls), len(walls))
	r.set("tripled.put_p99_ms", 1e3*percentile(lat[kvPut], 0.99), len(lat[kvPut]))
	r.set("tripled.get_p50_ms", 1e3*median(lat[kvGet]), len(lat[kvGet]))
	r.set("tripled.get_p99_ms", 1e3*percentile(lat[kvGet], 0.99), len(lat[kvGet]))
	r.set("tripled.scan_p50_ms", 1e3*median(lat[kvScan]), len(lat[kvScan]))
	r.set("tripled.topdeg_p50_ms", 1e3*median(lat[kvTopDeg]), len(lat[kvTopDeg]))
	if r.tr == nil {
		return nil
	}

	r.tr.sumChildren("client")
	if err := rep(r.tr); err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	r.set("trace.overhead_share", r.tr.total("script")/median(walls)-1, 1)
	return r.kvProbes(in)
}

// walMetrics sizes the closed nodes' data directories against the user
// bytes written once; with R=2 every byte is logged twice.
func (r *run) walMetrics(dirs []string, user int) error {
	var bytes int64
	var segments int
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if info, err := e.Info(); err == nil {
				bytes += info.Size()
			}
			if strings.HasSuffix(e.Name(), ".wal") {
				segments++
			}
		}
	}
	r.set("wal.bytes_per_user_byte", float64(bytes)/float64(user), 1)
	r.set("wal.segments", float64(segments), len(dirs))
	return nil
}

// kvScript runs every client's script to completion, all clients
// starting together, each a closed loop on a connection of its own.
func (r *run) kvScript(cl *kvCluster, in *kvInput, tr *tracer) (kvRep, error) {
	var out kvRep
	conns := make([]tripled.Conn, len(in.scripts))
	for c := range conns {
		conn, err := cl.dial()
		if err != nil {
			return out, err
		}
		defer conn.Close()
		conns[c] = conn
	}
	reps := make([]kvRep, len(conns))
	errs := make([]error, len(conns))
	fails := make([][]error, len(conns))
	root := tr.begin(-1, "script")
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := tr.begin(root, "client")
			defer tr.end(client)
			for _, op := range in.scripts[c] {
				span := tr.begin(client, "tripled."+kvKinds[op.kind])
				s0 := time.Now()
				bad, err := doKV(conns[c], op)
				reps[c].lat[op.kind] = append(reps[c].lat[op.kind], since(s0))
				tr.end(span)
				if err != nil {
					errs[c] = fmt.Errorf("client %d %s %s: %w", c, kvKinds[op.kind], op.row, err)
					return
				}
				if bad != nil {
					fails[c] = append(fails[c], fmt.Errorf("client %d: %w", c, bad))
				}
			}
		}()
	}
	wg.Wait()
	out.wall = since(t0)
	tr.end(root)
	for c := range conns {
		if errs[c] != nil {
			return out, errs[c]
		}
		r.ops(len(in.scripts[c]))
		for _, f := range fails[c] {
			r.failIf(f)
		}
		for k := range out.lat {
			out.lat[k] = append(out.lat[k], reps[c].lat[k]...)
		}
	}
	return out, nil
}

// doKV performs one scripted op. bad reports a wrong answer, err a
// failed call.
func doKV(conn tripled.Conn, op kvOp) (bad, err error) {
	switch op.kind {
	case kvPut:
		return nil, conn.Put(op.row, kvCol, op.val)
	case kvGet:
		v, err := conn.Get(op.row, kvCol)
		if err == nil && v != op.val {
			bad = fmt.Errorf("get %s = %v, last Put wrote %v", op.row, v, op.val)
		}
		return bad, err
	case kvScan:
		a, err := conn.FetchAssoc(op.row, 512)
		if err == nil && a.NNZ() != op.n {
			bad = fmt.Errorf("scan %s returned %d cells, preload put %d there", op.row, a.NNZ(), op.n)
		}
		return bad, err
	default:
		top, err := conn.TopRowsByDegree(kvTopK)
		if err == nil && len(top) != kvTopK {
			bad = fmt.Errorf("topdeg returned %d rows, want %d", len(top), kvTopK)
		}
		return bad, err
	}
}

// kvVerify reads every scripted row back and holds it against the last
// value an acked Put gave it.
func (r *run) kvVerify(cl *kvCluster, in *kvInput, when string) error {
	conn, err := cl.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	r.ops(in.puts) // every acked Put is checked through its row's last value
	for row, want := range in.last {
		got, err := conn.Get(row, kvCol)
		if err != nil {
			r.failIf(fmt.Errorf("%s: get %s: %w", when, row, err))
		} else if got != want {
			r.failIf(fmt.Errorf("%s: %s = %v, acked Put wrote %v", when, row, got, want))
		}
	}
	return nil
}

// kvProbes measures the layers under a Put alone, with direct calls:
// the store without a network, the WAL without a store, and one client
// putting to one memory node, one durable node, and the durable
// replicated cluster.
func (r *run) kvProbes(in *kvInput) error {
	n := r.scale.probeOps
	val := assoc.Num(1)

	store := tripled.NewStore()
	if err := store.LoadAssoc(in.month.Table); err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < 100*n; i++ {
		if err := store.Put(fmt.Sprintf("probe/%05d", i%1024), kvCol, val); err != nil {
			return err
		}
	}
	r.set("store.put_ns", 1e9*since(t0)/float64(100*n), 100*n)
	t0 = time.Now()
	for i := 0; i < n/10+1; i++ {
		store.TopRowsByDegree(kvTopK)
	}
	r.set("store.topdeg_ms", 1e3*since(t0)/float64(n/10+1), n/10+1)

	dirs, err := r.freshDirs(1)
	if err != nil {
		return err
	}
	log, err := wal.Open(dirs[0], wal.Options{SyncPolicy: kvPolicy})
	if err != nil {
		return err
	}
	payload := []byte(strings.Repeat("x", 64))
	var appends []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := log.Append(payload); err != nil {
			log.Close()
			return err
		}
		appends = append(appends, since(t0))
	}
	if err := log.Close(); err != nil {
		return err
	}
	r.set("wal.append_sync_p50_ms", 1e3*median(appends), n)

	putP50 := func(durable bool, nodes int) (float64, error) {
		dirs := make([]string, nodes)
		if durable {
			if dirs, err = r.freshDirs(nodes); err != nil {
				return 0, err
			}
		}
		cl, err := openCluster(dirs, nil)
		if err != nil {
			return 0, err
		}
		defer cl.close()
		conn, err := cl.dial()
		if err != nil {
			return 0, err
		}
		defer conn.Close()
		var puts []float64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := conn.Put(fmt.Sprintf("probe/%05d", i), kvCol, val); err != nil {
				return 0, err
			}
			puts = append(puts, since(t0))
		}
		return median(puts), nil
	}
	memory, err := putP50(false, 1)
	if err != nil {
		return err
	}
	durable, err := putP50(true, 1)
	if err != nil {
		return err
	}
	replicated, err := putP50(true, kvNodes)
	if err != nil {
		return err
	}
	r.set("wal.overhead_x", durable/memory, n)
	r.set("cluster.replication_overhead_x", replicated/durable, n)
	return nil
}
