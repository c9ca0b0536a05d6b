package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/assoc"
	"repro/internal/tripled"
)

// Defaults for the cluster transport. Unlike the plain client, the
// cluster client always arms an I/O deadline: failover only works if a
// blackholed replica turns into a timeout instead of a hang.
const (
	DefaultReplicas  = 2
	DefaultIOTimeout = 5 * time.Second
)

// Config describes a cluster membership and the transport policy used
// against it.
type Config struct {
	Addrs    []string // member addresses; order is part of the ring identity
	Replicas int      // copies of every cell (clamped to len(Addrs)); default 2
	VNodes   int      // virtual nodes per member; default DefaultVNodes

	DialTimeout time.Duration // per-connect bound; default tripled.DefaultDialTimeout
	IOTimeout   time.Duration // per-read/write deadline; default DefaultIOTimeout
	Retry       tripled.Retry // per-node retry/backoff policy; zero value = tripled's default
}

func (c Config) withDefaults() (Config, error) {
	if len(c.Addrs) == 0 {
		return c, fmt.Errorf("cluster: no member addresses")
	}
	if c.Replicas < 1 {
		c.Replicas = DefaultReplicas
	}
	if c.Replicas > len(c.Addrs) {
		c.Replicas = len(c.Addrs)
	}
	if c.VNodes < 1 {
		c.VNodes = DefaultVNodes
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = DefaultIOTimeout
	}
	return c, nil
}

// parseSpec parses the textual cluster spec accepted wherever a single
// store address used to go:
//
//	"host:p1,host:p2,host:p3[;replicas=N][;vnodes=N]
//	 [;io_timeout=D][;dial_timeout=D][;retries=N]"
//
// Durations use Go syntax ("500ms"). Whitespace around addresses and
// options is ignored. The timeout options exist so one StoreAddr
// string fully describes the transport — scenario suites and the
// daemon tune failover latency without new plumbing.
func parseSpec(spec string) (Config, error) {
	parts := strings.Split(spec, ";")
	var cfg Config
	for _, a := range strings.Split(parts[0], ",") {
		if a = strings.TrimSpace(a); a != "" {
			cfg.Addrs = append(cfg.Addrs, a)
		}
	}
	if len(cfg.Addrs) == 0 {
		return cfg, fmt.Errorf("cluster: spec %q names no addresses", spec)
	}
	for _, opt := range parts[1:] {
		opt = strings.TrimSpace(opt)
		if opt == "" {
			continue
		}
		kv := strings.SplitN(opt, "=", 2)
		if len(kv) != 2 {
			return cfg, fmt.Errorf("cluster: malformed option %q in spec %q", opt, spec)
		}
		key, val := strings.TrimSpace(kv[0]), strings.TrimSpace(kv[1])
		switch key {
		case "replicas", "vnodes", "retries":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return cfg, fmt.Errorf("cluster: option %q needs a positive integer", opt)
			}
			switch key {
			case "replicas":
				cfg.Replicas = n
			case "vnodes":
				cfg.VNodes = n
			case "retries":
				cfg.Retry.Attempts = n
			}
		case "io_timeout", "dial_timeout":
			d, err := time.ParseDuration(val)
			if err != nil || d <= 0 {
				return cfg, fmt.Errorf("cluster: option %q needs a positive duration", opt)
			}
			if key == "io_timeout" {
				cfg.IOTimeout = d
			} else {
				cfg.DialTimeout = d
			}
		default:
			return cfg, fmt.Errorf("cluster: unknown option %q in spec %q", kv[0], spec)
		}
	}
	return cfg, nil
}

// IsClusterSpec reports whether a store address names a cluster (any
// comma or option separator) rather than a single server.
func IsClusterSpec(spec string) bool { return strings.ContainsAny(spec, ",;") }

// node is the client's view of one member: its lazily dialed
// connection and its fail-stop health bit.
type node struct {
	addr string
	c    *tripled.Client
	down bool
	err  error // the failure that took it down
}

// Client is a replicated tripled client over a consistent-hash ring.
// It implements tripled.Conn, so every caller programmed against the
// single-server client — the study pipeline, the daemon, the load
// tools — works against a cluster unchanged.
//
// Like *tripled.Client, a Client is not safe for concurrent use: open
// one per goroutine. Health state is per-client by design — a node is
// "down" from the point of view of the client that watched it fail.
type Client struct {
	cfg       Config
	ring      *ring
	nodes     []*node
	rng       *rand.Rand
	failovers int
	repairs   int
}

var _ tripled.Conn = (*Client)(nil)

// newClient builds a cluster client over the membership. Connections are
// dialed lazily, so newClient succeeds even if members are down — they are
// discovered down on first use.
func newClient(cfg Config) (*Client, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	nodes := make([]*node, len(cfg.Addrs))
	for i, addr := range cfg.Addrs {
		nodes[i] = &node{addr: addr}
	}
	return &Client{
		cfg:   cfg,
		ring:  buildRing(cfg.Addrs, cfg.VNodes),
		nodes: nodes,
		rng:   rand.New(rand.NewSource(time.Now().UnixNano())),
	}, nil
}

// Dial parses a cluster spec and builds a client over it.
func Dial(spec string) (*Client, error) {
	cfg, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	return newClient(cfg)
}

// Close closes every live connection. The client is unusable after.
func (c *Client) Close() error {
	var first error
	for _, n := range c.nodes {
		if n.c != nil {
			if err := n.c.Close(); err != nil && first == nil {
				first = err
			}
			n.c = nil
		}
	}
	return first
}

// Health is the client's fail-stop view of the membership.
type Health struct {
	Nodes     int      // membership size
	Replicas  int      // effective replication factor
	Down      []string // addresses marked down, in member order
	Failovers int      // reads served by a non-primary replica
	Repairs   int      // members resynced and restored by Repair
}

// Degraded reports whether any member is marked down.
func (h Health) Degraded() bool { return len(h.Down) > 0 }

// Health returns the current membership view.
func (c *Client) Health() Health {
	h := Health{Nodes: len(c.nodes), Replicas: c.cfg.Replicas, Failovers: c.failovers, Repairs: c.repairs}
	for _, n := range c.nodes {
		if n.down {
			h.Down = append(h.Down, n.addr)
		}
	}
	return h
}

// markDown records a fail-stop failure: the node stays down until a
// Repair resynchronizes it (a returning node may have missed writes,
// so it must not serve reads again before anti-entropy brings it back
// in line with its healthy replicas).
func (c *Client) markDown(i int, err error) {
	n := c.nodes[i]
	if n.down {
		return
	}
	n.down = true
	n.err = err
	if n.c != nil {
		n.c.Close()
		n.c = nil
	}
}

// downCount counts members marked down.
func (c *Client) downCount() int {
	d := 0
	for _, n := range c.nodes {
		if n.down {
			d++
		}
	}
	return d
}

// staleErr builds the coverage-lost error for an operation.
func (c *Client) staleErr(op string) error {
	h := c.Health()
	return fmt.Errorf("cluster: %s: %d of %d nodes down (replication %d): %w",
		op, len(h.Down), h.Nodes, h.Replicas, tripled.ErrStaleRing)
}

// conn returns node i's connection, dialing if needed.
func (c *Client) conn(i int) (*tripled.Client, error) {
	n := c.nodes[i]
	if n.c == nil {
		cl, err := tripled.Dial(n.addr,
			tripled.WithDialTimeout(c.cfg.DialTimeout),
			tripled.WithIOTimeout(c.cfg.IOTimeout))
		if err != nil {
			return nil, err
		}
		n.c = cl
	}
	return n.c, nil
}

// onNode runs op against node i under the retry policy (Retry.Do):
// transport failures tear the connection down and retry on a fresh dial
// after a jittered backoff; protocol answers (including NF) return
// immediately. When every attempt fails on transport, the node is
// marked down and the last error returned. op must therefore be
// idempotent — which a replayed BATCH or prefix clear is (both
// converge) and every read trivially is.
func (c *Client) onNode(i int, op func(cl *tripled.Client) error) error {
	n := c.nodes[i]
	if n.down {
		return fmt.Errorf("cluster: node %s is down: %w", n.addr, n.err)
	}
	err := c.cfg.Retry.Do(c.rng, func() error {
		cl, err := c.conn(i)
		if err == nil {
			err = op(cl)
		}
		if err != nil && tripled.Retryable(err) && n.c != nil {
			// Transport failure: the connection state is unknowable; drop it
			// so the next attempt replays op on a fresh dial.
			n.c.Close()
			n.c = nil
		}
		return err
	})
	if err != nil && tripled.Retryable(err) {
		c.markDown(i, err)
	}
	return err
}

// readFailover runs one row-addressed read (Get's) against the key's
// live replicas in preference order, failing over to the next replica on any
// transport failure. Protocol answers (values, NF) are authoritative
// from whichever replica produced them, because every live replica of a
// row acked the row's writes.
func (c *Client) readFailover(row string, op func(cl *tripled.Client) error) error {
	var lastErr error
	for k, i := range c.ring.replicasFor(row, c.cfg.Replicas) {
		if c.nodes[i].down {
			continue
		}
		err := c.onNode(i, op)
		if err == nil || !tripled.Retryable(err) {
			if k > 0 { // the primary was down already or failed just now
				c.failovers++
			}
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("cluster: get %s: no live replica (last: %v): %w",
		row, lastErr, tripled.ErrStaleRing)
}

// Get fetches a value from the first live replica of row, failing over
// on transport errors; ErrNotFound when absent.
func (c *Client) Get(row, col string) (assoc.Value, error) {
	var out assoc.Value
	err := c.readFailover(row, func(cl *tripled.Client) error {
		v, err := cl.Get(row, col)
		if err == nil {
			out = v
		}
		return err
	})
	return out, err
}

// Put stores a value on every live replica of row: a one-cell batch.
func (c *Client) Put(row, col string, v assoc.Value) error {
	return c.PutBatch([]tripled.Cell{{Row: row, Col: col, Val: v}})
}

// PutBatch stores every cell on every live replica of its row, each
// node's share in one BATCH.
func (c *Client) PutBatch(cells []tripled.Cell) error {
	return c.write("batch", cells, len(cells))
}

// write is the one write path. It routes every cell to its row's
// replicas and streams each live node's share through one pipeline,
// batchSize cells per BATCH. A transport failure replays the whole share
// on a fresh connection (batches are idempotent) and, failing that,
// marks the node down; a protocol refusal aborts with the server's
// error. The write then succeeds iff every row kept a live replica: each
// replica that was up either acked its share or is now marked down, so
// every replica still up holds the write.
func (c *Client) write(opName string, cells []tripled.Cell, batchSize int) error {
	replicas := make(map[string][]int)
	shares := make([][]tripled.Cell, len(c.nodes))
	for _, cell := range cells {
		reps, ok := replicas[cell.Row]
		if !ok {
			reps = c.ring.replicasFor(cell.Row, c.cfg.Replicas)
			replicas[cell.Row] = reps
		}
		for _, i := range reps {
			shares[i] = append(shares[i], cell)
		}
	}
	for i, share := range shares {
		if len(share) == 0 || c.nodes[i].down {
			continue
		}
		err := c.onNode(i, func(cl *tripled.Client) error {
			p := cl.StartPipeline(batchSize)
			for _, cell := range share {
				p.Put(cell.Row, cell.Col, cell.Val)
			}
			return p.Close()
		})
		if err != nil && !tripled.Retryable(err) {
			return fmt.Errorf("cluster: %s on %s: %w", opName, c.nodes[i].addr, err)
		}
	}
	live := func(i int) bool { return !c.nodes[i].down }
	for _, cell := range cells {
		if !slices.ContainsFunc(replicas[cell.Row], live) {
			return fmt.Errorf("cluster: %s: row %q lost every replica: %w",
				opName, cell.Row, tripled.ErrStaleRing)
		}
	}
	return nil
}

// eachUpNode is the one full-coverage fan-out: it runs op on every live
// node, tolerating per-node transport exhaustion (the node is marked
// down) but aborting on protocol refusals. Any single node holds only
// its replicas, but with fewer than Replicas members down the union over
// the live ones is complete. Coverage is checked before each node and
// after the last: once Replicas members are down some key may have lost
// every copy, and the op fails with ErrStaleRing rather than silently
// answer — or clear — less than the whole table.
func (c *Client) eachUpNode(opName string, op func(cl *tripled.Client) error) error {
	for i := 0; ; i++ {
		if c.downCount() >= c.cfg.Replicas {
			return c.staleErr(opName)
		}
		if i == len(c.nodes) {
			return nil
		}
		if c.nodes[i].down {
			continue
		}
		if err := c.onNode(i, op); err != nil && !tripled.Retryable(err) {
			return fmt.Errorf("cluster: %s on %s: %w", opName, c.nodes[i].addr, err)
		}
	}
}

// FetchAssoc merges the prefix export from every live node; replica
// copies of a cell are identical, so the merge is idempotent.
func (c *Client) FetchAssoc(prefix string, pageRows int) (*assoc.Assoc, error) {
	out := assoc.New()
	err := c.eachUpNode("fetch "+prefix, func(cl *tripled.Client) error {
		a, err := cl.FetchAssoc(prefix, pageRows)
		if err != nil {
			return err
		}
		a.Iterate(func(row, col string, v assoc.Value) bool {
			out.Set(row, col, v)
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TopRowsByDegree merges each live node's local top-k. Rows are whole
// on every replica, so a row's local degree equals its global degree
// wherever it appears, and any global top-k row is necessarily in the
// local top-k of each node holding it — the merge is exact, not
// approximate.
func (c *Client) TopRowsByDegree(k int) ([]tripled.RowDegree, error) {
	deg := make(map[string]int)
	err := c.eachUpNode("topdeg", func(cl *tripled.Client) error {
		top, err := cl.TopRowsByDegree(k)
		if err != nil {
			return err
		}
		for _, rd := range top {
			if rd.Degree > deg[rd.Row] {
				deg[rd.Row] = rd.Degree
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]tripled.RowDegree, 0, len(deg))
	for row, d := range deg {
		out = append(out, tripled.RowDegree{Row: row, Degree: d})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Degree != out[b].Degree {
			return out[a].Degree > out[b].Degree
		}
		return out[a].Row < out[b].Row
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// PublishAssoc replaces the table under prefix cluster-wide: it clears
// the prefix on every live node (a full-coverage op — rows whose every
// replica is down could not be proven gone), then sends the table's
// cells down the write path, batchSize cells per BATCH. A node dying
// mid-publish has its share replayed on a fresh connection and, failing
// that, is marked down; the publish still succeeds as long as every row
// keeps a live replica, which is how the kill-a-node soak keeps its
// byte-parity guarantee.
func (c *Client) PublishAssoc(prefix string, a *assoc.Assoc, batchSize int) error {
	err := c.eachUpNode("publish "+prefix, func(cl *tripled.Client) error {
		return cl.DeletePrefix(prefix, 512)
	})
	if err != nil {
		return err
	}
	cells := make([]tripled.Cell, 0, a.NNZ())
	a.Iterate(func(row, col string, v assoc.Value) bool {
		cells = append(cells, tripled.Cell{Row: prefix + row, Col: col, Val: v})
		return true
	})
	return c.write("publish "+prefix, cells, batchSize)
}
