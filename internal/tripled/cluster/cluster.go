package cluster

import (
	"errors"
	"fmt"
	"math/rand"
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
	Retry       tripled.Retry // per-node retry/backoff policy; zero value = tripled.DefaultRetry
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

// ParseSpec parses the textual cluster spec accepted wherever a single
// store address used to go:
//
//	"host:p1,host:p2,host:p3[;replicas=N][;vnodes=N]
//	 [;io_timeout=D][;dial_timeout=D][;retries=N]"
//
// Durations use Go syntax ("500ms"). Whitespace around addresses and
// options is ignored. The timeout options exist so one StoreAddr
// string fully describes the transport — scenario suites and the
// daemon tune failover latency without new plumbing.
func ParseSpec(spec string) (Config, error) {
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

// New builds a cluster client over the membership. Connections are
// dialed lazily, so New succeeds even if members are down — they are
// discovered down on first use.
func New(cfg Config) (*Client, error) {
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
	cfg, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return New(cfg)
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

// staleErr builds the quorum-lost error for an operation.
func (c *Client) staleErr(op string) error {
	h := c.Health()
	return fmt.Errorf("cluster: %s: %d of %d nodes down (replication %d): %w",
		op, len(h.Down), h.Nodes, h.Replicas, tripled.ErrStaleRing)
}

// guardComplete fails an operation that cannot be answered completely:
// once Replicas or more members are down, some key may have lost every
// copy, and pretending otherwise would silently drop data.
func (c *Client) guardComplete(op string) error {
	if c.downCount() >= c.cfg.Replicas {
		return c.staleErr(op)
	}
	return nil
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
// idempotent — which every tripled mutation is (PUT/DEL/BATCH replays
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

// upReplicas splits a key's replica set into live members.
func (c *Client) upReplicas(key string) (up []int, total []int) {
	total = c.ring.replicasFor(key, c.cfg.Replicas)
	for _, i := range total {
		if !c.nodes[i].down {
			up = append(up, i)
		}
	}
	return up, total
}

// writeReplicated applies one idempotent mutation of row to every live
// replica and enforces the quorum rule: the write succeeds iff it was
// acknowledged by at least one replica AND by a majority of the
// replicas still considered up once the attempt is over. Under the
// fail-stop view this means a write only fails when a node refuses it
// at the protocol level (fatal, returned directly) or when the key's
// whole replica set is gone (ErrStaleRing).
//
// notFoundOK treats the server's NF answer as an acknowledgement
// (deletes of absent cells are applied-by-definition).
func (c *Client) writeReplicated(opName, row string, notFoundOK bool, op func(cl *tripled.Client) error) error {
	up, _ := c.upReplicas(row)
	if len(up) == 0 {
		return c.staleErr(opName + " " + row)
	}
	acks, notFounds := 0, 0
	var lastTransport error
	for _, i := range up {
		err := c.onNode(i, op)
		switch {
		case err == nil:
			acks++
		case notFoundOK && errors.Is(err, tripled.ErrNotFound):
			notFounds++
		case tripled.Retryable(err):
			lastTransport = err // node is now marked down
		default:
			return err // protocol refusal: retrying elsewhere cannot help
		}
	}
	stillUp := 0
	for _, i := range up {
		if !c.nodes[i].down {
			stillUp++
		}
	}
	applied := acks + notFounds
	if stillUp == 0 || applied == 0 {
		return fmt.Errorf("cluster: %s %s: no replica acknowledged (last: %v): %w",
			opName, row, lastTransport, tripled.ErrStaleRing)
	}
	if need := stillUp/2 + 1; applied < need {
		return fmt.Errorf("cluster: %s %s: %d of %d required acks (last: %v): %w",
			opName, row, applied, need, lastTransport, tripled.ErrStaleRing)
	}
	if notFoundOK && acks == 0 && notFounds > 0 {
		return tripled.ErrNotFound
	}
	return nil
}

// readFailover runs one row-addressed read against the key's replicas
// in preference order, failing over to the next replica on any
// transport failure. Protocol answers (values, NF) are authoritative
// from whichever replica produced them, because replicas of a row are
// written in lockstep.
func (c *Client) readFailover(opName, row string, op func(cl *tripled.Client) error) error {
	up, _ := c.upReplicas(row)
	var lastErr error
	for pos, i := range up {
		err := c.onNode(i, op)
		if err == nil || !tripled.Retryable(err) {
			if pos > 0 {
				c.failovers++
			}
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("cluster: %s %s: no live replica (last: %v): %w",
		opName, row, lastErr, tripled.ErrStaleRing)
}

// Put stores a value on every live replica of row.
func (c *Client) Put(row, col string, v assoc.Value) error {
	return c.writeReplicated("put", row, false, func(cl *tripled.Client) error {
		return cl.Put(row, col, v)
	})
}

// Delete removes a cell from every live replica; ErrNotFound when no
// replica held it.
func (c *Client) Delete(row, col string) error {
	return c.writeReplicated("del", row, true, func(cl *tripled.Client) error {
		return cl.Delete(row, col)
	})
}

// Get fetches a value from the first live replica of row, failing over
// on transport errors; ErrNotFound when absent.
func (c *Client) Get(row, col string) (assoc.Value, error) {
	var out assoc.Value
	err := c.readFailover("get", row, func(cl *tripled.Client) error {
		v, err := cl.Get(row, col)
		if err == nil {
			out = v
		}
		return err
	})
	return out, err
}

// Row fetches all cells of a row (rows are whole on every replica).
func (c *Client) Row(row string) (map[string]assoc.Value, error) {
	var out map[string]assoc.Value
	err := c.readFailover("row", row, func(cl *tripled.Client) error {
		m, err := cl.Row(row)
		if err == nil {
			out = m
		}
		return err
	})
	return out, err
}

// replicaCache memoizes replicasFor per row during bulk operations.
type replicaCache struct {
	c *Client
	m map[string][]int
}

func (rc *replicaCache) get(row string) []int {
	if reps, ok := rc.m[row]; ok {
		return reps
	}
	reps := rc.c.ring.replicasFor(row, rc.c.cfg.Replicas)
	rc.m[row] = reps
	return reps
}

// PutBatch routes every cell to its replicas and writes each node's
// share in one batched call; per-node transport failures are retried
// by replaying the whole share on a fresh connection (batches are
// idempotent). It then enforces the per-cell quorum rule, so a batch
// only succeeds when every cell is durable on a majority of its
// still-live replicas.
func (c *Client) PutBatch(cells []tripled.Cell) error {
	if len(cells) == 0 {
		return nil
	}
	rc := &replicaCache{c: c, m: make(map[string][]int)}
	shares := make([][]tripled.Cell, len(c.nodes))
	for _, cell := range cells {
		for _, i := range rc.get(cell.Row) {
			shares[i] = append(shares[i], cell)
		}
	}
	if err := c.writeShares("batch", shares, 0); err != nil {
		return err
	}
	return c.checkCellQuorum("batch", cells, rc)
}

// writeShares writes each node's cell share, skipping down nodes and
// empty shares. A fatal (protocol) refusal aborts; transport
// exhaustion marks the node down and moves on — the quorum check
// afterwards decides whether the operation as a whole survived.
// batchSize > 0 streams shares through the pipelined multi-BATCH path
// instead of one monolithic batch.
func (c *Client) writeShares(opName string, shares [][]tripled.Cell, batchSize int) error {
	for i, share := range shares {
		if len(share) == 0 || c.nodes[i].down {
			continue
		}
		share := share
		err := c.onNode(i, func(cl *tripled.Client) error {
			if batchSize > 0 {
				p := cl.StartPipeline(batchSize)
				for _, cell := range share {
					p.Put(cell.Row, cell.Col, cell.Val)
				}
				return p.Close()
			}
			return cl.PutBatch(share)
		})
		if err != nil && !tripled.Retryable(err) {
			return fmt.Errorf("cluster: %s on %s: %w", opName, c.nodes[i].addr, err)
		}
	}
	return nil
}

// checkCellQuorum verifies, after a bulk write, that every cell kept a
// majority of its still-up replicas (and at least one). Nodes that
// survived writeShares hold their whole share, so the check reduces to
// health arithmetic per distinct row.
func (c *Client) checkCellQuorum(opName string, cells []tripled.Cell, rc *replicaCache) error {
	checked := make(map[string]bool, len(rc.m))
	for _, cell := range cells {
		if checked[cell.Row] {
			continue
		}
		checked[cell.Row] = true
		up := 0
		for _, i := range rc.get(cell.Row) {
			if !c.nodes[i].down {
				up++
			}
		}
		if up == 0 {
			return fmt.Errorf("cluster: %s: row %q lost every replica: %w",
				opName, cell.Row, tripled.ErrStaleRing)
		}
	}
	return nil
}

// eachUpNode runs op on every currently-up node, tolerating per-node
// transport exhaustion (the node is marked down) but aborting on
// protocol refusals.
func (c *Client) eachUpNode(opName string, op func(cl *tripled.Client) error) error {
	for i, n := range c.nodes {
		if n.down {
			continue
		}
		if err := c.onNode(i, op); err != nil && !tripled.Retryable(err) {
			return fmt.Errorf("cluster: %s on %s: %w", opName, n.addr, err)
		}
	}
	return nil
}

// ScanAllRows merges the row scan from every live node. Any single
// node's copy is partial (it holds only its replicas), but with fewer
// than Replicas nodes down the union over live nodes is complete;
// beyond that the scan fails with ErrStaleRing rather than silently
// dropping rows.
func (c *Client) ScanAllRows(start, end string, pageSize int) ([]string, error) {
	if err := c.guardComplete("scan"); err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	err := c.eachUpNode("scan", func(cl *tripled.Client) error {
		rows, err := cl.ScanAllRows(start, end, pageSize)
		if err != nil {
			return err
		}
		for _, r := range rows {
			seen[r] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := c.guardComplete("scan"); err != nil {
		return nil, err
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out, nil
}

// FetchAssoc merges the prefix export from every live node (replica
// copies of a cell are identical, so the merge is idempotent), under
// the same completeness guard as ScanAllRows.
func (c *Client) FetchAssoc(prefix string, pageRows int) (*assoc.Assoc, error) {
	if err := c.guardComplete("fetch " + prefix); err != nil {
		return nil, err
	}
	out := assoc.New()
	err := c.eachUpNode("fetch", func(cl *tripled.Client) error {
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
	if err := c.guardComplete("fetch " + prefix); err != nil {
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
	if err := c.guardComplete("topdeg"); err != nil {
		return nil, err
	}
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
	if err := c.guardComplete("topdeg"); err != nil {
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

// DeletePrefix clears the prefix on every live node. Deletes are
// writes: losing more than Replicas-1 nodes mid-delete fails the
// operation, because rows whose replicas were all on dead nodes can no
// longer be proven gone.
func (c *Client) DeletePrefix(prefix string, pageRows int) error {
	if err := c.guardComplete("delete " + prefix); err != nil {
		return err
	}
	if err := c.eachUpNode("delete", func(cl *tripled.Client) error {
		return cl.DeletePrefix(prefix, pageRows)
	}); err != nil {
		return err
	}
	return c.guardComplete("delete " + prefix)
}

// PublishAssoc replaces the table under prefix cluster-wide: clear the
// prefix on every live node, route each cell to its replicas, and
// stream each node's share through the pipelined batch path. A node
// dying mid-publish has its share replayed on a fresh connection
// (publishes are idempotent) and, failing that, is marked down — the
// publish still succeeds as long as every cell retains a live replica
// majority, which is exactly how the kill-a-node soak keeps its
// byte-parity guarantee.
func (c *Client) PublishAssoc(prefix string, a *assoc.Assoc, batchSize int) error {
	if err := c.DeletePrefix(prefix, 512); err != nil {
		return err
	}
	rc := &replicaCache{c: c, m: make(map[string][]int)}
	shares := make([][]tripled.Cell, len(c.nodes))
	var cells []tripled.Cell
	a.Iterate(func(row, col string, v assoc.Value) bool {
		cell := tripled.Cell{Row: prefix + row, Col: col, Val: v}
		cells = append(cells, cell)
		for _, i := range rc.get(cell.Row) {
			shares[i] = append(shares[i], cell)
		}
		return true
	})
	if batchSize < 1 {
		batchSize = 1024
	}
	if err := c.writeShares("publish "+prefix, shares, batchSize); err != nil {
		return err
	}
	return c.checkCellQuorum("publish "+prefix, cells, rc)
}
