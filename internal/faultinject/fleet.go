package faultinject

import (
	"cmp"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/tripled"
)

// FleetConfig shapes a Fleet.
type FleetConfig struct {
	Nodes   int              // servers, each on its own loopback port
	Stripes int              // store stripes per node; 0 is tripled.DefaultStripes
	WALRoot string           // when set, node i logs to and recovers from WALRoot/node-i
	Proxied bool             // put every node behind its own Proxy
	Options []tripled.Option // passed to every node's Serve
}

// Fleet is N in-process tripled nodes on loopback ports, each behind
// its own Proxy when proxied. The address a client dials for a node
// stays fixed across Restart.
type Fleet struct {
	cfg     FleetConfig
	addrs   []string // what clients dial: its proxy's address, or the server's
	proxies []*Proxy // nil entries when not proxied

	mu      sync.Mutex
	servers []*tripled.Server // nil once closed, or down after a failed Restart
	stores  []*tripled.Store
}

// NewFleet serves cfg.Nodes nodes; on error it leaves nothing running.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	n := cfg.Nodes
	f := &Fleet{cfg: cfg, proxies: make([]*Proxy, n), servers: make([]*tripled.Server, n), stores: make([]*tripled.Store, n)}
	for i := range n {
		if err := f.serve(i, "127.0.0.1:0"); err != nil {
			f.Close()
			return nil, err
		}
		addr := f.servers[i].Addr()
		if cfg.Proxied {
			p, err := New(addr)
			if err != nil {
				f.Close()
				return nil, err
			}
			f.proxies[i], addr = p, p.Addr()
		}
		f.addrs = append(f.addrs, addr)
	}
	return f, nil
}

// serve starts node i on addr over a fresh store, which the node's WAL
// recovers when the fleet has a WAL root.
func (f *Fleet) serve(i int, addr string) error {
	opts := f.cfg.Options
	if f.cfg.WALRoot != "" {
		dir := filepath.Join(f.cfg.WALRoot, fmt.Sprintf("node-%d", i))
		opts = append([]tripled.Option{tripled.WithDataDir(dir)}, opts...)
	}
	store := tripled.NewStoreStripes(cmp.Or(f.cfg.Stripes, tripled.DefaultStripes))
	srv, err := tripled.Serve(store, addr, opts...)
	if err != nil {
		return fmt.Errorf("faultinject: node %d: %w", i, err)
	}
	f.servers[i], f.stores[i] = srv, store
	return nil
}

// Addrs returns the address a client dials for each node.
func (f *Fleet) Addrs() []string { return slices.Clone(f.addrs) }

// Spec is the cluster spec of every node at replicas copies per row,
// "a,b,c;replicas=R"; a caller appends its own timeout and retry keys.
func (f *Fleet) Spec(replicas int) string {
	return strings.Join(f.addrs, ",") + ";replicas=" + strconv.Itoa(replicas)
}

// Proxy returns node i's proxy, or nil when the fleet is not proxied.
func (f *Fleet) Proxy(i int) *Proxy { return f.proxies[i] }

// Server returns node i's current server.
func (f *Fleet) Server(i int) *tripled.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.servers[i]
}

// Store returns node i's current store.
func (f *Fleet) Store(i int) *tripled.Store {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stores[i]
}

// Restart closes node i's server and serves a fresh store on the same
// raw address, recovered from the node's WAL when the fleet has a WAL
// root and empty otherwise; its proxy, and so its client address, stay
// as they were. Server.Close drains the handlers and closes the WAL,
// which flushes it, so this is a clean stop and a restart from the log,
// not a crash: the SIGKILL path is the cluster package's
// TestClusterKill9RestartWALRepairRejoins. A node whose restart fails
// stays down, as does every node of a closed fleet.
func (f *Fleet) Restart(i int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	srv := f.servers[i]
	if srv == nil {
		return fmt.Errorf("faultinject: node %d is down", i)
	}
	srv.Close()
	f.servers[i] = nil
	return f.serve(i, srv.Addr())
}

// Close stops every node, each proxy before its server.
func (f *Fleet) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, srv := range f.servers {
		if f.proxies[i] != nil {
			f.proxies[i].Close()
		}
		if srv != nil {
			srv.Close()
			f.servers[i] = nil
		}
	}
}
