package faultinject

// fleet_test.go holds the fleet to what its callers rely on: node i's
// proxy faults node i's address, Close frees every address, and Restart
// brings a durable node back on its address with every acked cell.

import (
	"fmt"
	"net"
	"slices"
	"testing"

	"repro/internal/assoc"
	"repro/internal/tripled"
	"repro/internal/tripled/cluster"
)

func newFleet(t *testing.T, cfg FleetConfig) *Fleet {
	t.Helper()
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func TestFleetBlackholedProxyMarksItsAddressDownAndCloseFreesAll(t *testing.T) {
	f := newFleet(t, FleetConfig{Nodes: 3, Proxied: true})
	c, err := cluster.Dial(f.Spec(2) + ";io_timeout=300ms;retries=2")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f.Proxy(1).SetMode(Blackhole)
	for i := 0; i < 100 && len(c.Health().Down) == 0; i++ {
		c.Get(fmt.Sprintf("probe-%d", i), "x")
	}
	if down := c.Health().Down; !slices.Equal(down, f.Addrs()[1:2]) {
		t.Fatalf("down = %v, want exactly node 1 at %s", down, f.Addrs()[1])
	}

	held := f.Addrs()
	for i := range 3 {
		held = append(held, f.Server(i).Addr())
	}
	f.Close()
	for _, addr := range held {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("%s still held after Close: %v", addr, err)
			continue
		}
		ln.Close()
	}
}

func TestFleetRestartKeepsAddressAndAckedCells(t *testing.T) {
	f := newFleet(t, FleetConfig{Nodes: 2, WALRoot: t.TempDir(), Proxied: true})
	raw := f.Server(1).Addr()
	cells := []tripled.Cell{{Row: "r1", Col: "a", Val: assoc.Num(1)}, {Row: "r2", Col: "b", Val: assoc.Str("x")}}
	c, err := tripled.Dial(f.Addrs()[1])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.PutBatch(cells); err != nil {
		t.Fatal(err)
	}
	if err := f.Restart(1); err != nil {
		t.Fatal(err)
	}
	if got := f.Server(1).Addr(); got != raw {
		t.Fatalf("restarted on %s, was %s", got, raw)
	}
	for _, cell := range cells {
		if v, ok := f.Store(1).Get(cell.Row, cell.Col); !ok || v != cell.Val {
			t.Errorf("(%s,%s) after restart = %v, %v; want %v", cell.Row, cell.Col, v, ok, cell.Val)
		}
	}
}
