package tripled

// soak_test.go is the concurrency gate: N clients hammer one server
// with mixed traffic, then the final store state is diffed against a
// single-threaded replay of every client's mutations into a fresh
// oracle store — the same Workers=1 oracle pattern the window engine
// uses. Run under -race (CI does) this doubles as the data-race sweep.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/assoc"
)

// soakOp is one scripted client operation. Mutations stay inside the
// owning client's keyspace so the interleaving cannot change the final
// state; reads roam everywhere.
type soakOp struct {
	kind string // "put", "del", "batch", "get", "row", "topdeg", "fetch", "nnz"
	row  string
	col  string
	val  assoc.Value
	n    int // batch size / topdeg k
}

// soakScript builds a deterministic op sequence for one client.
func soakScript(id, ops int) []soakOp {
	rng := rand.New(rand.NewSource(int64(1000 + id)))
	mine := func() string { return fmt.Sprintf("c%d-r%d", id, rng.Intn(40)) }
	anyRow := func() string { return fmt.Sprintf("c%d-r%d", rng.Intn(8), rng.Intn(40)) }
	cols := []string{"packets", "class", "intent", "tags"}
	out := make([]soakOp, 0, ops)
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 35:
			out = append(out, soakOp{kind: "put", row: mine(), col: cols[rng.Intn(len(cols))], val: assoc.Num(float64(rng.Intn(1000)))})
		case r < 45:
			out = append(out, soakOp{kind: "del", row: mine(), col: cols[rng.Intn(len(cols))]})
		case r < 55:
			out = append(out, soakOp{kind: "batch", n: 1 + rng.Intn(20)})
		case r < 70:
			out = append(out, soakOp{kind: "get", row: anyRow(), col: cols[rng.Intn(len(cols))]})
		case r < 80:
			out = append(out, soakOp{kind: "row", row: anyRow()})
		case r < 90:
			out = append(out, soakOp{kind: "topdeg", n: 1 + rng.Intn(10)})
		case r < 95:
			out = append(out, soakOp{kind: "fetch", row: anyRow()})
		default:
			out = append(out, soakOp{kind: "nnz"})
		}
	}
	return out
}

// batchCells expands a "batch" op deterministically from its position.
func batchCells(id, opIdx, n int) []Cell {
	rng := rand.New(rand.NewSource(int64(id)*1e6 + int64(opIdx)))
	cells := make([]Cell, 0, n)
	for i := 0; i < n; i++ {
		cells = append(cells, Cell{
			Row: fmt.Sprintf("c%d-r%d", id, rng.Intn(40)),
			Col: fmt.Sprintf("b%d", rng.Intn(6)),
			Val: assoc.Num(float64(rng.Intn(1000))),
		})
	}
	return cells
}

func TestConcurrentSoakMatchesOracle(t *testing.T) {
	const clients = 8
	ops := 600
	if testing.Short() {
		ops = 120
	}

	store := NewStore()
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := 0; id < clients; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i, op := range soakScript(id, ops) {
				var err error
				switch op.kind {
				case "put":
					err = c.Put(op.row, op.col, op.val)
				case "del":
					err = c.deleteBatch([]CellKey{{Row: op.row, Col: op.col}})
				case "batch":
					err = c.PutBatch(batchCells(id, i, op.n))
				case "get":
					if _, err = c.Get(op.row, op.col); err == ErrNotFound {
						err = nil
					}
				case "row":
					_, err = c.RowCells(op.row)
				case "topdeg":
					_, err = c.TopRowsByDegree(op.n)
				case "fetch":
					_, err = c.FetchAssoc(op.row, 16)
				case "nnz":
					_, err = c.NNZ()
				}
				if err != nil {
					errs <- fmt.Errorf("client %d op %d (%s): %w", id, i, op.kind, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Single-threaded replay oracle: per-client mutation order is all
	// that matters, because mutation keyspaces are disjoint per client.
	oracle := NewStore()
	for id := 0; id < clients; id++ {
		for i, op := range soakScript(id, ops) {
			switch op.kind {
			case "put":
				oracle.Put(op.row, op.col, op.val)
			case "del":
				oracle.Delete(op.row, op.col)
			case "batch":
				for _, cell := range batchCells(id, i, op.n) {
					oracle.Put(cell.Row, cell.Col, cell.Val)
				}
			}
		}
	}

	verifyStoreInvariants(t, store)
	if got, want := store.NNZ(), oracle.NNZ(); got != want {
		t.Errorf("NNZ = %d, oracle %d", got, want)
	}
	got, want := store.ToAssoc(), oracle.ToAssoc()
	if got.NNZ() != want.NNZ() {
		t.Fatalf("exported NNZ = %d, oracle %d", got.NNZ(), want.NNZ())
	}
	diffs := 0
	want.Iterate(func(r, c string, v assoc.Value) bool {
		if gv, ok := got.Get(r, c); !ok || gv != v {
			diffs++
			if diffs <= 5 {
				t.Errorf("cell (%s,%s) = %v, oracle %v", r, c, gv, v)
			}
		}
		return true
	})
	if diffs > 0 {
		t.Fatalf("%d cells differ from the serial oracle", diffs)
	}
	if !reflect.DeepEqual(store.TopRowsByDegree(10), oracle.TopRowsByDegree(10)) {
		t.Error("degree-table top-k differs from the serial oracle")
	}
}
