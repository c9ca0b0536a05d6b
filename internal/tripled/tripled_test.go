package tripled

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/assoc"
)

func TestPutGetDelete(t *testing.T) {
	s := NewStore()
	s.Put("1.1.1.1", "packets", assoc.Num(3))
	if v, ok := s.Get("1.1.1.1", "packets"); !ok || v.Num != 3 {
		t.Fatal("basic put/get failed")
	}
	s.Put("1.1.1.1", "packets", assoc.Num(5)) // replace
	if s.NNZ() != 1 {
		t.Errorf("replace grew NNZ to %d", s.NNZ())
	}
	if !s.Delete("1.1.1.1", "packets") {
		t.Error("delete existing returned false")
	}
	if s.Delete("1.1.1.1", "packets") {
		t.Error("delete absent returned true")
	}
	if s.NNZ() != 0 {
		t.Errorf("NNZ after delete = %d", s.NNZ())
	}
}

func TestRowIndexConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		type cell struct{ r, c string }
		ref := make(map[cell]assoc.Value)
		for i := 0; i < 300; i++ {
			r := "r" + strconv.Itoa(rng.Intn(20))
			c := "c" + strconv.Itoa(rng.Intn(20))
			if rng.Intn(5) == 0 {
				s.Delete(r, c)
				delete(ref, cell{r, c})
			} else {
				v := assoc.Num(float64(rng.Intn(100)))
				s.Put(r, c, v)
				ref[cell{r, c}] = v
			}
		}
		// Point reads, the exported table and the degree table must all
		// agree with the reference.
		table := s.ToAssoc()
		if s.NNZ() != len(ref) || table.NNZ() != len(ref) {
			return false
		}
		rowDeg := make(map[string]int)
		for k, v := range ref {
			if got, ok := s.Get(k.r, k.c); !ok || got != v {
				return false
			}
			if got, ok := table.Get(k.r, k.c); !ok || got != v {
				return false
			}
			rowDeg[k.r]++
		}
		top := s.TopRowsByDegree(len(ref))
		if len(top) != len(rowDeg) {
			return false
		}
		for _, rd := range top {
			if rowDeg[rd.Row] != rd.Degree {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRowRange(t *testing.T) {
	s := NewStore()
	for _, r := range []string{"a", "b", "c", "d"} {
		s.Put(r, "x", assoc.Num(1))
	}
	got, more := s.appendCells(nil, "b", "d", 0, "")
	if len(got) != 2 || got[0].Row != "b" || got[1].Row != "c" || more {
		t.Errorf("rows in [b, d) = %v, more=%v", got, more)
	}
	all, _ := s.appendCells(nil, "", "", 0, "")
	if len(all) != 4 {
		t.Errorf("unbounded range = %v", all)
	}
}

func TestTopRowsByDegree(t *testing.T) {
	s := NewStore()
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			s.Put("r"+strconv.Itoa(i), "c"+strconv.Itoa(j), assoc.Num(1))
		}
	}
	top := s.TopRowsByDegree(2)
	if len(top) != 2 || top[0].Row != "r4" || top[0].Degree != 5 || top[1].Row != "r3" {
		t.Errorf("TopRowsByDegree = %v", top)
	}
	if got := s.TopRowsByDegree(100); len(got) != 5 {
		t.Errorf("k>n returned %d rows", len(got))
	}
}

func TestLoadAndExportAssoc(t *testing.T) {
	a := assoc.New()
	a.Set("1.1.1.1", "packets", assoc.Num(3))
	a.Set("1.1.1.1", "class", assoc.Str("scanner"))
	a.Set("2.2.2.2", "packets", assoc.Num(7))
	s := NewStore()
	s.LoadAssoc(a)
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d", s.NNZ())
	}
	back := s.ToAssoc()
	if back.NNZ() != a.NNZ() {
		t.Fatal("round trip lost cells")
	}
	a.Iterate(func(r, c string, v assoc.Value) bool {
		got, ok := back.Get(r, c)
		if !ok || got != v {
			t.Errorf("cell (%s,%s) mismatch", r, c)
		}
		return true
	})
}

func TestLogRoundTrip(t *testing.T) {
	s := NewStore()
	s.Put("r1", "c1", assoc.Num(1.5))
	s.Put("r2", "c2", assoc.Str("hello world"))
	var buf bytes.Buffer
	if err := s.WriteLog(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if _, err := s2.replayLog(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if s2.NNZ() != 2 {
		t.Fatalf("replayed NNZ = %d", s2.NNZ())
	}
	if v, _ := s2.Get("r1", "c1"); v.Num != 1.5 {
		t.Error("numeric value lost in log")
	}
	if v, _ := s2.Get("r2", "c2"); v.Str != "hello world" {
		t.Error("string value lost in log")
	}
}

func TestReplayLogErrors(t *testing.T) {
	s := NewStore()
	for _, bad := range []string{"X\tr\tc\tn\t1\n", "PUT\tr\tc\n", "PUT\tr\tc\tq\tv\n", "PUT\tr\tc\tn\tnotnum\n"} {
		if _, err := s.replayLog(bytes.NewReader([]byte(bad)), nil); err == nil {
			t.Errorf("replayLog(%q) succeeded", bad)
		}
	}
}

func TestConcurrentClientsViaServer(t *testing.T) {
	store := NewStore()
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const goroutines = 8
	const perG = 100
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < perG; i++ {
				row := fmt.Sprintf("g%d-r%d", id, i)
				if err := c.Put(row, "packets", assoc.Num(float64(i))); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if store.NNZ() != goroutines*perG {
		t.Fatalf("NNZ = %d, want %d", store.NNZ(), goroutines*perG)
	}
}

func TestClientServerProtocol(t *testing.T) {
	store := NewStore()
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Put("1.1.1.1", "packets", assoc.Num(3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("1.1.1.1", "class", assoc.Str("scanner")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("2.2.2.2", "packets", assoc.Num(9)); err != nil {
		t.Fatal(err)
	}

	v, err := c.Get("1.1.1.1", "packets")
	if err != nil || v.Num != 3 {
		t.Fatalf("Get = %v, %v", v, err)
	}
	if _, err := c.Get("absent", "absent"); err != ErrNotFound {
		t.Errorf("absent Get error = %v, want ErrNotFound", err)
	}

	row, err := c.RowCells("1.1.1.1")
	if err != nil || len(row) != 2 || row[0] != (Cell{Row: "1.1.1.1", Col: "class", Val: assoc.Str("scanner")}) {
		t.Fatalf("RowCells = %v, %v", row, err)
	}
	if row, err := c.RowCells("1.1.1"); err != nil || row != nil {
		t.Fatalf("RowCells of an absent row = %v, %v", row, err)
	}
	table, err := c.FetchAssoc("1.", 8) // rows come back without the prefix
	if err != nil || table.NNZ() != 2 || !table.HasRow("1.1.1") {
		t.Fatalf("FetchAssoc(1.) = %v, %v", table, err)
	}

	top, err := c.TopRowsByDegree(1)
	if err != nil || len(top) != 1 || top[0].Row != "1.1.1.1" || top[0].Degree != 2 {
		t.Fatalf("TopRowsByDegree = %v, %v", top, err)
	}

	nnz, err := c.NNZ()
	if err != nil || nnz != 3 {
		t.Fatalf("NNZ = %d, %v", nnz, err)
	}

	for range 2 { // the second delete finds nothing, which is no error
		if err := c.deleteBatch([]CellKey{{Row: "2.2.2.2", Col: "packets"}}); err != nil {
			t.Fatal(err)
		}
	}
	if nnz := store.NNZ(); nnz != 2 {
		t.Errorf("NNZ after delete = %d", nnz)
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	store := NewStore()
	srv, err := Serve(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, bad := range []string{"BOGUS", "PUT\tonly", "GET\tr", "TOPDEG\t-1", "TOPDEG\tx", "CELLS\ta", "CELLS\ta\tz\t0\t"} {
		resp, err := c.roundTrip(bad)
		if err != nil {
			t.Fatalf("transport error on %q: %v", bad, err)
		}
		if len(resp) < 3 || resp[:3] != "ERR" {
			t.Errorf("request %q got %q, want ERR", bad, resp)
		}
	}
}

func BenchmarkStorePut(b *testing.B) {
	s := NewStore()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Put("r"+strconv.Itoa(i%100000), "packets", assoc.Num(float64(i)))
	}
}

func BenchmarkClientPut(b *testing.B) {
	srv, err := Serve(NewStore(), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Put("r"+strconv.Itoa(i%1000), "packets", assoc.Num(1)); err != nil {
			b.Fatal(err)
		}
	}
}
