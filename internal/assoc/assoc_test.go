package assoc

import (
	"bytes"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestSetGetDelete(t *testing.T) {
	a := New()
	a.Set("1.1.1.1", "2.2.2.2", Num(3))
	if v, ok := a.Get("1.1.1.1", "2.2.2.2"); !ok || v.Num != 3 {
		t.Fatal("paper's example cell not stored")
	}
	if a.NNZ() != 1 || a.NRows() != 1 {
		t.Errorf("NNZ=%d NRows=%d", a.NNZ(), a.NRows())
	}
	a.Set("1.1.1.1", "2.2.2.2", Num(5)) // replace, not grow
	if a.NNZ() != 1 {
		t.Error("replace grew NNZ")
	}
	a.Delete("1.1.1.1", "2.2.2.2")
	if a.NNZ() != 0 || a.NRows() != 0 {
		t.Error("delete left residue")
	}
	a.Delete("absent", "absent") // no-op must not panic or corrupt
	if a.NNZ() != 0 {
		t.Error("deleting absent cell changed NNZ")
	}
}

func TestValueString(t *testing.T) {
	if Num(3).String() != "3" {
		t.Errorf("Num(3) = %q", Num(3).String())
	}
	if Num(2.5).String() != "2.5" {
		t.Errorf("Num(2.5) = %q", Num(2.5).String())
	}
	if Str("scanner").String() != "scanner" {
		t.Error("Str round trip failed")
	}
}

func TestKeysSorted(t *testing.T) {
	a := New()
	for _, r := range []string{"9.9.9.9", "1.1.1.1", "5.5.5.5"} {
		a.Set(r, "seen", Num(1))
		a.Set(r, "class", Str("benign"))
	}
	rows := a.RowKeys()
	if !sort.StringsAreSorted(rows) || len(rows) != 3 {
		t.Errorf("RowKeys = %v", rows)
	}
	cols := a.ColKeys()
	if !sort.StringsAreSorted(cols) || len(cols) != 2 {
		t.Errorf("ColKeys = %v", cols)
	}
}

func TestIterateSortedAndEarlyStop(t *testing.T) {
	a := New()
	a.Set("b", "x", Num(1))
	a.Set("a", "y", Num(2))
	a.Set("a", "x", Num(3))
	var visits []string
	a.Iterate(func(r, c string, _ Value) bool {
		visits = append(visits, r+"/"+c)
		return true
	})
	want := []string{"a/x", "a/y", "b/x"}
	if strings.Join(visits, ",") != strings.Join(want, ",") {
		t.Errorf("iterate order = %v, want %v", visits, want)
	}
	n := 0
	a.Iterate(func(string, string, Value) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestTSVRoundTrip(t *testing.T) {
	a := New()
	a.Set("1.2.3.4", "packets", Num(12345))
	a.Set("1.2.3.4", "classification", Str("malicious"))
	a.Set("5.6.7.8", "tags", Str("mirai,telnet"))
	a.Set("5.6.7.8", "first_seen", Str("2020-06-17"))
	a.Set("9.9.9.9", "score", Num(0.25))

	var buf bytes.Buffer
	if err := a.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NNZ() != a.NNZ() {
		t.Fatalf("round trip NNZ %d != %d", back.NNZ(), a.NNZ())
	}
	a.Iterate(func(r, c string, v Value) bool {
		got, ok := back.Get(r, c)
		if !ok || got != v {
			t.Errorf("cell (%s,%s): got %v ok=%v, want %v", r, c, got, ok, v)
		}
		return true
	})
}

func TestTSVRejectsBadKeys(t *testing.T) {
	a := New()
	a.Set("bad\tkey", "c", Num(1))
	if err := a.WriteTSV(&bytes.Buffer{}); err == nil {
		t.Error("tab in key accepted")
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := []string{
		"onlyonefield\n",
		"r\tc\tn\tnotanumber\n",
		"r\tc\tq\tvalue\n",
	}
	for _, in := range cases {
		if _, err := ReadTSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadTSV(%q) succeeded, want error", in)
		}
	}
	// blank lines are fine
	a, err := ReadTSV(strings.NewReader("\nr\tc\tn\t1\n\n"))
	if err != nil || a.NNZ() != 1 {
		t.Errorf("blank-line handling: %v, nnz=%d", err, a.NNZ())
	}
}

func TestStringSummary(t *testing.T) {
	a := New()
	a.Set("r", "c", Num(1))
	if got := a.String(); got != "assoc.Assoc{rows: 1, cols: 1, nnz: 1}" {
		t.Errorf("String() = %q", got)
	}
}

// TestRowKeysCache proves RowKeys is cached between calls and
// invalidated exactly when the row set changes: a new row, a row's last
// cell deleted, or a row re-added after deletion.
// TestRowsVisitsEachRowOnce: Rows yields every row once with all its
// cells, stops when told to, and leaves the sorted-key cache unbuilt.
func TestRowsVisitsEachRowOnce(t *testing.T) {
	a := New()
	a.Set("b", "x", Num(1))
	a.Set("a", "y", Num(2))
	a.Set("a", "x", Num(3))
	got := make(map[string][]string)
	for row, cells := range a.Rows() {
		if _, twice := got[row]; twice {
			t.Fatalf("row %q visited twice", row)
		}
		for e := range cells.All() {
			got[row] = append(got[row], e.Key+"="+e.Val.String())
		}
	}
	if want := map[string][]string{"a": {"x=3", "y=2"}, "b": {"x=1"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("Rows = %v, want %v", got, want)
	}
	n := 0
	for range a.Rows() {
		n++
		break
	}
	if n != 1 {
		t.Errorf("early stop visited %d", n)
	}
	if a.rowKeys.Load() != nil {
		t.Error("Rows built the sorted row-key cache")
	}
}

func TestRowKeysCache(t *testing.T) {
	a := New()
	a.Set("b", "c1", Num(1))
	a.Set("a", "c1", Num(1))
	k1 := a.RowKeys()
	if want := []string{"a", "b"}; !reflect.DeepEqual(k1, want) {
		t.Fatalf("RowKeys = %v, want %v", k1, want)
	}
	// Same-row mutations must not invalidate: the cached slice is reused.
	a.Set("a", "c2", Num(2))
	a.Set("b", "c1", Num(2))
	a.Delete("a", "c2")
	k2 := a.RowKeys()
	if &k1[0] != &k2[0] {
		t.Error("cache rebuilt on a mutation that did not change the row set")
	}
	// A new row invalidates.
	a.Set("c", "c1", Num(1))
	if got, want := a.RowKeys(), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after new row: RowKeys = %v, want %v", got, want)
	}
	// Deleting a row's last cell invalidates.
	a.Delete("b", "c1")
	if got, want := a.RowKeys(), []string{"a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after row removal: RowKeys = %v, want %v", got, want)
	}
	// Re-adding the row invalidates again.
	a.Set("b", "c9", Str("x"))
	if got, want := a.RowKeys(), []string{"a", "b", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after re-add: RowKeys = %v, want %v", got, want)
	}
	// Empty array caches an empty (non-nil is irrelevant, just correct) slice.
	e := New()
	if got := e.RowKeys(); len(got) != 0 {
		t.Fatalf("empty RowKeys = %v", got)
	}
}

func BenchmarkRowKeysCached(b *testing.B) {
	a := New()
	for i := 0; i < 1<<14; i++ {
		a.Set(strconv.Itoa(i), "c", Num(1))
	}
	a.RowKeys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.RowKeys()
	}
}

// TestRowKeysConcurrentReaders holds the reader guarantee under -race:
// the lazy sorted-keys cache must not turn concurrent read-only use of
// one Assoc (first RowKeys calls included) into a data race.
func TestRowKeysConcurrentReaders(t *testing.T) {
	a := New()
	for i := 0; i < 1000; i++ {
		a.Set(strconv.Itoa(i), "c", Num(float64(i)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				keys := a.RowKeys()
				if len(keys) != 1000 {
					t.Errorf("RowKeys len = %d", len(keys))
					return
				}
				if !a.HasRow(keys[i]) {
					t.Errorf("cached key %q missing", keys[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
