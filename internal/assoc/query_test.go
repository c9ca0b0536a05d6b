package assoc

import (
	"strconv"
	"testing"
)

func queryFixture() *Assoc {
	a := New()
	for i := 0; i < 20; i++ {
		row := "ip" + strconv.Itoa(i)
		a.Set(row, "packets", Num(float64(i*10)))
		class := "scanner"
		if i%3 == 0 {
			class = "worm"
		}
		a.Set(row, "class", Str(class))
	}
	a.Set("labelled-only", "class", Str("backscatter"))
	a.Set("string-packets", "packets", Str("not-a-number"))
	return a
}

func TestTopKByColumn(t *testing.T) {
	a := queryFixture()
	top := a.TopKByColumn("packets", 3)
	if len(top) != 3 {
		t.Fatalf("top = %v", top)
	}
	if top[0].Row != "ip19" || top[0].Value != 190 {
		t.Errorf("top[0] = %v", top[0])
	}
	if top[1].Value != 180 || top[2].Value != 170 {
		t.Errorf("top = %v", top)
	}
	// k larger than available rows.
	all := a.TopKByColumn("packets", 100)
	if len(all) != 20 { // string-packets row skipped
		t.Errorf("full top has %d rows, want 20", len(all))
	}
	if got := a.TopKByColumn("absent", 5); len(got) != 0 {
		t.Errorf("absent column top = %v", got)
	}
}

func TestTopKTieBreak(t *testing.T) {
	a := New()
	a.Set("b", "v", Num(1))
	a.Set("a", "v", Num(1))
	top := a.TopKByColumn("v", 2)
	if top[0].Row != "a" || top[1].Row != "b" {
		t.Errorf("tie break order = %v", top)
	}
}
