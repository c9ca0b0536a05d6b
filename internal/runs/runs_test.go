package runs

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// check verifies the block invariants and returns the run's entries in
// walk order.
func check[V any](t *testing.T, r Run[V]) []Entry[V] {
	t.Helper()
	var all []Entry[V]
	for b, blk := range r.blocks {
		if len(blk) == 0 || len(blk) > blockLen {
			t.Fatalf("block %d holds %d entries", b, len(blk))
		}
		all = append(all, blk...)
	}
	if !IsAscending(all) {
		t.Fatalf("run of %d entries is not strictly ascending", len(all))
	}
	if r.Len() != len(all) {
		t.Fatalf("Len = %d, walk %d", r.Len(), len(all))
	}
	if (r.NumBlocks() == 0) != (len(all) == 0) {
		t.Fatalf("NumBlocks = %d with %d entries", r.NumBlocks(), len(all))
	}
	return all
}

// walk returns the keys a cursor seeked to (key, strict) meets, to the
// end of the run.
func walk[V any](r Run[V], key string, strict bool) []string {
	var out []string
	for c := r.Seek(key, strict); c.Head() != nil; c.Next() {
		out = append(out, c.Head().Key)
	}
	return out
}

// TestRunMatchesMapOracle drives random Put/Delete/Get, over a key
// space small enough to collide and large enough to split blocks many
// times, against a map and its sorted keys. As the run grows through
// block splits and drains through emptied blocks, cursors seeked at,
// between, before and past its keys, strict and not, must walk exactly
// the tail of the model's sorted keys, each entry carrying its value.
func TestRunMatchesMapOracle(t *testing.T) {
	for _, space := range []int{8, 300, 5000} {
		t.Run(fmt.Sprint("keys=", space), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(space)))
			var r Run[int]
			model := make(map[string]int)
			for step := 0; step < 6*space+2000; step++ {
				key := fmt.Sprintf("k%05d", rng.Intn(space))
				// Grow first, then drain: deletes outnumber puts late on.
				del := rng.Intn(6*space+2000) < step/2
				if del {
					got, ok := r.Delete(key)
					want, wok := model[key]
					if ok != wok || got != want {
						t.Fatalf("step %d: Delete(%q) = %d,%v want %d,%v", step, key, got, ok, want, wok)
					}
					delete(model, key)
				} else {
					e, added := r.Put(key)
					if _, had := model[key]; added == had {
						t.Fatalf("step %d: Put(%q) added=%v, model had=%v", step, key, added, had)
					}
					if e.Key != key || (!added && e.Val != model[key]) {
						t.Fatalf("step %d: Put(%q) returned entry %+v, model %d", step, key, *e, model[key])
					}
					e.Val = step
					model[key] = step
				}
				if step%97 != 0 {
					continue
				}
				all := check(t, r)
				if len(all) != len(model) {
					t.Fatalf("step %d: run holds %d entries, model %d", step, len(all), len(model))
				}
				for _, e := range all {
					if got := r.Get(e.Key); got == nil || got.Val != model[e.Key] {
						t.Fatalf("step %d: Get(%q) = %v, model %d", step, e.Key, got, model[e.Key])
					}
				}
				if r.Get("k") != nil || r.Get("zzz") != nil || r.Get("k00000x") != nil {
					t.Fatalf("step %d: Get of an absent key found an entry", step)
				}
				sorted := make([]string, 0, len(model))
				for k := range model {
					sorted = append(sorted, k)
				}
				sort.Strings(sorted)
				seeks := []string{"", "k", "zzz", fmt.Sprintf("k%05d", rng.Intn(space)), fmt.Sprintf("k%05dx", rng.Intn(space))}
				if len(sorted) > 0 {
					seeks = append(seeks, sorted[0], sorted[len(sorted)-1], sorted[rng.Intn(len(sorted))])
				}
				for _, at := range seeks {
					for _, strict := range []bool{false, true} {
						from := sort.SearchStrings(sorted, at)
						if strict && from < len(sorted) && sorted[from] == at {
							from++
						}
						if got := walk(r, at, strict); !slices.Equal(got, sorted[from:]) {
							t.Fatalf("step %d: cursor from (%q, strict=%v) walked %d keys, model %d", step, at, strict, len(got), len(sorted)-from)
						}
						if c := r.Seek(at, strict); c.Head() != nil && c.Head().Val != model[c.Head().Key] {
							t.Fatalf("step %d: cursor head %+v, model %d", step, *c.Head(), model[c.Head().Key])
						}
					}
				}
			}
		})
	}
}

// TestCursorWalksFromEveryBound checks the cursor against a filter of
// the sorted keys, across block boundaries and every shape of bound, and
// that an entry's value can be written through it.
func TestCursorWalksFromEveryBound(t *testing.T) {
	var r Run[int]
	var keys []string
	for i := 0; i < 3*blockLen+7; i++ {
		k := fmt.Sprintf("r%04d", 2*i)
		keys = append(keys, k)
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(keys)) {
		r.Put(keys[i])
	}
	check(t, r)
	bounds := []string{"", "r", "r0000", "r0001", "r0254", "r0255", "r0256", "r0510", keys[len(keys)-1], "r9999", "s"}
	for _, lo := range bounds {
		for _, strict := range []bool{false, true} {
			var want []string
			for _, k := range keys {
				if k > lo || (!strict && k == lo) {
					want = append(want, k)
				}
			}
			if got := walk(r, lo, strict); !slices.Equal(got, want) {
				t.Fatalf("cursor from (lo=%q strict=%v) walked %d keys, want %d", lo, strict, len(got), len(want))
			}
		}
	}
	if c := (Run[int]{}).Seek("", false); c.Head() != nil {
		t.Fatal("a cursor into the empty run has a head")
	}
	n := 0
	for c := r.Seek("", false); c.Head() != nil; c.Next() {
		c.Head().Val = n
		n++
	}
	for i, e := range check(t, r) {
		if e.Val != i {
			t.Fatalf("entry %d holds %d after the writing walk", i, e.Val)
		}
	}
}

// TestOfTakesTheSliceAndSplitsWideRuns: a narrow run is the caller's
// slice, a wide one is cut into blocks that can each grow without
// touching the next.
func TestOfTakesTheSliceAndSplitsWideRuns(t *testing.T) {
	if r := Of[int](nil); r.NumBlocks() != 0 || r.Len() != 0 {
		t.Fatalf("Of(nil) = %d blocks", r.NumBlocks())
	}
	narrow := []Entry[int]{{Key: "a", Val: 1}, {Key: "b", Val: 2}}
	r := Of(narrow)
	if r.NumBlocks() != 1 || &r.blocks[0][0] != &narrow[0] {
		t.Fatal("a narrow run was copied")
	}
	wide := make([]Entry[int], 2*blockLen+5)
	for i := range wide {
		wide[i] = Entry[int]{Key: fmt.Sprintf("c%04d", 2*i), Val: i}
	}
	r = Of(slices.Clone(wide))
	if got := check(t, r); !slices.Equal(got, wide) {
		t.Fatal("a wide run does not hold its entries in order")
	}
	// Inserts into the middle of every block leave every other entry alone.
	for b := 0; b < 3; b++ {
		e, added := r.Put(fmt.Sprintf("c%04d", 2*(b*blockLen+3)+1))
		if !added {
			t.Fatal("odd key already present")
		}
		e.Val = -1
	}
	got := check(t, r)
	if len(got) != len(wide)+3 {
		t.Fatalf("run holds %d entries, want %d", len(got), len(wide)+3)
	}
	for _, e := range wide {
		if g := r.Get(e.Key); g == nil || g.Val != e.Val {
			t.Fatalf("entry %q disturbed by a neighbouring insert", e.Key)
		}
	}
}

func TestIsAscending(t *testing.T) {
	e := func(keys ...string) []Entry[int] {
		out := make([]Entry[int], len(keys))
		for i, k := range keys {
			out[i].Key = k
		}
		return out
	}
	for _, ok := range [][]Entry[int]{nil, e("a"), e("a", "b", "c"), e("", "a")} {
		if !IsAscending(ok) {
			t.Errorf("IsAscending(%v) = false", ok)
		}
	}
	for _, bad := range [][]Entry[int]{e("b", "a"), e("a", "a"), e("a", "c", "b")} {
		if IsAscending(bad) {
			t.Errorf("IsAscending(%v) = true", bad)
		}
	}
}

// TestAscendingLoadFillsBlocks: keys arriving in order — a table being
// published — append without splitting, so blocks end up full.
func TestAscendingLoadFillsBlocks(t *testing.T) {
	var r Run[struct{}]
	const n = 10*blockLen + 1
	for i := 0; i < n; i++ {
		if _, added := r.Put(fmt.Sprintf("%06d", i)); !added {
			t.Fatal("fresh key reported present")
		}
	}
	check(t, r)
	if r.NumBlocks() != 11 {
		t.Errorf("ascending load of %d keys made %d blocks, want 11 full ones", n, r.NumBlocks())
	}
}

// TestCopiesShareUntilNumBlocksChanges pins the header contract a
// by-value holder relies on.
func TestCopiesShareUntilNumBlocksChanges(t *testing.T) {
	var r Run[int]
	r.Put("a")
	kept := r // a holder's copy
	for i := 0; i < blockLen-1; i++ {
		e, _ := r.Put(fmt.Sprintf("b%03d", i))
		e.Val = i
		if r.NumBlocks() != kept.NumBlocks() {
			t.Fatalf("put %d changed NumBlocks before the block filled", i)
		}
		if kept.Len() != r.Len() || kept.Get(e.Key) == nil {
			t.Fatalf("put %d not visible through the copy", i)
		}
	}
	r.Put("b0000") // a middle insert into the full block: it splits
	if r.NumBlocks() == kept.NumBlocks() {
		t.Fatal("split did not change NumBlocks")
	}
}

// TestWideRunInsertIsLogarithmic: 200k keys in random order finish in
// time that only a per-key cost independent of the run's width allows;
// a flat sorted slice would move ~6 GB.
func TestWideRunInsertIsLogarithmic(t *testing.T) {
	if testing.Short() {
		t.Skip("200k inserts")
	}
	const n = 200_000
	var r Run[int]
	for _, i := range rand.New(rand.NewSource(7)).Perm(n) {
		e, _ := r.Put(fmt.Sprintf("col%06d", i))
		e.Val = i
	}
	all := check(t, r)
	if len(all) != n || !sort.SliceIsSorted(all, func(i, j int) bool { return all[i].Key < all[j].Key }) {
		t.Fatalf("run holds %d entries", len(all))
	}
	if nb := r.NumBlocks(); nb > 2*n/(blockLen/2) {
		t.Errorf("%d keys spread over %d blocks: blocks under half full", n, nb)
	}
}

// TestCutRunsAreIndependentNeighbours: runs cut from one slab hold what
// Of would have given each cut, on two allocations in all, and then
// behave as runs of their own — random Put and Delete on every one of
// them, narrow and wider than a block, against a map each, with every
// other run checked after every step.
func TestCutRunsAreIndependentNeighbours(t *testing.T) {
	widths := []int{6, 1, 0, blockLen, 2*blockLen + 5, 6, blockLen + 1, 1}
	var slab []Entry[int]
	var ends []int
	models := make([]map[string]int, len(widths))
	for i, w := range widths {
		models[i] = make(map[string]int)
		for j := 0; j < w; j++ {
			key := fmt.Sprintf("k%05d", 2*j)
			slab = append(slab, Entry[int]{Key: key, Val: 1000*i + j})
			models[i][key] = 1000*i + j
		}
		ends = append(ends, len(slab))
	}
	if n := testing.AllocsPerRun(5, func() {
		for range Cut(slab, ends) {
		}
	}); n > 1 {
		t.Errorf("Cut of %d runs allocates %v times, want the one header slab", len(ends), n)
	}
	verify := func(what string, rs []Run[int]) {
		t.Helper()
		for i, r := range rs {
			got := check(t, r)
			if len(got) != len(models[i]) {
				t.Fatalf("%s: run %d holds %d entries, model %d", what, i, len(got), len(models[i]))
			}
			for _, e := range got {
				if v, ok := models[i][e.Key]; !ok || v != e.Val {
					t.Fatalf("%s: run %d holds %q=%d, model %d,%v", what, i, e.Key, e.Val, v, ok)
				}
			}
		}
	}
	var rs []Run[int]
	for i, r := range Cut(slab, ends) {
		if i != len(rs) {
			t.Fatalf("Cut yielded run %d after %d runs", i, len(rs))
		}
		rs = append(rs, r)
	}
	if len(rs) != len(widths) {
		t.Fatalf("Cut yielded %d runs for %d ends", len(rs), len(widths))
	}
	verify("as cut", rs)
	if &rs[0].blocks[0][0] != &slab[0] || &rs[1].blocks[0][0] != &slab[widths[0]] {
		t.Fatal("the cuts are not the slab itself")
	}
	for i, r := range rs {
		if cap(r.blocks) != len(r.blocks) {
			t.Fatalf("run %d: %d block headers in room for %d", i, len(r.blocks), cap(r.blocks))
		}
		for b, blk := range r.blocks {
			if cap(blk) != len(blk) {
				t.Fatalf("run %d block %d: %d entries in room for %d", i, b, len(blk), cap(blk))
			}
		}
	}

	rng := rand.New(rand.NewSource(20))
	for step := 0; step < 20000; step++ {
		i := rng.Intn(len(rs))
		key := fmt.Sprintf("k%05d", rng.Intn(3*blockLen*2))
		what := fmt.Sprintf("step %d: run %d %q", step, i, key)
		if rng.Intn(3) == 0 {
			got, ok := rs[i].Delete(key)
			if want, wok := models[i][key]; ok != wok || got != want {
				t.Fatalf("%s: Delete = %d,%v want %d,%v", what, got, ok, want, wok)
			}
			delete(models[i], key)
		} else {
			e, added := rs[i].Put(key)
			if _, had := models[i][key]; added == had {
				t.Fatalf("%s: Put added=%v, model had=%v", what, added, had)
			}
			e.Val = step
			models[i][key] = step
		}
		if step%97 == 0 || step < 200 {
			verify(what, rs)
		}
	}
	verify("at the end", rs)
}

// TestRangeBeforeRunFillsBlocks: two months published into one store's
// row index, the later month first — an ascending range, then a second
// ascending range that sorts entirely before it. Each key of the second
// range lands between two blocks, and the blocks it fills must end up
// as full as an ascending load leaves them, not half full.
func TestRangeBeforeRunFillsBlocks(t *testing.T) {
	const n = 20 * blockLen
	var r Run[int]
	for _, month := range []string{"m02/", "m01/"} {
		for i := 0; i < n; i++ {
			if _, added := r.Put(fmt.Sprintf("%s%06d", month, i)); !added {
				t.Fatal("fresh key reported present")
			}
		}
	}
	if all := check(t, r); len(all) != 2*n {
		t.Fatalf("run holds %d entries, want %d", len(all), 2*n)
	}
	if fill := float64(2*n) / float64(r.NumBlocks()*blockLen); fill < 0.75 {
		t.Errorf("%d keys over %d blocks: mean block fill %.2f, want at least 0.75", 2*n, r.NumBlocks(), fill)
	}
}

// FuzzRunMatchesMapOracle reads its input as a script over three runs
// cut from one slab: the first byte sets how wide the cuts are, then
// each op picks a run, Put or Delete, one key or an ascending range of
// up to 256, on short keys or long ones sharing a 48-byte prefix — so
// blocks fill, split where keys go, empty and refill in any order.
// After every op every run must hold exactly its map's entries, in key
// order, with check's block invariants; a run that grows, splits or
// empties must never write into a neighbour's entries, which its map
// would then disagree with.
func FuzzRunMatchesMapOracle(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{7, 0, 10, 200, 1, 2, 10, 200, 4, 0, 3, 5})
	f.Add([]byte{255, 2, 0, 0, 255, 2, 1, 128, 255, 6, 0, 0, 200, 0, 1, 128, 1})
	f.Add([]byte{130, 8, 0, 1, 0, 10, 0, 90, 255, 14, 3, 0, 40, 9, 0, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// Cut widths 0..2*blockLen+4: empty, narrow, one full block, wider.
		widths := []int{int(data[0]) % (2*blockLen + 5), int(data[0]) % 7, int(data[0]) * 3 % (blockLen + 3)}
		data = data[1:]
		key := func(long bool, k int) string {
			if long {
				return fmt.Sprintf("%048d/%04d", 0, k)
			}
			return fmt.Sprintf("%04d", k)
		}
		var slab []Entry[int]
		var ends []int
		models := make([]map[string]int, len(widths))
		for i, w := range widths {
			models[i] = make(map[string]int)
			for j := 0; j < w; j++ {
				k := key(i == 1, 4*j+i)
				slab = append(slab, Entry[int]{Key: k, Val: -1 - j})
				models[i][k] = -1 - j
			}
			ends = append(ends, len(slab))
		}
		var rs []Run[int]
		for _, r := range Cut(slab, ends) {
			rs = append(rs, r)
		}
		verify := func(step int) {
			t.Helper()
			for i, r := range rs {
				all := check(t, r)
				want := sortedKeys(models[i])
				if len(all) != len(want) {
					t.Fatalf("op %d: run %d holds %d entries, map %d", step, i, len(all), len(want))
				}
				for j, e := range all {
					if e.Key != want[j] || e.Val != models[i][e.Key] {
						t.Fatalf("op %d: run %d entry %d is %q=%d, map %q=%d", step, i, j, e.Key, e.Val, want[j], models[i][want[j]])
					}
				}
			}
		}
		verify(-1)
		// An op is four bytes: flags, a range length and a 10-bit key.
		for step := 0; len(data) >= 4; step, data = step+1, data[4:] {
			flags, n := data[0], int(data[1])+1
			i, del, long := int(flags)%len(rs), flags&4 != 0, flags&8 != 0
			if flags&16 == 0 {
				n = 1
			}
			k := (int(data[2])<<8 | int(data[3])) % 1024
			for j := 0; j < n; j++ {
				kk := key(long, k+j)
				if del {
					got, ok := rs[i].Delete(kk)
					want, had := models[i][kk]
					if ok != had || got != want {
						t.Fatalf("op %d: run %d Delete(%q) = %d,%v, map %d,%v", step, i, kk, got, ok, want, had)
					}
					delete(models[i], kk)
					continue
				}
				e, added := rs[i].Put(kk)
				if _, had := models[i][kk]; added == had || e.Key != kk {
					t.Fatalf("op %d: run %d Put(%q) = %q added=%v, map had=%v", step, i, kk, e.Key, added, had)
				}
				e.Val = step
				models[i][kk] = step
			}
			verify(step)
		}
	})
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
