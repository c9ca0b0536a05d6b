// Package runs is the one ordered container of the table path: a run is
// a set of string-keyed entries held in key order, no key twice. A row
// of an associative array is a run of its cells keyed by column
// (internal/assoc, and the tripled store's rows); the store's row index
// is a run of its row keys with the rows themselves hanging off them,
// read in order through a Cursor.
//
// A run is a blocked sorted array: blocks are non-empty, sorted, at most
// blockLen long, and every key of one block sorts before every key of
// the next. A lookup is a binary search to the block and then inside
// it; an insert or delete shifts entries within one block only, so a
// run built key by key in any order costs O(log n) per key however wide
// it grows. A key that sorts between two blocks goes to the end of the
// left one while it has room, and a full block splits where the key
// goes: the key ends the left part and the entries after it move to a
// block of their own. So keys arriving in ascending ranges — past the
// last key, or between two keys, the ranges in any order (two months
// published into one index) — fill each block before the next opens:
// every block is full but those at a range's two ends, and no entry
// shifts unless a range starts inside a block. Keys in random order
// leave blocks about half full (splitting in half left them about 69 %
// full); a split only promises that its two blocks hold blockLen+1
// entries between them. A block is dropped when its last entry goes
// (sparse blocks are not merged — they refill as keys return). The
// typical row — a handful of cells — is one small block.
package runs

import (
	"iter"
	"slices"
)

// blockLen caps a block: small enough that an insert's memmove stays in
// cache, large enough that a million keys are a few thousand blocks.
const blockLen = 128

// Entry is one key of a run and what hangs off it. Val comes first so
// that an Entry[struct{}] — a bare key — is exactly a string.
type Entry[V any] struct {
	Val V
	Key string
}

// Run is an ordered set of entries. The zero value is an empty run.
//
// A Run is a header over shared blocks, like a slice: a copy sees every
// mutation made through another copy until one changes NumBlocks, so
// whoever keeps a Run by value (a map, say) stores it back then.
type Run[V any] struct {
	blocks [][]Entry[V]
}

// IsAscending reports whether the entries are in strictly ascending key
// order — what Of requires of its argument.
func IsAscending[V any](es []Entry[V]) bool {
	for i := 1; i < len(es); i++ {
		if es[i-1].Key >= es[i].Key {
			return false
		}
	}
	return true
}

// Of returns the run holding exactly the given entries, which must be
// strictly ascending (IsAscending). It takes ownership of the slice: a
// run no wider than a block is the slice itself, with no copy.
func Of[V any](sorted []Entry[V]) Run[V] {
	if len(sorted) == 0 {
		return Run[V]{}
	}
	blocks := make([][]Entry[V], 0, (len(sorted)+blockLen-1)/blockLen)
	for len(sorted) > blockLen {
		// Capacity capped so a block's growth never runs into its neighbour.
		blocks = append(blocks, sorted[:blockLen:blockLen])
		sorted = sorted[blockLen:]
	}
	return Run[V]{blocks: append(blocks, sorted)}
}

// Cut is Of for a whole slab of runs at once: run i holds the entries
// slab[ends[i-1]:ends[i]] (from 0 for the first), each cut strictly
// ascending as Of requires, ends non-decreasing and within the slab.
// It takes ownership of the slab and yields the runs in order; all of
// them share the slab as their storage and one allocation as their
// block headers, so n runs cost what one does. Every block's capacity
// is capped at its cut, and every run's header likewise: a run that
// grows, splits or empties reallocates what it needs and never writes
// into a neighbour's entries. The slab is garbage when the last run cut
// from it is. Its two callers are assoc.SetRows (a table built or
// fetched by the slab) and the tripled store (the rows one batch opens).
func Cut[V any](slab []Entry[V], ends []int) iter.Seq2[int, Run[V]] {
	return func(yield func(int, Run[V]) bool) {
		nb, lo := 0, 0
		for _, hi := range ends {
			nb += (hi - lo + blockLen - 1) / blockLen
			lo = hi
		}
		blocks := make([][]Entry[V], 0, nb)
		lo = 0
		for i, hi := range ends {
			first := len(blocks)
			for ; hi-lo > blockLen; lo += blockLen {
				blocks = append(blocks, slab[lo:lo+blockLen:lo+blockLen])
			}
			if lo < hi {
				blocks = append(blocks, slab[lo:hi:hi])
			}
			lo = hi
			if !yield(i, Run[V]{blocks: blocks[first:len(blocks):len(blocks)]}) {
				return
			}
		}
	}
}

// Len returns the number of entries, in O(NumBlocks).
func (r Run[V]) Len() int {
	n := 0
	for _, blk := range r.blocks {
		n += len(blk)
	}
	return n
}

// NumBlocks returns the number of blocks; zero means the run is empty.
func (r Run[V]) NumBlocks() int { return len(r.blocks) }

// All walks the entries in key order. The caller may write an entry's
// Val in place and nothing else, and must not Put or Delete meanwhile.
func (r Run[V]) All() iter.Seq[*Entry[V]] {
	return func(yield func(*Entry[V]) bool) {
		for _, blk := range r.blocks {
			for i := range blk {
				if !yield(&blk[i]) {
					return
				}
			}
		}
	}
}

// before reports whether k sorts before the position seek(key, strict)
// looks for.
func before(k, key string, strict bool) bool {
	if strict {
		return k <= key
	}
	return k < key
}

// seek returns the position (block, offset) of the first key >= key,
// or > key when strict. Past the last key it returns (NumBlocks, 0).
func (r Run[V]) seek(key string, strict bool) (int, int) {
	b, hi := 0, len(r.blocks)
	for b < hi { // the first block whose last key is not before the position
		m := int(uint(b+hi) >> 1)
		if blk := r.blocks[m]; before(blk[len(blk)-1].Key, key, strict) {
			b = m + 1
		} else {
			hi = m
		}
	}
	if b == len(r.blocks) {
		return b, 0
	}
	blk := r.blocks[b]
	i, hi := 0, len(blk)-1 // the last key is known not to be before
	for i < hi {
		m := int(uint(i+hi) >> 1)
		if before(blk[m].Key, key, strict) {
			i = m + 1
		} else {
			hi = m
		}
	}
	return b, i
}

// Get returns the entry under key, or nil. The pointer is good until
// the next Put or Delete.
func (r Run[V]) Get(key string) *Entry[V] {
	b, i := r.seek(key, false)
	if b == len(r.blocks) || r.blocks[b][i].Key != key {
		return nil
	}
	return &r.blocks[b][i]
}

// Put returns the entry under key, inserting one with a zero Val when
// the run has none, and whether it did. The pointer is good until the
// next Put or Delete. A key past the run's last — keys arriving in
// order — is appended without a search.
func (r *Run[V]) Put(key string) (e *Entry[V], added bool) {
	nb := len(r.blocks)
	if nb == 0 {
		r.blocks = [][]Entry[V]{{{Key: key}}}
		return &r.blocks[0][0], true
	}
	if last := r.blocks[nb-1]; key > last[len(last)-1].Key {
		if len(last) == blockLen {
			// Ascending load: a fresh block, not a split, keeps blocks full.
			r.blocks = append(r.blocks, append(make([]Entry[V], 0, blockLen), Entry[V]{Key: key}))
			return &r.blocks[nb][0], true
		}
		r.blocks[nb-1] = append(last, Entry[V]{Key: key})
		return &r.blocks[nb-1][len(last)], true
	}
	b, i := r.seek(key, false) // in range: the key is not past the last
	blk := r.blocks[b]
	if blk[i].Key == key {
		return &blk[i], false
	}
	if i == 0 && b > 0 {
		// Between two blocks: a range arriving in order fills the left one.
		if left := r.blocks[b-1]; len(left) < blockLen {
			r.blocks[b-1] = append(left, Entry[V]{Key: key})
			return &r.blocks[b-1][len(left)], true
		}
	}
	if len(blk) == blockLen {
		// Split where the key goes: it ends the left part (before the
		// first key it is a block of its own), and the entries after it
		// move to a block of their own, which keys following it in order
		// do not touch.
		if i == 0 {
			r.blocks = slices.Insert(r.blocks, b, append(make([]Entry[V], 0, blockLen), Entry[V]{Key: key}))
			return &r.blocks[b][0], true
		}
		right := append(make([]Entry[V], 0, blockLen), blk[i:]...)
		clear(blk[i:])
		blk = append(blk[:i], Entry[V]{Key: key})
		r.blocks[b] = blk
		r.blocks = slices.Insert(r.blocks, b+1, right)
		return &blk[i], true
	}
	blk = slices.Insert(blk, i, Entry[V]{Key: key})
	r.blocks[b] = blk
	return &blk[i], true
}

// Delete removes the entry under key and returns its Val, or false when
// the run has none.
func (r *Run[V]) Delete(key string) (V, bool) {
	b, i := r.seek(key, false)
	if b == len(r.blocks) || r.blocks[b][i].Key != key {
		var zero V
		return zero, false
	}
	v := r.blocks[b][i].Val
	blk := slices.Delete(r.blocks[b], i, i+1)
	if len(blk) == 0 {
		r.blocks = slices.Delete(r.blocks, b, b+1)
	} else {
		r.blocks[b] = blk
	}
	return v, true
}

// Cursor is a position in a run's key order, not a snapshot: a Put or
// Delete on the run invalidates it, so whoever walks one (a store
// reading a page) keeps writers out meanwhile.
type Cursor[V any] struct {
	blocks [][]Entry[V]
	b, i   int
}

// Seek returns a cursor at the first entry whose key is >= key, or > key
// when strict; past the last key it is at the end.
func (r Run[V]) Seek(key string, strict bool) Cursor[V] {
	b, i := r.seek(key, strict)
	return Cursor[V]{blocks: r.blocks, b: b, i: i}
}

// Head returns the entry under the cursor (its Val may be written in
// place, as through All), or nil at the end.
func (c *Cursor[V]) Head() *Entry[V] {
	if c.b == len(c.blocks) {
		return nil
	}
	return &c.blocks[c.b][c.i]
}

// Next moves a cursor that is not at the end to the next entry.
func (c *Cursor[V]) Next() {
	if c.i++; c.i == len(c.blocks[c.b]) {
		c.b, c.i = c.b+1, 0
	}
}
