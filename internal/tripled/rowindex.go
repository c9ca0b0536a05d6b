package tripled

import (
	"slices"
	"sort"
)

// indexBlock caps a rowIndex block: small enough that an insert's
// memmove stays in cache, large enough that a million keys are a few
// thousand blocks.
const indexBlock = 256

// rowIndex is a stripe's ordered set of row keys, a blocked sorted
// array: blocks are non-empty, sorted, at most indexBlock long, and
// every key of one block sorts before every key of the next. A lookup
// is a binary search to the block and then inside it; an insert or
// remove shifts keys within one block only. A full block splits in
// half; a block is dropped when its last key goes (sparse blocks are
// not merged — they refill as keys return). The owning stripe's lock
// guards it.
type rowIndex struct {
	blocks [][]string
}

// seek returns the position (block, offset) of the first key >= key,
// or > key when strict. Past the last key it returns (len(blocks), 0).
func (x *rowIndex) seek(key string, strict bool) (int, int) {
	after := func(k string) bool {
		if strict {
			return k > key
		}
		return k >= key
	}
	b := sort.Search(len(x.blocks), func(b int) bool {
		blk := x.blocks[b]
		return after(blk[len(blk)-1])
	})
	if b == len(x.blocks) {
		return b, 0
	}
	blk := x.blocks[b]
	return b, sort.Search(len(blk), func(i int) bool { return after(blk[i]) })
}

// insert adds a key the index does not hold.
func (x *rowIndex) insert(key string) {
	b, i := x.seek(key, false)
	if b == len(x.blocks) {
		if b == 0 {
			x.blocks = append(x.blocks, make([]string, 0, indexBlock+1))
		} else {
			b-- // past every key: extend the last block
		}
		i = len(x.blocks[b])
	}
	blk := slices.Insert(x.blocks[b], i, key)
	if len(blk) > indexBlock {
		half := len(blk) / 2
		right := append(make([]string, 0, indexBlock+1), blk[half:]...)
		clear(blk[half:])
		blk = blk[:half]
		x.blocks = slices.Insert(x.blocks, b+1, right)
	}
	x.blocks[b] = blk
}

// remove drops a key the index holds.
func (x *rowIndex) remove(key string) {
	b, i := x.seek(key, false)
	blk := slices.Delete(x.blocks[b], i, i+1)
	if len(blk) == 0 {
		x.blocks = slices.Delete(x.blocks, b, b+1)
		return
	}
	x.blocks[b] = blk
}

// appendRange appends to dst, in order, the keys from the first one
// >= lo (> lo when strict) up to but excluding end (empty end =
// unbounded), at most n of them (n < 0 = all).
func (x *rowIndex) appendRange(dst []string, lo string, strict bool, end string, n int) []string {
	b, i := x.seek(lo, strict)
	for ; b < len(x.blocks); b, i = b+1, 0 {
		for _, k := range x.blocks[b][i:] {
			if n == 0 || (end != "" && k >= end) {
				return dst
			}
			dst = append(dst, k)
			n--
		}
	}
	return dst
}
