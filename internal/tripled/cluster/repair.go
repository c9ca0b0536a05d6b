package cluster

// repair.go is the anti-entropy rejoin path that lifts the client's
// permanent fail-stop restriction: a member marked down is reprobed,
// resynchronized from its healthy replicas via the RESYNC digest
// protocol, and restored to the read/write set.
//
// The digest exchange keeps the repair proportional to the damage,
// not to the table: per-row digests from the healthy members (filtered
// to rows whose replica set includes the returning node) compose into
// expected bucket digests; buckets where the returning node already
// agrees are pruned in one round trip, and only the differing buckets
// are diffed row by row. Rows missing or divergent on the returning
// node are copied whole from a healthy holder (rows are the atomic
// repair unit — every replica holds a row completely); rows present
// on the returning node that no healthy replica vouches for (writes it
// took that later failed, or a prefix clear it missed) are
// removed. Healthy replicas are authoritative by construction: writes
// only ack against the up set, so the up set's state is exactly the
// acked history. A repair speaks three verbs: RESYNC for the digests,
// one-row CELLS pages to read a row, and BATCH to rewrite it.

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/tripled"
)

// repairBuckets is the digest partition width of a repair: wide enough
// that an undamaged table prunes almost everything, small enough that
// the DIGEST exchange is one short block.
const repairBuckets = 64

// Repair reprobes every member marked down and resynchronizes each one
// from its healthy replicas, returning the addresses restored. Members
// that cannot be reached or resynced stay down (their error is
// collected, repair of the others continues). With Replicas or more
// members down some row may have lost every copy and no authoritative
// state exists — that fails immediately with ErrStaleRing.
func (c *Client) Repair() ([]string, error) {
	if c.downCount() == 0 {
		return nil, nil
	}
	if c.downCount() >= c.cfg.Replicas {
		return nil, c.staleErr("repair")
	}
	var repaired []string
	var firstErr error
	for i, n := range c.nodes {
		if !n.down {
			continue
		}
		if err := c.repairNode(i); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: repair %s: %w", n.addr, err)
			}
			continue
		}
		n.down = false
		n.err = nil
		c.repairs++
		repaired = append(repaired, n.addr)
	}
	return repaired, firstErr
}

// repairNode resynchronizes one down member. On success the probe
// connection becomes the node's live connection; the caller flips the
// health bit.
func (c *Client) repairNode(i int) error {
	n := c.nodes[i]
	target, err := tripled.Dial(n.addr, tripled.WithIOTimeout(c.cfg.IOTimeout))
	if err != nil {
		return err
	}
	adopted := false
	defer func() {
		if !adopted {
			target.Close()
		}
	}()

	// Expected state of node i: every row whose replica set includes i,
	// with its digest and a healthy member to copy it from. Replicas are
	// written in lockstep, so whichever healthy holder reports a row
	// reports the same digest.
	type expectedRow struct {
		dig    tripled.RowDigestEntry
		holder int
	}
	expected := make(map[string]expectedRow)
	for j, nj := range c.nodes {
		if nj.down || j == i {
			continue
		}
		var rds []tripled.RowDigestEntry
		err := c.onNode(j, func(cl *tripled.Client) error {
			var e error
			rds, e = cl.RowDigests(repairBuckets, -1)
			return e
		})
		if err != nil {
			if tripled.Retryable(err) {
				continue // j just died; the guard below decides if that is fatal
			}
			return err
		}
		for _, rd := range rds {
			for _, r := range c.ring.replicasFor(rd.Row, c.cfg.Replicas) {
				if r == i {
					expected[rd.Row] = expectedRow{dig: rd, holder: j}
					break
				}
			}
		}
	}
	if c.downCount() >= c.cfg.Replicas {
		return c.staleErr("repair")
	}

	expBuckets := make([]tripled.BucketDigest, repairBuckets)
	for row, e := range expected {
		b := tripled.DigestBucket(row, repairBuckets)
		expBuckets[b].Count += e.dig.Count
		expBuckets[b].Sum += e.dig.Sum
	}
	gotBuckets, err := target.BucketDigests(repairBuckets)
	if err != nil {
		return err
	}
	for b := 0; b < repairBuckets; b++ {
		if gotBuckets[b] == expBuckets[b] {
			continue // bucket already in sync, nothing to stream
		}
		gotRows, err := target.RowDigests(repairBuckets, b)
		if err != nil {
			return err
		}
		got := make(map[string]tripled.RowDigestEntry, len(gotRows))
		for _, rd := range gotRows {
			got[rd.Row] = rd
		}
		for row, e := range expected {
			if tripled.DigestBucket(row, repairBuckets) != b {
				continue
			}
			if g, ok := got[row]; ok && g.Count == e.dig.Count && g.Sum == e.dig.Sum {
				continue
			}
			if err := c.copyRow(row, e.holder, target); err != nil {
				return err
			}
		}
		for row := range got {
			if _, ok := expected[row]; ok {
				continue
			}
			if err := replaceRow(target, row, nil); err != nil {
				return err
			}
		}
	}
	if n.c != nil {
		n.c.Close()
	}
	n.c = target
	adopted = true
	return nil
}

// copyRow makes target's copy of row identical to the healthy holder's.
func (c *Client) copyRow(row string, holder int, target *tripled.Client) error {
	var want []tripled.Cell
	if err := c.onNode(holder, func(cl *tripled.Client) (err error) {
		want, err = cl.RowCells(row)
		return err
	}); err != nil {
		return err
	}
	return replaceRow(target, row, want)
}

// replaceRow makes target's row hold exactly want, cells of that row in
// column order — none removes the row — in one BATCH: the columns
// target holds and want lacks are deleted, then want is written.
func replaceRow(target *tripled.Client, row string, want []tripled.Cell) error {
	have, err := target.RowCells(row)
	if err != nil {
		return err
	}
	p := target.StartPipeline(len(have) + len(want))
	for _, h := range have {
		if _, kept := slices.BinarySearchFunc(want, h.Col, func(w tripled.Cell, col string) int {
			return strings.Compare(w.Col, col)
		}); !kept {
			p.Delete(row, h.Col)
		}
	}
	for _, w := range want {
		p.Put(row, w.Col, w.Val)
	}
	return p.Close()
}
