package tripled

// digest.go is the anti-entropy summary layer behind the RESYNC
// protocol op: order-independent, cross-process-stable digests of the
// store's contents, cheap enough to exchange before any cell moves.
//
// A cell's digest is CRC32C over "row\0col\0marker\0value"; a row's
// digest is the 64-bit sum of its cell digests; a bucket's digest is
// the sum of its rows' digests, where a row's bucket is FNV-1a(row)
// mod the caller-chosen bucket count. Sums compose associatively and
// commutatively, so two replicas holding the same cells report the
// same digests regardless of insertion order, and FNV-1a buckets a row
// key the same way in every process.

import (
	"hash/crc32"

	"repro/internal/assoc"
)

var digestTable = crc32.MakeTable(crc32.Castagnoli)

// BucketDigest summarizes the cells whose rows hash into one bucket.
type BucketDigest struct {
	Count int    // cells in the bucket
	Sum   uint64 // sum of cell digests, mod 2^64
}

// RowDigestEntry summarizes one row's cells.
type RowDigestEntry struct {
	Row   string
	Count int
	Sum   uint64
}

// DigestBucket maps a row key to its bucket in [0, nb) with FNV-1a,
// identically in every process.
func DigestBucket(row string, nb int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(row); i++ {
		h ^= uint64(row[i])
		h *= prime64
	}
	return int(h % uint64(nb))
}

// cellDigest returns the digest of one cell.
func cellDigest(row, col string, v assoc.Value) uint64 {
	marker := "s"
	if v.Numeric {
		marker = "n"
	}
	h := crc32.Checksum([]byte(row), digestTable)
	h = crc32.Update(h, digestTable, []byte{0})
	h = crc32.Update(h, digestTable, []byte(col))
	h = crc32.Update(h, digestTable, []byte{0})
	h = crc32.Update(h, digestTable, []byte(marker))
	h = crc32.Update(h, digestTable, []byte{0})
	h = crc32.Update(h, digestTable, []byte(v.String()))
	return uint64(h)
}

// digest summarizes one row's cells.
func (r *row) digest() RowDigestEntry {
	e := RowDigestEntry{Row: r.key}
	for c := range r.cells.All() {
		e.Count++
		e.Sum += cellDigest(r.key, c.Key, c.Val)
	}
	return e
}

// BucketDigests returns the nb bucket digests of the whole table, as
// one atomic snapshot (the store read-locked).
func (s *Store) BucketDigests(nb int) []BucketDigest {
	out := make([]BucketDigest, max(nb, 1))
	s.page("", "", 0, "", func(r *row) {
		e := r.digest()
		b := DigestBucket(r.key, len(out))
		out[b].Count += e.Count
		out[b].Sum += e.Sum
	})
	return out
}

// RowDigests returns per-row digests, sorted by row key, for one
// bucket of the nb-bucket partition — or for every row when bucket is
// negative. Like BucketDigests it is an atomic snapshot.
func (s *Store) RowDigests(nb, bucket int) []RowDigestEntry {
	nb = max(nb, 1)
	var out []RowDigestEntry
	s.page("", "", 0, "", func(r *row) {
		if bucket < 0 || DigestBucket(r.key, nb) == bucket {
			out = append(out, r.digest())
		}
	})
	return out
}
