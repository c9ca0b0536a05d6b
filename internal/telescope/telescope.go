// Package telescope implements a CAIDA-style darkspace observatory: it
// consumes a raw packet stream, discards traffic that is not valid
// unsolicited darkspace traffic, cuts constant-packet windows of NV
// valid packets, and assembles each window into a CryptoPAN-anonymized
// GraphBLAS hypersparse traffic matrix by hierarchically summing leaf
// matrices (the paper's 2^17-packet leaves under a 2^30-packet window).
//
// Because the monitored prefix is a darkspace, only the external →
// internal quadrant of the traffic matrix is ever populated (Figure 1 of
// the paper): rows are external sources, columns are darkspace
// destinations.
package telescope

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/assoc"
	"repro/internal/cryptopan"
	"repro/internal/engine"
	"repro/internal/hypersparse"
	"repro/internal/ipaddr"
	"repro/internal/pcap"
	"repro/internal/tripled"
)

// PacketSource yields packets in time order, a slab per NextBatch call
// (see engine.Source); a source that can fail mid-stream also
// implements engine.Errorer, and every capture asks it.
type PacketSource = engine.Source

// ReaderSource adapts a pcap.Reader to the PacketSource interface.
type ReaderSource struct {
	R   *pcap.Reader
	err error
}

// NextBatch implements PacketSource: it decodes a slab of packets per
// call through pcap.Reader.NextBatch, amortizing header parsing and
// letting the engine hand whole slabs to its shard workers. A
// mid-stream decode error ends the stream (possibly after a short
// final slab) and is reported through Err.
func (rs *ReaderSource) NextBatch(dst []pcap.Packet) int {
	if rs.err != nil {
		return 0
	}
	n, err := rs.R.NextBatch(dst)
	if err != nil && err != io.EOF {
		rs.err = err
	}
	return n
}

// Err reports the first non-EOF read error, if any. It satisfies the
// engine's Errorer hook, so truncated captures surface from any capture
// path.
func (rs *ReaderSource) Err() error { return rs.err }

// Telescope holds the observatory configuration. Construct with New.
//
// A Telescope runs one capture at a time: CaptureWindowEngine must not
// be invoked concurrently with itself (a capture internally shards
// across goroutines just fine): the per-shard L1 anonymization memos and
// cached engines reused across captures rely on it. Concurrent
// windows belong on separate Telescopes, which may share one CryptoPAN
// memo (WithAnonymizer) or nothing at all, as in the paper's
// deployment, where each observatory site anonymizes under its own key.
//
// Only sources go through the memo. A destination lies inside the
// monitored prefix and is as good as new in every window, so it is
// anonymized by the prefix walk (cryptopan.Within: two table lookups
// and a short AES tail, paid a slab's worth of blocks at a time) and
// remembered nowhere; the memo's size is the number of distinct
// sources seen, on every capture path.
type Telescope struct {
	darkspace ipaddr.Prefix
	leafSize  int
	anon      *cryptopan.Cached
	dark      *cryptopan.PrefixWalker // anon's key inside darkspace; its table is built by the first capture

	poolMu  sync.Mutex
	shards  map[int]*shardAnon        // per-shard L1 memos + slab scratch, reused across captures
	engines map[[2]int]*engine.Engine // cached per resolved (workers, batch): pooled accumulators and batch buffers persist across windows
}

// Option configures a Telescope.
type Option func(*Telescope)

// WithLeafSize sets the leaf window size for hierarchical matrix
// assembly (the paper uses 2^17; the default here is 2^14 for
// laptop-scale windows).
func WithLeafSize(n int) Option { return func(t *Telescope) { t.leafSize = n } }

// WithAnonymizer shares an existing CryptoPAN cache instead of building
// a private one from the passphrase. The study scheduler uses this to
// give every per-worker Telescope the study's one shared cache: the
// anonymization is a pure function of the passphrase, so sharing
// changes no output, but it stops N workers from re-deriving the same
// prefix-preserving mappings into N disjoint memos.
// The cache is concurrency-safe; the passphrase argument to New is
// ignored when this option is given and must correspond to the same
// key if deanonymized outputs are to line up.
func WithAnonymizer(c *cryptopan.Cached) Option { return func(t *Telescope) { t.anon = c } }

// New creates a Telescope monitoring the given darkspace, anonymizing
// with the given passphrase-derived CryptoPAN key.
func New(darkspace ipaddr.Prefix, anonPassphrase string, opts ...Option) *Telescope {
	t := &Telescope{
		darkspace: darkspace,
		leafSize:  1 << 14,
		shards:    make(map[int]*shardAnon),
		engines:   make(map[[2]int]*engine.Engine),
	}
	for _, o := range opts {
		o(t)
	}
	if t.anon == nil {
		t.anon = cryptopan.NewCached(cryptopan.NewFromPassphrase(anonPassphrase))
	}
	t.dark = t.anon.Anonymizer().Within(darkspace)
	return t
}

// Anonymizer exposes the telescope's shared CryptoPAN cache, for
// handing to further Telescopes via WithAnonymizer.
func (t *Telescope) Anonymizer() *cryptopan.Cached { return t.anon }

// valid implements the paper's validity filter: the packet must be
// destined to the darkspace (external → internal quadrant) and must not
// carry an un-routable source (bogons and darkspace-internal sources are
// the "small amount of legitimate traffic" analog that gets discarded).
func (t *Telescope) valid(p *pcap.Packet) bool {
	return t.darkspace.Contains(p.Dst) &&
		!t.darkspace.Contains(p.Src) &&
		!ipaddr.IsPrivate(p.Src)
}

// Window is one constant-packet sample: an anonymized traffic matrix of
// exactly NV valid packets (fewer only if the stream ran out).
type Window struct {
	Start, End time.Time
	NV         int // valid packets in the matrix
	Dropped    int // packets discarded by the validity filter
	Matrix     *hypersparse.Matrix
	Leaves     int // leaf matrices hierarchically summed
	// Timings is the engine's account of the capture's wall time.
	Timings engine.Timings
}

// Duration returns the wall-clock span of the window; constant-packet
// windows have variable duration (Table I's "CAIDA Duration" column).
func (w *Window) Duration() time.Duration { return w.End.Sub(w.Start) }

// SourcePackets reduces a window to its sources' original addresses and
// packet counts (A·1), in anonymized-address order, rendering no address.
// It walks the telescope's key backwards once over the window's rows —
// the paper's correlation approach 1, "anonymized data can be sent back
// to the sources for deanonymization" — whatever else it has captured.
func (t *Telescope) SourcePackets(w *Window) ([]ipaddr.Addr, []float64) {
	n := w.Matrix.NRows()
	addrs, packets := make([]ipaddr.Addr, 0, n), make([]float64, 0, n)
	w.Matrix.RowScan(func(row uint32, sum float64, _ int) {
		addrs, packets = append(addrs, ipaddr.Addr(row)), append(packets, sum)
	})
	t.anon.Anonymizer().DeanonymizeBatch(addrs)
	return addrs, packets
}

// SourceTable renders SourcePackets as the D4M associative array a
// store holds: a row per original dotted-quad source address, its count
// under column "packets". The row keys are cut from one text arena and
// the cells are one slab, handed over in one call (assoc.SetRows), so a
// key pins the arena while it is reachable.
func (t *Telescope) SourceTable(w *Window) *assoc.Assoc {
	addrs, packets := t.SourcePackets(w)
	n := len(addrs)
	var text strings.Builder
	text.Grow(15 * n) // a dotted quad is 15 bytes at most
	keys := make([]string, n)
	ends := make([]int, n)
	cells := make([]assoc.Cell, n)
	var scratch [15]byte
	for i, a := range addrs {
		at := text.Len()
		text.Write(a.AppendTo(scratch[:0]))
		keys[i] = text.String()[at:] // good for ever: the builder never rewrites what it has handed out
		cells[i] = assoc.Cell{Key: "packets", Val: assoc.Num(packets[i])}
		ends[i] = i + 1
	}
	out := assoc.NewSized(n)
	if err := out.SetRows(keys, ends, cells); err != nil {
		panic(err) // the inverse walk is a bijection: no original address comes up twice
	}
	return out
}

// SnapshotRowPrefix is the tripled row-key prefix a snapshot's source
// table is published under.
func SnapshotRowPrefix(label string) string { return "tel/" + label + "/" }

// PublishSourceTable writes window w's SourceTable to a tripled server
// under SnapshotRowPrefix(label): the paper's "reduced results are
// converted to D4M associative arrays", tripled standing in for Accumulo.
func (t *Telescope) PublishSourceTable(c tripled.Conn, label string, w *Window) error {
	return c.PublishAssoc(SnapshotRowPrefix(label), t.SourceTable(w), 1024)
}

// FetchSourceTable reads a published snapshot source table back from a
// tripled server. Every row of a source table is a source address with
// a numeric packet count, so any other row is refused, naming it.
func FetchSourceTable(c tripled.Conn, label string) (*assoc.Assoc, error) {
	table, _, _, err := fetchSources(c, label)
	return table, err
}

// FetchSourcePackets reads a published snapshot back as what a study
// reads of it, SourcePackets' pairs in no particular order, refusing
// what FetchSourceTable refuses.
func FetchSourcePackets(c tripled.Conn, label string) ([]ipaddr.Addr, []float64, error) {
	_, addrs, packets, err := fetchSources(c, label)
	return addrs, packets, err
}

// fetchSources fetches snapshot label's source table and parses each
// row once into its address and packet count.
func fetchSources(c tripled.Conn, label string) (*assoc.Assoc, []ipaddr.Addr, []float64, error) {
	prefix := SnapshotRowPrefix(label)
	table, err := c.FetchAssoc(prefix, 512)
	if err != nil {
		return nil, nil, nil, err
	}
	n := table.NRows()
	addrs, packets := make([]ipaddr.Addr, 0, n), make([]float64, 0, n)
	for row, cells := range table.Rows() {
		a, err := ipaddr.Parse(row)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("telescope: snapshot %s: row %q is not a source address", label, prefix+row)
		}
		v := cells.Get("packets")
		if v == nil || !v.Val.Numeric {
			return nil, nil, nil, fmt.Errorf("telescope: snapshot %s: row %q holds no packet count", label, prefix+row)
		}
		addrs, packets = append(addrs, a), append(packets, v.Val.Num)
	}
	return table, addrs, packets, nil
}
