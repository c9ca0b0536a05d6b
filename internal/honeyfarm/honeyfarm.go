// Package honeyfarm implements a GreyNoise-style Internet outpost: a set
// of sensor addresses that passively collect packets from scanners and
// actively converse with them to classify behavior, methods, and intent.
// Observations are rolled up into 1-month windows stored as D4M
// associative arrays (rows: source IP; columns: enrichment fields), the
// schema the paper correlates against the telescope's source tables.
//
// Unlike the darkspace telescope, the honeyfarm responds to traffic, so
// its traffic matrix occupies both the external → internal and internal
// → external quadrants (the paper's Figure 1); the roll-up tables here
// summarize both directions of each conversation.
package honeyfarm

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/assoc"
	"repro/internal/ipaddr"
	"repro/internal/radiation"
	"repro/internal/tripled"
)

// Column names of the monthly tables.
const (
	ColPackets        = "packets"
	ColClassification = "classification"
	ColIntent         = "intent"
	ColFirstSeen      = "first_seen"
	ColLastSeen       = "last_seen"
	ColTags           = "tags"
)

// Honeyfarm is the outpost's sensor set.
type Honeyfarm struct {
	sensors []ipaddr.Addr
}

// MonthWindow is one month of enriched observations.
type MonthWindow struct {
	Label string // e.g. "2020-02"
	Table *assoc.Assoc
}

// Sources returns the number of unique sources observed in the month
// (Table I's "GreyNoise Sources" column).
func (m *MonthWindow) Sources() int { return m.Table.NRows() }

// New creates a honeyfarm with n sensor addresses drawn deterministically
// from seed, scattered across public space ("hundreds of servers" in the
// paper).
func New(n int, seed int64) *Honeyfarm {
	rng := rand.New(rand.NewSource(seed))
	h := &Honeyfarm{}
	seen := make(map[ipaddr.Addr]bool)
	for len(h.sensors) < n {
		a := ipaddr.Addr(rng.Uint32())
		if ipaddr.IsPrivate(a) || seen[a] || uint32(a)>>29 == 7 || uint32(a)>>24 == 0 {
			continue
		}
		seen[a] = true
		h.sensors = append(h.sensors, a)
	}
	return h
}

// IngestMonth is BuildMonth(label, obs); the farm keeps nothing and
// start is not read.
func (h *Honeyfarm) IngestMonth(label string, start time.Time, obs []radiation.Observation) *MonthWindow {
	return BuildMonth(label, obs)
}

// monthColumns is the width of a month table's row: the six Col*
// columns, which sort in the order BuildMonth fills them.
const monthColumns = 6

// BuildMonth converts one month of radiation observations into an
// enriched D4M table. The classification is derived by the conversation
// engine from each source's behavior, not copied from generator
// internals. It reads no shared state, so any number of months may
// build concurrently.
//
// The table is built by the slab, not by the row: the row keys of the
// month are rendered into one text arena and its timestamps into
// another and sliced out of them, classification, intent and tags are
// the archetype's static strings, the cells of all rows are one slice,
// and the lot is handed to a presized table in one call (assoc.SetRows)
// — a month costs a dozen allocations however many sources it saw. The
// table's strings therefore pin the month's arenas, and its rows their
// one cell slab, for as long as any of them is reachable.
func BuildMonth(label string, obs []radiation.Observation) *MonthWindow {
	// Two arenas, so that the row keys — what a freeze sorts and a
	// correlation probes — lie side by side and not 40 bytes of
	// timestamps apart. A dotted quad is 15 bytes at most, an RFC 3339
	// UTC stamp 20.
	var keyText, stampText strings.Builder
	keyText.Grow(len(obs) * 15)
	stampText.Grow(len(obs) * 2 * 20)
	keys := make([]string, len(obs))
	ends := make([]int, len(obs))
	cells := make([]assoc.Cell, 0, monthColumns*len(obs))
	var scratch [64]byte
	for i, o := range obs {
		// What a builder has handed out it never rewrites, so a string cut
		// from it stays good while later rows are appended behind it.
		at := keyText.Len()
		keyText.Write(o.Src.IP.AppendTo(scratch[:0]))
		keys[i] = keyText.String()[at:]
		at = stampText.Len()
		stampText.Write(o.FirstSeen.UTC().AppendFormat(scratch[:0], time.RFC3339))
		last := stampText.Len()
		stampText.Write(o.LastSeen.UTC().AppendFormat(scratch[:0], time.RFC3339))
		stamps := stampText.String()
		p := converse(o.Src)
		cells = append(cells,
			assoc.Cell{Key: ColClassification, Val: assoc.Str(p.Classification)},
			assoc.Cell{Key: ColFirstSeen, Val: assoc.Str(stamps[at:last])},
			assoc.Cell{Key: ColIntent, Val: assoc.Str(p.Intent)},
			assoc.Cell{Key: ColLastSeen, Val: assoc.Str(stamps[last:])},
			assoc.Cell{Key: ColPackets, Val: assoc.Num(float64(o.Packets))},
			assoc.Cell{Key: ColTags, Val: assoc.Str(p.tags)},
		)
		ends[i] = len(cells)
	}
	table := assoc.NewSized(len(obs))
	if err := table.SetRows(keys, ends, cells); err != nil {
		// A source observed twice in one month: the later observation is
		// its row, as when rows went in one by one. The column order is
		// fixed above, so nothing else can be refused.
		lo := 0
		for i, hi := range ends {
			if err := table.SetRow(keys[i], cells[lo:hi:hi]); err != nil {
				panic(err)
			}
			lo = hi
		}
	}
	return &MonthWindow{Label: label, Table: table}
}

// PublishBatch is the batch size month tables are published with.
const PublishBatch = 1024

// MonthRowPrefix is the tripled row-key prefix a month table is
// published under — the stand-in for Accumulo's per-month tables in the
// paper's deployment.
func MonthRowPrefix(label string) string { return "hf/" + label + "/" }

// Publish writes the month table to a tripled server under
// MonthRowPrefix, via the client's pipelined batch path.
func (m *MonthWindow) Publish(c tripled.Conn) error {
	return c.PublishAssoc(MonthRowPrefix(m.Label), m.Table, PublishBatch)
}

// FetchMonthTable reads a published month table back from a tripled
// server. The result is row/col/value identical to the table that was
// published. Every row of a month is a source address, so a row whose
// key is not a dotted quad (ipaddr.Parse) is refused, naming it.
func FetchMonthTable(c tripled.Conn, label string) (*assoc.Assoc, error) {
	prefix := MonthRowPrefix(label)
	t, err := c.FetchAssoc(prefix, 512)
	if err != nil {
		return nil, err
	}
	for row := range t.Rows() {
		if _, err := ipaddr.Parse(row); err != nil {
			return nil, notSource(label, row)
		}
	}
	return t, nil
}

// FetchMonthSources reads a published month back as what a study reads
// of it: its source addresses, the table's row keys, and none of its
// cells. It reads the rows FetchMonthTable would, in ascending key
// order, and refuses a row that is not a source address the same way.
func FetchMonthSources(c tripled.Conn, label string) ([]ipaddr.Addr, error) {
	keys, err := c.FetchKeys(MonthRowPrefix(label), monthKeyPage)
	if err != nil {
		return nil, err
	}
	addrs := make([]ipaddr.Addr, len(keys))
	for i, key := range keys {
		if addrs[i], err = ipaddr.Parse(key); err != nil {
			return nil, notSource(label, key)
		}
	}
	return addrs, nil
}

// monthKeyPage is the rows of one KEYS page of FetchMonthSources: a
// key costs a line of 16 bytes or less, so a page asks for the most
// rows the server sends in one.
const monthKeyPage = 4096

// notSource is the refusal of a month row, named by its full key, that
// is not a source address.
func notSource(label, row string) error {
	return fmt.Errorf("honeyfarm: month %s: row %q is not a source address", label, MonthRowPrefix(label)+row)
}

// Profile is the enrichment the conversation engine produces for one
// source. Tags is shared by every profile of the same behaviour and is
// read-only: a caller that wants to change it copies it first.
type Profile struct {
	Classification string
	Intent         string // "malicious", "suspicious", or "benign"
	Tags           []string
}

// profile is a Profile with its tags as a month table stores them.
type profile struct {
	Profile
	tags string // Tags joined by ","
}

func newProfile(classification, intent string, tags ...string) *profile {
	return &profile{Profile{classification, intent, tags}, strings.Join(tags, ",")}
}

// The conversation has a handful of outcomes; each is rendered once.
var (
	scannerProfile = newProfile("scanner", "suspicious", "mass-scanner", "tcp-syn")
	// Long-lived, well-behaved scanners complete handshakes and
	// identify themselves; GreyNoise labels these benign.
	crawlerProfile = newProfile("scanner", "benign", "mass-scanner", "tcp-syn", "identified-crawler")
	wormProfile    = newProfile("worm", "malicious", "self-propagating", "smb", "sequential-sweep")
	// Replies to packets the sensor never sent: spoofed-victim
	// backscatter, no conversation possible.
	backscatterProfile = newProfile("backscatter", "benign", "spoofed-victim", "syn-ack")
	botnetProfile      = newProfile("botnet", "malicious", "keep-alive", "low-and-slow", "udp")
	misconfigProfile   = newProfile("misconfiguration", "benign", "misdirected", "udp")
)

// converse runs the sensor conversation state machine against a source:
// the sensor replies to the source's probes (SYN -> SYN/ACK -> banner
// exchange) and classifies from what comes back. In this reproduction
// the exchange is simulated from the source's behavioral archetype and
// emission pattern — the same observable surface a real honeyfarm keys
// on — and never inspects the generator's hidden beam parameters. It
// allocates nothing: every outcome is rendered once, above.
func converse(src radiation.Source) *profile {
	switch src.Type {
	case radiation.Scanner:
		if src.Persistent {
			return crawlerProfile
		}
		return scannerProfile
	case radiation.Worm:
		return wormProfile
	case radiation.Backscatter:
		return backscatterProfile
	case radiation.BotnetKeepalive:
		return botnetProfile
	default:
		return misconfigProfile
	}
}

// ClassificationCensus counts sources per classification in a month,
// sorted by descending count — the "analyze and label" summary a
// honeyfarm exposes to analysts.
func (m *MonthWindow) ClassificationCensus() []CensusRow {
	counts := make(map[string]int)
	for _, row := range m.Table.RowKeys() {
		if v, ok := m.Table.Get(row, ColClassification); ok {
			counts[v.Str]++
		}
	}
	out := make([]CensusRow, 0, len(counts))
	for c, n := range counts {
		out = append(out, CensusRow{Classification: c, Sources: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sources != out[j].Sources {
			return out[i].Sources > out[j].Sources
		}
		return out[i].Classification < out[j].Classification
	})
	return out
}

// CensusRow is one line of ClassificationCensus.
type CensusRow struct {
	Classification string
	Sources        int
}

// String renders the census row.
func (c CensusRow) String() string {
	return fmt.Sprintf("%-18s %d", c.Classification, c.Sources)
}
