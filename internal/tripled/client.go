package tripled

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/assoc"
)

// Transport defaults. A dial always carries a deadline — a blackholed
// server (SYN silently dropped) must fail the connect attempt, not
// hang pipeline setup forever. Per-operation I/O deadlines default off
// for the plain client (a single server may legitimately take long on
// a huge scan); the cluster transport always sets one.
const (
	DefaultDialTimeout = 5 * time.Second
)

// DialOption configures a client connection.
type DialOption func(*dialConfig)

type dialConfig struct {
	ioTimeout time.Duration
}

// WithIOTimeout arms a deadline on every read and write of the
// connection, so a server that accepts and then goes silent (blackhole,
// stalled disk, half-open connection) surfaces a retryable timeout
// instead of wedging the caller. Zero disables.
func WithIOTimeout(d time.Duration) DialOption {
	return func(c *dialConfig) { c.ioTimeout = d }
}

// deadlineConn arms per-call read/write deadlines on a net.Conn. The
// bufio layers above it never see deadlines directly — every Read and
// Write is freshly armed, so long multi-block responses stay alive as
// long as bytes keep flowing.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if err := c.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	if err := c.SetWriteDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

// Client is a connection to a tripled server. Not safe for concurrent
// use; open one client per goroutine (the server handles each
// connection independently).
type Client struct {
	conn  net.Conn
	r     *bufio.Scanner
	w     *bufio.Writer
	cells cellDecoder // every CELLS and KEYS page is read through it
}

// Dial connects to a tripled server within DefaultDialTimeout.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	return dialContext(context.Background(), addr, opts...)
}

// dialContext connects to a tripled server. The context bounds the
// connect attempt together with the (always-armed) DefaultDialTimeout;
// cancel it, or give it a shorter deadline, to abandon a dial early.
func dialContext(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	var cfg dialConfig
	for _, o := range opts {
		o(&cfg)
	}
	d := net.Dialer{Timeout: DefaultDialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, &TransportError{Op: "dial", Err: err}
	}
	return newClient(conn, cfg.ioTimeout), nil
}

// newClient wraps an established connection.
func newClient(conn net.Conn, ioTimeout time.Duration) *Client {
	rw := conn
	if ioTimeout > 0 {
		rw = &deadlineConn{Conn: conn, timeout: ioTimeout}
	}
	sc := bufio.NewScanner(rw)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	return &Client{conn: conn, r: sc, w: bufio.NewWriterSize(rw, 1<<16)}
}

// Close sends QUIT and closes the connection.
func (c *Client) Close() error {
	// Best effort: the server closes on QUIT anyway.
	fmt.Fprintln(c.w, "QUIT")
	c.w.Flush()
	return c.conn.Close()
}

// send writes one request line without waiting for the response.
func (c *Client) send(line string) error {
	if strings.ContainsAny(line, "\n") {
		return fmt.Errorf("tripled: request contains newline")
	}
	if _, err := fmt.Fprintln(c.w, line); err != nil {
		return &TransportError{Op: "send", Err: err}
	}
	return nil
}

// recv flushes pending writes and reads one response line.
func (c *Client) recv() (string, error) {
	if err := c.w.Flush(); err != nil {
		return "", &TransportError{Op: "send", Err: err}
	}
	if !c.r.Scan() {
		if err := c.r.Err(); err != nil {
			return "", &TransportError{Op: "recv", Err: err}
		}
		return "", &TransportError{Op: "recv", Err: errConnClosed}
	}
	return c.r.Text(), nil
}

// errConnClosed is the orderly-EOF transport failure: the server hung
// up between responses.
var errConnClosed = fmt.Errorf("connection closed")

func (c *Client) roundTrip(line string) (string, error) {
	if err := c.send(line); err != nil {
		return "", err
	}
	return c.recv()
}

func (c *Client) expectOK(resp string) error {
	switch {
	case resp == "OK" || strings.HasPrefix(resp, "OK "):
		return nil
	case resp == "NF":
		return ErrNotFound
	case strings.HasPrefix(resp, "ERR "):
		return fmt.Errorf("tripled: server: %s", resp[4:])
	default:
		return fmt.Errorf("tripled: unexpected response %q", resp)
	}
}

// validateWire refuses, before anything is sent, what the server would
// refuse or — worse — misread in a cell of a row whose key has passed
// validateKey: a column key or value the line formats cannot carry
// (BadKeyError, BadValueError). It also refuses a tab inside a string
// value, which the store, the snapshot and the server's parser carry
// whole (the value is the rest of its line) but this client does not
// send.
func validateWire(col string, v assoc.Value) error {
	if err := validateKey(col); err != nil {
		return err
	}
	if err := validateValue(v); err != nil {
		return err
	}
	if !v.Numeric && strings.Contains(v.Str, "\t") {
		return fmt.Errorf("tripled: value %q contains a tab, which a request line cannot carry", v.Str)
	}
	return nil
}

// Put stores a value.
func (c *Client) Put(row, col string, v assoc.Value) error {
	if err := validateKey(row); err != nil {
		return err
	}
	if err := validateWire(col, v); err != nil {
		return err
	}
	resp, err := c.roundTrip(string(appendPut(nil, row, col, v)))
	if err != nil {
		return err
	}
	return c.expectOK(resp)
}

// Get fetches a value; ErrNotFound when absent.
func (c *Client) Get(row, col string) (assoc.Value, error) {
	resp, err := c.roundTrip(fmt.Sprintf("GET\t%s\t%s", row, col))
	if err != nil {
		return assoc.Value{}, err
	}
	if err := c.expectOK(resp); err != nil {
		return assoc.Value{}, err
	}
	payload := strings.TrimPrefix(resp, "OK ")
	parts := strings.SplitN(payload, "\t", 2)
	if len(parts) != 2 {
		return assoc.Value{}, fmt.Errorf("tripled: malformed GET payload %q", payload)
	}
	return parseValue(parts[0], parts[1])
}

// PutBatch stores every cell in one BATCH round trip.
func (c *Client) PutBatch(cells []Cell) error {
	p := c.StartPipeline(len(cells))
	for _, cell := range cells {
		p.Put(cell.Row, cell.Col, cell.Val)
	}
	return p.Close()
}

// NNZ returns the server-side cell count.
func (c *Client) NNZ() (int, error) {
	resp, err := c.roundTrip("NNZ")
	if err != nil {
		return 0, err
	}
	if err := c.expectOK(resp); err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimPrefix(resp, "OK "))
}

// blockLen parses the first line of a block response into the number
// of data lines that follow.
func blockLen(first string) (int, error) {
	if strings.HasPrefix(first, "ERR ") {
		return 0, fmt.Errorf("tripled: server: %s", first[4:])
	}
	if !strings.HasPrefix(first, "BLOCK ") {
		return 0, fmt.Errorf("tripled: expected BLOCK, got %q", first)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(first, "BLOCK "))
	if err != nil || n < 0 {
		return 0, fmt.Errorf("tripled: bad block header %q", first)
	}
	return n, nil
}

// maxBlockPrealloc caps what a block header may make the client
// allocate before any line has arrived; a longer block just grows.
const maxBlockPrealloc = 1 << 16

// scanBlockLine reads line i of an n-line block into the scanner.
func (c *Client) scanBlockLine(i, n int) error {
	if !c.r.Scan() {
		// The stream died mid-block: a transport event, retryable on
		// a fresh connection (reads are pure).
		return &TransportError{Op: "recv",
			Err: fmt.Errorf("truncated block (%d of %d lines)", i, n)}
	}
	return nil
}

func (c *Client) readBlock(first string) ([]string, error) {
	n, err := blockLen(first)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, min(n, maxBlockPrealloc))
	for i := 0; i < n; i++ {
		if err := c.scanBlockLine(i, n); err != nil {
			return nil, err
		}
		out = append(out, c.r.Text())
	}
	return out, nil
}

// The paged read's two requests (start, end, limit, cursor): every cell
// of the page's rows, or their row keys alone.
const (
	cellsRequest = "CELLS\t%s\t%s\t%d\t%s"
	keysRequest  = "KEYS\t%s\t%s\t%d\t%s"
)

// appendPage fetches one page of the paged read, appended to dst: for
// cellsRequest every cell of up to limit rows in [start, end) after the
// cursor row, in (row, col) order; for keysRequest each of those rows as
// a cell with its row key alone. Its strings are cut from one string
// (cellDecoder), and a block header sizes nothing past maxBlockPrealloc
// cells.
func (c *Client) appendPage(dst []Cell, request, start, end string, limit int, cursor string) ([]Cell, error) {
	resp, err := c.roundTrip(fmt.Sprintf(request, start, end, limit, cursor))
	if err != nil {
		return nil, err
	}
	n, err := blockLen(resp)
	if err != nil {
		return nil, err
	}
	out := slices.Grow(dst, min(n, maxBlockPrealloc))
	dec := &c.cells
	defer dec.reset()
	var lineErr error // first malformed line; the block is still drained
	for i := 0; i < n; i++ {
		if err := c.scanBlockLine(i, n); err != nil {
			return nil, err
		}
		switch {
		case lineErr != nil:
		case request == keysRequest:
			dec.add(len(out), rowField, c.r.Bytes())
			out = append(out, Cell{})
		default:
			out, lineErr = dec.decode(out, c.r.Bytes())
		}
	}
	if lineErr != nil {
		return nil, lineErr
	}
	dec.cut(out, nil)
	return out, nil
}

// RowCells reads every cell of one row, in column order, as a one-row
// CELLS page bounded to the row itself: nil when the row is absent,
// never a neighbouring row.
func (c *Client) RowCells(row string) ([]Cell, error) {
	return c.appendPage(nil, cellsRequest, row, row+"\x00", 1, "")
}

// TopRowsByDegree queries the server's degree table.
func (c *Client) TopRowsByDegree(k int) ([]RowDegree, error) {
	resp, err := c.roundTrip(fmt.Sprintf("TOPDEG\t%d", k))
	if err != nil {
		return nil, err
	}
	lines, err := c.readBlock(resp)
	if err != nil {
		return nil, err
	}
	out := make([]RowDegree, 0, len(lines))
	for _, line := range lines {
		parts := strings.SplitN(line, "\t", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("tripled: malformed degree line %q", line)
		}
		d, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, err
		}
		out = append(out, RowDegree{Row: parts[0], Degree: d})
	}
	return out, nil
}

// BucketDigests fetches the server's nb anti-entropy bucket digests
// (RESYNC DIGEST). The result is indexed by bucket.
func (c *Client) BucketDigests(nb int) ([]BucketDigest, error) {
	resp, err := c.roundTrip(fmt.Sprintf("RESYNC\tDIGEST\t%d", nb))
	if err != nil {
		return nil, err
	}
	lines, err := c.readBlock(resp)
	if err != nil {
		return nil, err
	}
	out := make([]BucketDigest, nb)
	for _, line := range lines {
		parts := strings.SplitN(line, "\t", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("tripled: malformed digest line %q", line)
		}
		b, err1 := strconv.Atoi(parts[0])
		count, err2 := strconv.Atoi(parts[1])
		sum, err3 := strconv.ParseUint(parts[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || b < 0 || b >= nb {
			return nil, fmt.Errorf("tripled: malformed digest line %q", line)
		}
		out[b] = BucketDigest{Count: count, Sum: sum}
	}
	return out, nil
}

// RowDigests fetches per-row digests for one bucket of the nb-bucket
// partition (RESYNC ROWS); bucket -1 fetches every row.
func (c *Client) RowDigests(nb, bucket int) ([]RowDigestEntry, error) {
	resp, err := c.roundTrip(fmt.Sprintf("RESYNC\tROWS\t%d\t%d", nb, bucket))
	if err != nil {
		return nil, err
	}
	lines, err := c.readBlock(resp)
	if err != nil {
		return nil, err
	}
	out := make([]RowDigestEntry, 0, len(lines))
	for _, line := range lines {
		parts := strings.SplitN(line, "\t", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("tripled: malformed row digest line %q", line)
		}
		count, err1 := strconv.Atoi(parts[1])
		sum, err2 := strconv.ParseUint(parts[2], 10, 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("tripled: malformed row digest line %q", line)
		}
		out = append(out, RowDigestEntry{Row: parts[0], Count: count, Sum: sum})
	}
	return out, nil
}

// prefixEnd returns the smallest string greater than every string with
// the given prefix, for use as a scan end bound. An empty prefix (or a
// prefix of only 0xff bytes) returns "", the unbounded end.
func prefixEnd(prefix string) string {
	b := []byte(prefix)
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] < 0xff {
			b[i]++
			return string(b[:i+1])
		}
	}
	return ""
}

// PublishAssoc writes every cell of a under the row-key prefix, using
// the pipelined batch path (batchSize cells per BATCH, acks collected
// asynchronously). It is how pipeline tables are published to the
// store: prefixes stand in for Accumulo's per-month tables, so any
// cells previously published under the prefix are deleted first — a
// republish replaces the table, it never unions with a stale one.
// Concurrent writers under one prefix are the caller's problem, as
// with an Accumulo table overwrite.
func (c *Client) PublishAssoc(prefix string, a *assoc.Assoc, batchSize int) error {
	if err := c.DeletePrefix(prefix, 512); err != nil {
		return err
	}
	p := c.StartPipeline(batchSize)
	row, key := "", prefix // the row being walked and its prefixed key, built once (and so validated once)
	a.Iterate(func(r, col string, v assoc.Value) bool {
		if r != row {
			row, key = r, prefix+r
		}
		p.Put(key, col, v)
		return true
	})
	return p.Close()
}

// pages is the one loop of the paged read (cellsRequest or keysRequest)
// under prefix. It asks for up to pageRows rows (512 when pageRows < 1)
// after the cursor, hands the page to visit — its cells (a KEYS row is
// a cell with no column), its row keys without the prefix, and where
// each row ends among the cells — and resumes after the page's last
// row. It ends at the first empty page: a short page only advances the
// cursor (the server clamps a page's rows), so nothing is silently
// truncated.
//
// A page is what a server sends (Store.page) or it is refused: whole
// rows in ascending key order, each under the prefix and after the
// cursor and the row before it, and each row's columns strictly
// ascending. A refusal names the cursor and the row and classifies
// ClassFatal, since the same request reads the same page again: a peer
// that serves one page over and over is refused at its second answer.
func (c *Client) pages(request, prefix string, pageRows int, visit func(cells []Cell, keys []string, ends []int) error) error {
	if pageRows < 1 {
		pageRows = 512
	}
	end := prefixEnd(prefix)
	var cells []Cell
	var keys []string
	var ends []int
	cursor := ""
	for first := true; ; first = false {
		var err error
		if cells, err = c.appendPage(cells[:0], request, prefix, end, pageRows, cursor); err != nil || len(cells) == 0 {
			return err
		}
		keys, ends = keys[:0], ends[:0]
		prev := cursor // the row before this cell's
		for i, cell := range cells {
			if i > 0 && cell.Row == prev && cell.Col > cells[i-1].Col {
				ends[len(ends)-1] = i + 1 // the row's next column
				continue
			}
			if !strings.HasPrefix(cell.Row, prefix) || cell.Row <= prev && !(first && i == 0) {
				return fmt.Errorf("tripled: page after cursor %q: row %q at column %q does not follow %q under the prefix %q",
					cursor, cell.Row, cell.Col, prev, prefix)
			}
			keys, ends, prev = append(keys, cell.Row[len(prefix):]), append(ends, i+1), cell.Row
		}
		if err := visit(cells, keys, ends); err != nil {
			return err
		}
		cursor = prev
	}
}

// DeletePrefix removes every cell under the row-key prefix, reading it
// page by page (pages) and deleting each page in one BATCH. The pages
// share one pipeline, flushed before the next page is read, so its body
// grows to the largest page once.
func (c *Client) DeletePrefix(prefix string, pageRows int) error {
	p := c.StartPipeline(math.MaxInt) // a page is one BATCH: Flush sends it
	return c.pages(cellsRequest, prefix, pageRows, func(cells []Cell, _ []string, _ []int) error {
		for _, cell := range cells {
			p.Delete(cell.Row, cell.Col)
		}
		return p.Flush()
	})
}

// FetchAssoc reads every cell under the row-key prefix back into an
// associative array, CELLS page by CELLS page (pages, pageRows rows per
// round trip), with the prefix stripped from the row keys. A page a
// server sends is whole rows in column order, each after every row
// before it, so it goes to the array as one slab of rows (assoc.SetRows):
// one allocation for its cells and one for its rows' headers. Any other
// page is refused.
func (c *Client) FetchAssoc(prefix string, pageRows int) (*assoc.Assoc, error) {
	out := assoc.New()
	err := c.pages(cellsRequest, prefix, pageRows, func(cells []Cell, keys []string, ends []int) error {
		slab := make([]assoc.Cell, len(cells))
		for i, cell := range cells {
			slab[i] = assoc.Cell{Key: cell.Col, Val: cell.Val}
		}
		return out.SetRows(keys, ends, slab)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FetchKeys reads the row keys under the row-key prefix — a table's
// rows without their cells — KEYS page by KEYS page (pages, pageRows
// rows per round trip), with the prefix stripped, and returns them
// ascending and distinct, as a server sends them; any other page is
// refused. A page's keys are cut from one string.
func (c *Client) FetchKeys(prefix string, pageRows int) ([]string, error) {
	var out []string
	err := c.pages(keysRequest, prefix, pageRows, func(_ []Cell, keys []string, _ []int) error {
		out = append(out, keys...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
