package tripled

// server.go exposes a Store over a line-oriented TCP protocol, the role
// the Accumulo service plays in the paper's deployment. The protocol is
// deliberately simple — one request line, one response line (or a
// counted block) — so a client in any language can drive it.
//
// Requests (tab-separated):
//
//	PUT <row> <col> <n|s> <value>   (the value is the rest of the line)
//	GET <row> <col>
//	BATCH <n>              -> followed by n body lines, each
//	                          "PUT <row> <col> <n|s> <value>" or
//	                          "DEL <row> <col>"; one "OK <n>" ack
//	CELLS <start> <end> <limit> <cursor>
//	                       -> the one paged read: a block holding every
//	                          cell of up to <limit> rows in [start, end)
//	                          after the cursor row ("" = from start), as
//	                          row/col/type/value lines. A page is one
//	                          atomic snapshot of at most 4096 rows
//	                          whatever <limit> says, its rows whole and
//	                          ascending, each row's columns ascending;
//	                          resume with the page's last row until a
//	                          page comes back empty. A client refuses a
//	                          page that breaks this or does not advance
//	                          past the cursor
//	KEYS <start> <end> <limit> <cursor>
//	                       -> the same page as CELLS, one row key per
//	                          line and no cells
//	TOPDEG <k>             -> block of row/degree pairs
//	RESYNC DIGEST <nb> | RESYNC ROWS <nb> <bucket>
//	                       -> anti-entropy digests (see handleResync)
//	NNZ
//	QUIT
//
// A study sends BATCH, CELLS and KEYS only: a table is published as
// pipelined BATCHes under a row-key prefix; a snapshot's source table is
// read back by CELLS pages and a honeyfarm month, whose row keys are all
// the study reads of it, by KEYS pages. PUT, GET, BATCH and TOPDEG carry
// the load tools and the daemon's ledger; the cluster's repair sends
// RESYNC, one-row CELLS pages and BATCH.
//
// Responses: "OK", "OK <payload>", "NF" (not found), "ERR <msg>", or
// "BLOCK <n>" followed by n data lines. Malformed requests that leave
// the stream position unambiguous get an ERR and the connection lives
// on; requests that would desynchronize the stream (oversized or
// truncated BATCH bodies) close it.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/tripled/wal"
)

// The server's limits.
const (
	// DefaultIdleTimeout is how long a connection may sit idle between
	// requests (and between BATCH body lines) before the server drops it.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultMaxBatch caps the declared count of a BATCH request; larger
	// counts are refused and the connection closed.
	DefaultMaxBatch = 1 << 16
	// maxPageRows caps the rows of one CELLS or KEYS page whatever limit
	// it asks for: a page holds the store's read lock while it is
	// assembled.
	maxPageRows = 1 << 12
	// maxPooledPage is the largest page buffer, in cells, pagePool keeps.
	maxPooledPage = 1 << 16
)

// Option configures a Server.
type Option func(*Server)

// Server serves a Store over TCP.
type Server struct {
	store       *Store
	ln          net.Listener
	wg          sync.WaitGroup
	idleTimeout time.Duration
	maxBatch    int

	// Durability (see durable.go). wal is nil without a data dir.
	dataDir         string
	walOpts         wal.Options
	walCompactBytes int64
	wal             *wal.Log
	recovery        Recovery
	durMu           sync.Mutex // serializes WAL append + store apply
	walBytes        int64      // appended since last compaction; under durMu

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func newServer(store *Store, opts ...Option) *Server {
	s := &Server{
		store:           store,
		idleTimeout:     DefaultIdleTimeout,
		maxBatch:        DefaultMaxBatch,
		walCompactBytes: DefaultWALCompactBytes,
		conns:           make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Serve starts listening on addr (e.g. "127.0.0.1:0") and serving
// connections until Close. With a data dir configured the store is
// recovered from snapshot + WAL tail before the first connection is
// accepted, so a client can never observe pre-recovery state.
func Serve(store *Store, addr string, opts ...Option) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := newServer(store, opts...)
	s.ln = ln
	if s.dataDir != "" {
		if err := s.openWAL(); err != nil {
			ln.Close()
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, closes every live connection (so idle
// clients cannot wedge shutdown), waits for the handlers to drain, and
// syncs and closes the WAL.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	if s.wal != nil {
		if werr := s.wal.Close(); err == nil {
			err = werr
		}
	}
	return err
}

// track registers a live connection; it reports false (and closes the
// conn) when the server is already shutting down.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		conn.Close()
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	w := bufio.NewWriterSize(conn, 1<<16)
	defer w.Flush()
	var batch mutations // PUT requests and BATCH bodies are parsed into one buffer, reused
	for s.scanLine(conn, sc) {
		line := sc.Text()
		if line == "" {
			continue
		}
		if done := s.handle(conn, sc, w, &batch, line); done {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// scanLine reads one line with the idle deadline armed, so a silent
// client cannot pin the handler (and hence Close) forever.
func (s *Server) scanLine(conn net.Conn, sc *bufio.Scanner) bool {
	if s.idleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
	}
	return sc.Scan()
}

// handle processes one request line; returns true when the connection
// should close.
func (s *Server) handle(conn net.Conn, sc *bufio.Scanner, w *bufio.Writer, batch *mutations, line string) bool {
	parts := strings.Split(line, "\t")
	cmd := strings.ToUpper(parts[0])
	switch cmd {
	case "QUIT":
		fmt.Fprintln(w, "OK")
		return true
	case "NNZ":
		fmt.Fprintf(w, "OK %d\n", s.store.NNZ())
	case "PUT":
		defer batch.reset()
		err := batch.parse(sc.Bytes())
		if err == nil {
			err = s.applyOps(batch)
		}
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		fmt.Fprintln(w, "OK")
	case "GET":
		if len(parts) != 3 {
			fmt.Fprintln(w, "ERR GET wants 2 arguments")
			return false
		}
		v, ok := s.store.Get(parts[1], parts[2])
		if !ok {
			fmt.Fprintln(w, "NF")
			return false
		}
		w.Write(append(appendValue(append(w.AvailableBuffer(), "OK "...), v), '\n'))
	case "BATCH":
		return s.handleBatch(conn, sc, w, batch, parts)
	case "CELLS", "KEYS":
		s.handlePage(w, cmd, parts)
	case "RESYNC":
		return s.handleResync(w, parts)
	case "TOPDEG":
		if len(parts) != 2 {
			fmt.Fprintln(w, "ERR TOPDEG wants 1 argument")
			return false
		}
		k, err := strconv.Atoi(parts[1])
		if err != nil || k < 0 {
			fmt.Fprintln(w, "ERR bad k")
			return false
		}
		top := s.store.TopRowsByDegree(k)
		fmt.Fprintf(w, "BLOCK %d\n", len(top))
		for _, rd := range top {
			fmt.Fprintf(w, "%s\t%d\n", rd.Row, rd.Degree)
		}
	default:
		fmt.Fprintf(w, "ERR unknown command %q\n", cmd)
	}
	return false
}

// handlePage serves the one paged read in its two replies. CELLS and
// KEYS take the same arguments — bounds, limit, cursor — and walk the
// same page (Store.page); they differ only in what a visited row
// writes: every cell as a row/col/type/value line, or the row key
// alone.
func (s *Server) handlePage(w *bufio.Writer, cmd string, parts []string) {
	if len(parts) != 5 {
		fmt.Fprintf(w, "ERR %s wants 4 arguments\n", cmd)
		return
	}
	limit, err := strconv.Atoi(parts[3])
	if err != nil || limit < 1 {
		fmt.Fprintln(w, "ERR bad limit")
		return
	}
	start, end, cursor := parts[1], parts[2], parts[4]
	limit = min(limit, maxPageRows)
	if cmd == "KEYS" {
		page := keyPool.Get().(*[]string)
		keys, _ := s.store.appendKeys((*page)[:0], start, end, limit, cursor)
		fmt.Fprintf(w, "BLOCK %d\n", len(keys))
		for _, k := range keys {
			w.Write(append(append(w.AvailableBuffer(), k...), '\n'))
		}
		// A pooled page must not pin rows deleted since; one of at most
		// maxPageRows keys is always small enough to pool.
		clear(keys)
		*page = keys
		keyPool.Put(page)
		return
	}
	page := pagePool.Get().(*[]Cell)
	cells, _ := s.store.appendCells((*page)[:0], start, end, limit, cursor)
	fmt.Fprintf(w, "BLOCK %d\n", len(cells))
	for _, c := range cells {
		w.Write(append(appendCell(w.AvailableBuffer(), c.Row, c.Col, c.Val), '\n'))
	}
	if cap(cells) <= maxPooledPage {
		clear(cells) // a pooled page must not pin rows deleted since
		*page = cells
		pagePool.Put(page)
	}
}

// pagePool and keyPool recycle the buffers CELLS and KEYS pages are
// assembled in, across requests and connections: a page is tens of
// kilobytes, and a fresh buffer per page is most of what a scan would
// otherwise allocate.
var (
	pagePool = sync.Pool{New: func() any { return new([]Cell) }}
	keyPool  = sync.Pool{New: func() any { return new([]string) }}
)

// mutations is a parsed mutation list: the PUTs and the DELs each in
// arrival order, and the order they interleave in as runs of
// consecutive PUTs or DELs. The store applies a run as one batch, so
// the cells of a run are kept as the slice it takes.
//
// Lines are parsed from the scanner's bytes, and the strings of a row
// run — consecutive lines of one row key, whatever their verb — are
// made together: its row key and string values (and any column past
// the intern table) become one string when the run ends, at the next
// row key or at finish. A stored value therefore pins its own row's
// text and nothing more. Until finish, the open run's cells lack those
// strings: whatever reads puts or dels calls finish first.
type mutations struct {
	puts []Cell
	dels []CellKey
	runs []mutationRun
	text cellText // the open row run's strings
}

// mutationRun is the next n entries of puts, or of dels.
type mutationRun struct {
	del bool
	n   int
}

func (m *mutations) extend(del bool) {
	if n := len(m.runs); n == 0 || m.runs[n-1].del != del {
		m.runs = append(m.runs, mutationRun{del: del})
	}
	m.runs[len(m.runs)-1].n++
}

// The verbs and the separator of a mutation line.
var (
	verbPut = []byte("PUT")
	verbDel = []byte("DEL")
	tab     = []byte{'\t'}
)

// parse appends the mutation line spells to m: "PUT\trow\tcol\t<n|s>\t<value>",
// whose value is the rest of the line, tabs and all, or "DEL\trow\tcol".
// It is the one reader of a mutation line — a PUT request, each BATCH
// body line, and on recovery each snapshot and WAL record line — and it
// validates what it reads, so a key or value that would corrupt the
// line formats is refused before the WAL or the store can see it, and
// nothing downstream validates again. line is only read, never
// retained.
func (m *mutations) parse(line []byte) error {
	op, rest, _ := bytes.Cut(line, tab)
	switch {
	case bytes.EqualFold(op, verbPut):
		row, rest, ok1 := bytes.Cut(rest, tab)
		col, rest, ok2 := bytes.Cut(rest, tab)
		marker, raw, ok3 := bytes.Cut(rest, tab)
		if !ok1 || !ok2 || !ok3 {
			return errors.New("PUT wants 4 arguments")
		}
		v, str, err := parseValueBytes(marker, raw)
		if err != nil {
			return err
		}
		if bytes.IndexByte(line, '\r') >= 0 || bytes.IndexByte(line, '\n') >= 0 {
			// What validate refuses besides a tab, which would have ended
			// its field (a scanned line holds no newline either).
			c := Cell{Row: string(row), Col: string(col), Val: v}
			if str {
				c.Val.Str = string(raw)
			}
			if err := c.validate(); err != nil {
				return err
			}
		}
		i := len(m.puts)
		m.openRow(row, i, rowField)
		c := Cell{Col: m.text.col(i, colField, col), Val: v}
		if str {
			m.text.add(i, strField, raw)
		}
		m.puts = append(m.puts, c)
		m.extend(false)
	case bytes.EqualFold(op, verbDel):
		row, col, ok := bytes.Cut(rest, tab)
		if !ok || bytes.IndexByte(col, '\t') >= 0 {
			return errors.New("DEL wants 2 arguments")
		}
		i := len(m.dels)
		m.openRow(row, i, keyRowField)
		m.dels = append(m.dels, CellKey{Col: m.text.col(i, keyColField, col)})
		m.extend(true)
	default:
		return errors.New("op must be PUT or DEL")
	}
	return nil
}

// openRow records row as field of entry i, closing the open row run
// first when row is not its key.
func (m *mutations) openRow(row []byte, i int, field cellField) {
	if !m.text.sameRow(row) {
		m.finish()
	}
	m.text.row(i, field, row)
}

// finish closes the open row run: its strings become one string, and
// its cells are whole.
func (m *mutations) finish() { m.text.cut(m.puts, m.dels) }

func (m *mutations) len() int { return len(m.puts) + len(m.dels) }

// reset empties the list for reuse, dropping its references: the store
// copied what it keeps.
func (m *mutations) reset() {
	clear(m.puts)
	clear(m.dels)
	m.puts, m.dels, m.runs = m.puts[:0], m.dels[:0], m.runs[:0]
	m.text.reset()
}

// handleBatch reads the n body lines of a BATCH request, parses them
// all, and only then applies them as one store write (each run of
// consecutive PUTs or DELs is one store batch, so same-cell PUT/DEL
// sequences keep their order). Nothing is applied if any body line is
// malformed or the body is truncated. A count that cannot be trusted
// (unparseable, negative, over maxBatch) closes the connection, since
// the stream position is no longer unambiguous.
func (s *Server) handleBatch(conn net.Conn, sc *bufio.Scanner, w *bufio.Writer, ops *mutations, parts []string) bool {
	if len(parts) != 2 {
		fmt.Fprintln(w, "ERR BATCH wants 1 argument")
		return false
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 0 {
		fmt.Fprintln(w, "ERR bad batch count")
		return true
	}
	if n > s.maxBatch {
		fmt.Fprintf(w, "ERR batch count %d exceeds limit %d\n", n, s.maxBatch)
		return true
	}
	defer ops.reset()
	var bodyErr error
	// One deadline covers the whole body: a stalled batch times out as a
	// unit without paying a deadline syscall per line.
	if s.idleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.idleTimeout))
	}
	for i := 0; i < n; i++ {
		if !sc.Scan() {
			return true // truncated body: disconnect, apply nothing
		}
		if bodyErr != nil {
			continue // keep consuming to stay in sync
		}
		if err := ops.parse(sc.Bytes()); err != nil {
			bodyErr = fmt.Errorf("batch line %d: %v", i+1, err)
		}
	}
	if bodyErr != nil {
		fmt.Fprintf(w, "ERR %v\n", bodyErr)
		return false
	}
	if err := s.applyOps(ops); err != nil {
		fmt.Fprintf(w, "ERR %v\n", err)
		return false
	}
	fmt.Fprintf(w, "OK %d\n", n)
	return false
}

// handleResync serves the anti-entropy digest queries a repairing
// cluster client drives before streaming missing cells:
//
//	RESYNC DIGEST <nb>          -> BLOCK of nb "bucket\tcount\tsum" lines
//	RESYNC ROWS <nb> <bucket>   -> BLOCK of "row\tcount\tsum" lines for
//	                               one bucket (bucket -1 = every row)
//
// Digests are order-independent and cross-process-stable (digest.go),
// so two replicas holding the same cells always answer identically.
func (s *Server) handleResync(w *bufio.Writer, parts []string) bool {
	if len(parts) < 3 {
		fmt.Fprintln(w, "ERR RESYNC wants DIGEST or ROWS arguments")
		return false
	}
	nb, err := strconv.Atoi(parts[2])
	if err != nil || nb < 1 || nb > 1<<16 {
		fmt.Fprintln(w, "ERR bad bucket count")
		return false
	}
	switch strings.ToUpper(parts[1]) {
	case "DIGEST":
		if len(parts) != 3 {
			fmt.Fprintln(w, "ERR RESYNC DIGEST wants 1 argument")
			return false
		}
		digs := s.store.BucketDigests(nb)
		fmt.Fprintf(w, "BLOCK %d\n", len(digs))
		for b, d := range digs {
			fmt.Fprintf(w, "%d\t%d\t%d\n", b, d.Count, d.Sum)
		}
	case "ROWS":
		if len(parts) != 4 {
			fmt.Fprintln(w, "ERR RESYNC ROWS wants 2 arguments")
			return false
		}
		bucket, err := strconv.Atoi(parts[3])
		if err != nil || bucket >= nb {
			fmt.Fprintln(w, "ERR bad bucket")
			return false
		}
		rows := s.store.RowDigests(nb, bucket)
		fmt.Fprintf(w, "BLOCK %d\n", len(rows))
		for _, r := range rows {
			fmt.Fprintf(w, "%s\t%d\t%d\n", r.Row, r.Count, r.Sum)
		}
	default:
		fmt.Fprintln(w, "ERR RESYNC wants DIGEST or ROWS")
	}
	return false
}

// ErrNotFound is returned by client lookups of absent cells.
var ErrNotFound = errors.New("tripled: not found")
