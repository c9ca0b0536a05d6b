package tripled

// fuzz_test.go throws arbitrary bytes at the wire protocol from both
// ends and at the persistence log. The contract under attack: malformed
// input of any shape — embedded tabs, huge counts, truncated BATCH
// bodies or blocks, binary noise — yields ERR responses, a clean
// disconnect or a client error, never a panic, a hang, or a corrupted
// store.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/assoc"
)

// fuzzSession drives one server connection over an in-memory pipe with
// the fuzz input as the raw client byte stream, returning after the
// handler exits. The generous deadlines only bound runaway cases; the
// hang guard is the test timeout.
func fuzzSession(t *testing.T, store *Store, data []byte) {
	t.Helper()
	srv := newServer(store, func(s *Server) { s.idleTimeout, s.maxBatch = 2*time.Second, 1024 })
	clientEnd, serverEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer serverEnd.Close()
		srv.serveConn(serverEnd)
	}()
	// Drain responses so synchronous pipe writes never block the handler.
	go io.Copy(io.Discard, clientEnd)

	clientEnd.SetWriteDeadline(time.Now().Add(5 * time.Second))
	clientEnd.Write(data)
	clientEnd.Close()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("server hung on input %q", data)
	}
}

func FuzzServerProtocol(f *testing.F) {
	// Seed corpus: every documented verb, plus the documented failure
	// shapes (truncated BATCH bodies, huge counts, embedded tabs).
	seeds := []string{
		"PUT\tr\tc\tn\t3\n",
		"PUT\tr\tc\ts\thello world\n",
		"GET\tr\tc\n",
		"BATCH\t1\nDEL\tr\tc\n", // a delete is a BATCH body line
		"BATCH\t2\nPUT\ta\tb\tn\t1\nDEL\ta\tb\n",
		"BATCH\t2\nDEL\ta\tb\nDEL\ta\tb\textra\n", // DEL arity
		"CELLS\tr\tr\x00\t1\t\n",                  // one row, bounded to itself
		"CELLS\t\t\t3\t\n",                        // unbounded
		"CELLS\ta\tz\t10\t\n",
		"CELLS\ta\tz\t1\tb\n",                                  // resumed at a cursor
		"PUT\ta\tc\tn\t1\nPUT\tb\tc\tn\t2\nKEYS\ta\tz\t1\ta\n", // a KEYS page at a cursor
		"KEYS\t\t\t3\t\n",                                      // unbounded
		"KEYS\ta\tz\n",                                         // argument count
		"KEYS\ta\tz\t0\t\n",                                    // a limit below one
		"KEYS\ta\tz\tmany\t\n",                                 // a limit that is no number
		"TOPDEG\t5\n",
		"NNZ\n",
		"QUIT\n",
		"BATCH\t3\nPUT\ta\tb\tn\t1\n",                       // truncated body
		"BATCH\t99999999999999999999\n",                     // overflow count
		"BATCH\t1000000000\nPUT\ta\tb\tn\t1\n",              // huge count
		"BATCH\t-5\n",                                       // negative count
		"BATCH\t1\nGET\ta\tb\n",                             // non-mutation in body
		"PUT\tr\tc\tq\tbadmarker\n",                         // unknown value marker
		"PUT\tr\tc\tn\tnot-a-number\n",                      // bad numeric
		"PUT\ttoo\tfew\n",                                   // arity
		"GET\tr\tc\textra\ttabs\teverywhere\n",              // arity
		"TOPDEG\t\t\n",                                      // empty args
		"CELLS\t\t\tx\t\n",                                  // non-numeric limit
		"\t\t\t\n",                                          // tabs only
		"put\tlower\tcase\tn\t1\n",                          // case folding
		"PUT\tr\tc\tn\t1\r\nGET\tr\tc\r\n",                  // CRLF
		"BOGUS COMMAND\nNNZ\n",                              // junk then valid
		strings.Repeat("A", 4096) + "\n",                    // long junk line
		"PUT\t" + strings.Repeat("k", 2000) + "\tc\tn\t1\n", // long key
		"\x00\x01\x02\xff\xfe\n",                            // binary noise
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		store := NewStore()
		fuzzSession(t, store, data)
		verifyStoreInvariants(t, store)
		// The store must stay fully usable after any session.
		store.Put("post", "fuzz", assoc.Num(1))
		if v, ok := store.Get("post", "fuzz"); !ok || v.Num != 1 {
			t.Fatal("store unusable after fuzzed session")
		}
	})
}

func FuzzReplayLog(f *testing.F) {
	f.Add([]byte("PUT\tr\tc\tn\t1.5\nPUT\tr\tc2\ts\thello\n"))
	f.Add([]byte("PUT\tr\tc\tq\tbad\n"))
	f.Add([]byte("X\tr\tc\tn\t1\n"))
	f.Add([]byte("PUT\tr\tc\n"))
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("PUT\tr\tc\tn\tNaN\n"))
	f.Add([]byte("\x00PUT\t\xff\t\t\t\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		store := NewStore()
		store.replayLog(strings.NewReader(string(data)), nil) // error or nil, never panic
		verifyStoreInvariants(t, store)
	})
}

// FuzzMutationLine: the encoders and the one parser agree. For any
// cell, either validate refuses it or the line appendPut renders parses
// back to exactly that one cell — a number bit for bit, NaN as NaN —
// and the same holds for appendDel and the cell's key.
func FuzzMutationLine(f *testing.F) {
	f.Add("r", "c", "hello", 0.0, false)
	f.Add("r", "c", "a\tb\t", 0.0, false)
	f.Add("", "", "", math.Copysign(0, -1), true)
	f.Add("r", "c", "", math.NaN(), true)
	f.Add("r", "c", "", math.Inf(-1), true)
	f.Add("r", "c", "", 5e-324, true)
	f.Add("r\tx", "c", "v", 1.5, true)
	f.Add("r", "c\r", "x\nPUT\tforged\tc\tn\t1", 0.0, false)
	f.Fuzz(func(t *testing.T, row, col, str string, num float64, numeric bool) {
		want := Cell{Row: row, Col: col, Val: assoc.Str(str)}
		if numeric {
			want.Val = assoc.Num(num)
		}
		if want.validate() == nil {
			var m mutations
			line := string(appendPut(nil, row, col, want.Val))
			if err := m.parse([]byte(line)); err != nil {
				t.Fatalf("parse(%q): %v", line, err)
			}
			m.finish()
			if len(m.puts) != 1 || len(m.dels) != 0 {
				t.Fatalf("parse(%q) = %+v, want one PUT", line, m)
			}
			got := m.puts[0]
			sameNum := math.Float64bits(got.Val.Num) == math.Float64bits(want.Val.Num) ||
				math.IsNaN(got.Val.Num) && math.IsNaN(want.Val.Num)
			if got.Row != row || got.Col != col || got.Val.Numeric != numeric || got.Val.Str != want.Val.Str || !sameNum {
				t.Fatalf("parse(%q) = %+v, want %+v", line, got, want)
			}
		}
		if key := (Cell{Row: row, Col: col}); key.validate() == nil {
			var m mutations
			line := string(appendDel(nil, row, col))
			if err := m.parse([]byte(line)); err != nil {
				t.Fatalf("parse(%q): %v", line, err)
			}
			m.finish()
			if len(m.puts) != 0 || len(m.dels) != 1 || m.dels[0] != (CellKey{Row: row, Col: col}) {
				t.Fatalf("parse(%q) = %+v, want DEL of (%q, %q)", line, m, row, col)
			}
		}
	})
}

// FuzzStoreScan reads its input as a script: any sequence of puts,
// deletes, put batches and delete batches over a small key space — so
// rows collide, empty out and return — with, between them, scans of
// any (start, end, limit, cursor): live keys, dead ones, bare prefixes,
// empty, bounds crossed. One put batch shape is a published table's,
// rows whose columns ascend, so the rows it opens are cut from one slab
// and later deleted, overwritten and scanned. Every appendCells page,
// and the appendKeys page of the same arguments, is diffed against the
// map-of-maps model — its cells, its distinct rows — which has never
// seen the index or a slab, and the structural invariants are checked
// after every step.
func FuzzStoreScan(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 4, 0, 0, 0, 0})
	f.Add([]byte{2, 9, 9, 5, 2, 9, 9, 6, 4, 9, 0, 2, 9, 1, 1, 9, 9})
	f.Add([]byte("\x02\x00\x00\x20\x02\x40\x00\x20\x04\x00\xff\x03\x41\x03\x40\x00\x07\x04\x42\x00\x01\x00"))
	f.Add([]byte{0, 200, 1, 0, 100, 1, 0, 50, 1, 4, 255, 255, 1, 50, 1, 200, 1, 4, 0, 0, 0, 0, 1, 100, 1, 4, 100, 0, 2, 50})
	f.Add([]byte{5, 4, 0x01, 0x1f, 0x02, 0x15, 0x40, 0x0a, 0x41, 0x1f, 4, 0, 0, 0, 0,
		1, 0x02, 0, 1, 0x02, 2, 1, 0x02, 4, 5, 3, 0x02, 0x03, 0x01, 0x10, 0x42, 0x1f, 4, 0, 0, 0, 5,
		0, 0x01, 7, 5, 3, 0x43, 0x05, 0x43, 0x02, 0x01, 0x1f, 4, 0x41, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		s, m := NewStore(), newMapStore()
		row := func(b byte) string { return fmt.Sprintf("%c/%02d", 'a'+b>>6, b&63) }
		col := func(b byte) string { return fmt.Sprintf("c%d", b%5) }
		bound := func(b byte) string { // a scan argument: empty, a bare prefix, or a row key live or not
			switch {
			case b == 0:
				return ""
			case b%16 == 15:
				return string(rune('a' + b>>6))
			default:
				return row(b)
			}
		}
		for step := 0; len(data) > 0; step++ {
			switch op := next() % 6; op {
			case 0:
				r, c, v := row(next()), col(next()), assoc.Num(float64(step))
				if err := s.Put(r, c, v); err != nil {
					t.Fatal(err)
				}
				m.put(r, c, v)
			case 1:
				r, c := row(next()), col(next())
				if got, want := s.Delete(r, c), m.del(r, c); got != want {
					t.Fatalf("step %d: Delete(%q,%q) = %v, model %v", step, r, c, got, want)
				}
			case 5: // a table's shape: rows of ascending columns, picked by a bit mask
				var cells []Cell
				for n := int(next() % 8); n > 0; n-- {
					r, mask := row(next()), next()
					for c := byte(0); c < 5; c++ {
						if mask>>c&1 == 1 {
							cells = append(cells, Cell{Row: r, Col: col(c), Val: assoc.Str(fmt.Sprint(step, n, c))})
						}
					}
				}
				if err := s.PutBatch(cells); err != nil {
					t.Fatal(err)
				}
				for _, c := range cells {
					m.put(c.Row, c.Col, c.Val)
				}
			case 2, 3: // a batch: runs of same-row cells, the row changing now and then
				n, r := int(next()%24), row(next())
				var cells []Cell
				var keys []CellKey
				for i := 0; i < n; i++ {
					b := next()
					if b%4 == 0 {
						r = row(b)
					}
					cells = append(cells, Cell{Row: r, Col: col(b >> 2), Val: assoc.Str(fmt.Sprint(step, i))})
					keys = append(keys, CellKey{Row: r, Col: col(b >> 2)})
				}
				if op == 2 {
					if err := s.PutBatch(cells); err != nil {
						t.Fatal(err)
					}
					for _, c := range cells {
						m.put(c.Row, c.Col, c.Val)
					}
					break
				}
				want := 0
				for _, k := range keys {
					if m.del(k.Row, k.Col) {
						want++
					}
				}
				if got := s.deleteBatch(keys); got != want {
					t.Fatalf("step %d: deleteBatch of %d keys = %d, model %d", step, len(keys), got, want)
				}
			case 4:
				start, end, cursor, limit := bound(next()), bound(next()), bound(next()), int(next()%12)-2
				cells, more := s.appendCells(nil, start, end, limit, cursor)
				wantCells, wantMore := m.scanCells(start, end, limit, cursor)
				if !cellsEqual(cells, wantCells) || more != wantMore {
					t.Fatalf("step %d: appendCells(%q,%q,%d,%q) = %d cells more=%v, model %d cells more=%v",
						step, start, end, limit, cursor, len(cells), more, len(wantCells), wantMore)
				}
				keys, more := s.appendKeys(nil, start, end, limit, cursor)
				wantKeys, wantMore := m.scanRows(start, end, limit, cursor)
				if !slices.Equal(keys, wantKeys) || more != wantMore {
					t.Fatalf("step %d: appendKeys(%q,%q,%d,%q) = %q more=%v, model %q more=%v",
						step, start, end, limit, cursor, keys, more, wantKeys, wantMore)
				}
			}
			verifyStoreInvariants(t, s)
		}
		if got, want := storeLog(t, s), m.writeLog(); string(got) != string(want) {
			t.Fatalf("the store's log differs from the model's:\n%s\nmodel:\n%s", got, want)
		}
	})
}

// swallowWrites is a connection whose requests go nowhere, so that a
// request sent after the canned server has hung up fails at the reply
// it never gets and not, depending on who ran first, at the send.
type swallowWrites struct{ net.Conn }

func (swallowWrites) Write(p []byte) (int, error) { return len(p), nil }

// pipeClient returns a client whose server swallows every request and
// answers with the fixed byte stream data, then hangs up.
func pipeClient(t *testing.T, data []byte) *Client {
	t.Helper()
	clientEnd, serverEnd := net.Pipe()
	go func() {
		serverEnd.Write(data)
		serverEnd.Close()
	}()
	t.Cleanup(func() { clientEnd.Close() })                 // also frees a writer the client stopped reading
	clientEnd.SetDeadline(time.Now().Add(30 * time.Second)) // hang guard
	return newClient(swallowWrites{clientEnd}, 0)
}

// scanCellsTextOracle is the CELLS response parser Client.appendPage
// replaced: collect the block's lines as strings, SplitN each.
func scanCellsTextOracle(c *Client, start, end string, limit int, cursor string) ([]Cell, error) {
	resp, err := c.roundTrip(fmt.Sprintf("CELLS\t%s\t%s\t%d\t%s", start, end, limit, cursor))
	if err != nil {
		return nil, err
	}
	lines, err := c.readBlock(resp)
	if err != nil {
		return nil, err
	}
	out := make([]Cell, 0, len(lines))
	for _, line := range lines {
		parts := strings.SplitN(line, "\t", 4)
		if len(parts) != 4 {
			return nil, fmt.Errorf("tripled: malformed cells line %q", line)
		}
		v, err := parseValue(parts[2], parts[3])
		if err != nil {
			return nil, err
		}
		out = append(out, Cell{Row: parts[0], Col: parts[1], Val: v})
	}
	return out, nil
}

// outOfPlace returns the index of the first cell of page — one paged
// reply in arrival order, a KEYS row being a cell with no column — that
// no server (Store.page) sends after cursor under prefix, or -1 when
// there is none. A server's page is whole rows under the prefix, each
// cell after the one before it in (row, col) order, and its first row
// after the cursor unless it is the walk's first page.
func outOfPlace(page []Cell, prefix, cursor string, first bool) int {
	for i, cell := range page {
		var inPlace bool
		switch {
		case !strings.HasPrefix(cell.Row, prefix):
		case i == 0:
			inPlace = first || cell.Row > cursor
		case cell.Row == page[i-1].Row:
			inPlace = cell.Col > page[i-1].Col
		default:
			inPlace = cell.Row > page[i-1].Row
		}
		if !inPlace {
			return i
		}
	}
	return -1
}

// pageRefused is the oracles' refusal of a page no server sends: the
// client's error must classify fatal and name the page's cursor and its
// first row out of place.
type pageRefused struct{ cursor, row string }

func (r *pageRefused) Error() string { return fmt.Sprintf("after cursor %q: row %q", r.cursor, r.row) }

// sameError reports whether got is the error an oracle wants: a refusal
// as pageRefused says, anything else word for word.
func sameError(got, want error) bool {
	if r, ok := want.(*pageRefused); ok {
		return got != nil && Classify(got) == ClassFatal && strings.Contains(got.Error(), r.Error())
	}
	return (got == nil) == (want == nil) && (got == nil || got.Error() == want.Error())
}

// fetchAssocTextOracle is what FetchAssoc promises, spelled out with the
// text parser: the same CELLS pages, each a page a server could send —
// its cells Set one by one, the prefix stripped — or refused.
func fetchAssocTextOracle(c *Client, prefix string, pageRows int) (*assoc.Assoc, error) {
	out := assoc.New()
	cursor := ""
	for first := true; ; first = false {
		cells, err := scanCellsTextOracle(c, prefix, prefixEnd(prefix), pageRows, cursor)
		if err != nil {
			return nil, err
		}
		if len(cells) == 0 {
			return out, nil
		}
		if bad := outOfPlace(cells, prefix, cursor, first); bad >= 0 {
			return nil, &pageRefused{cursor, cells[bad].Row}
		}
		for _, cell := range cells {
			out.Set(strings.TrimPrefix(cell.Row, prefix), cell.Col, cell.Val)
		}
		cursor = cells[len(cells)-1].Row
	}
}

// diffFetchAssoc holds FetchAssoc of a canned response stream to
// fetchAssocTextOracle of the same stream.
func diffFetchAssoc(t *testing.T, data []byte, prefix string) {
	t.Helper()
	got, gotErr := pipeClient(t, data).FetchAssoc(prefix, 512)
	want, wantErr := fetchAssocTextOracle(pipeClient(t, data), prefix, 512)
	if (got == nil) == (gotErr == nil) {
		t.Fatalf("FetchAssoc = %v, %v: want a table or an error", got, gotErr)
	}
	if !sameError(gotErr, wantErr) {
		t.Fatalf("FetchAssoc(%q) error = %v, text oracle = %v", prefix, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.NNZ() != want.NNZ() || !slices.Equal(got.RowKeys(), want.RowKeys()) {
		t.Fatalf("FetchAssoc(%q) = %v rows %q, text oracle = %v rows %q", prefix, got, got.RowKeys(), want, want.RowKeys())
	}
	want.Iterate(func(row, col string, v assoc.Value) bool {
		if g, ok := got.Get(row, col); !ok || !valueEqual(g, v) {
			t.Fatalf("FetchAssoc (%q, %q) = %v, %v; text oracle = %v", row, col, g, ok, v)
		}
		return true
	})
}

// fetchKeysTextOracle is what FetchKeys promises, spelled out with the
// block reader the other replies use: the same KEYS pages, each a page
// a server could send — one key a line, the prefix trimmed, the page's
// last line the next cursor — or refused.
func fetchKeysTextOracle(c *Client, prefix string, pageRows int) ([]string, error) {
	var out []string
	cursor := ""
	for first := true; ; first = false {
		resp, err := c.roundTrip(fmt.Sprintf("KEYS\t%s\t%s\t%d\t%s", prefix, prefixEnd(prefix), pageRows, cursor))
		if err != nil {
			return nil, err
		}
		lines, err := c.readBlock(resp)
		if err != nil {
			return nil, err
		}
		if len(lines) == 0 {
			return out, nil
		}
		page := make([]Cell, len(lines))
		for i, line := range lines {
			page[i].Row = line
		}
		if bad := outOfPlace(page, prefix, cursor, first); bad >= 0 {
			return nil, &pageRefused{cursor, lines[bad]}
		}
		for _, line := range lines {
			out = append(out, strings.TrimPrefix(line, prefix))
		}
		cursor = lines[len(lines)-1]
	}
}

// keysReply is a stream of CELLS replies read as KEYS replies: each
// cell line becomes its row key alone.
func keysReply(cells string) string {
	lines := strings.SplitAfter(cells, "\n")
	for i, line := range lines {
		if row, _, ok := strings.Cut(line, "\t"); ok {
			lines[i] = row + "\n"
		}
	}
	return strings.Join(lines, "")
}

// pagePeer returns a client whose server answers each CELLS or KEYS
// request with the next of the BLOCK replies in reply, acks each BATCH
// whole, and hangs up when the replies run out; requests counts the
// page requests it answered.
func pagePeer(t *testing.T, reply string) (c *Client, requests *atomic.Int32) {
	t.Helper()
	var replies []string
	for lines := strings.SplitAfter(reply, "\n"); len(lines) > 1; {
		n, err := blockLen(strings.TrimSuffix(lines[0], "\n"))
		if err != nil || 1+n > len(lines) {
			t.Fatalf("not a run of BLOCK replies: %q", reply)
		}
		replies, lines = append(replies, strings.Join(lines[:1+n], "")), lines[1+n:]
	}
	clientEnd, serverEnd := net.Pipe()
	requests = new(atomic.Int32)
	go func() {
		defer serverEnd.Close()
		sc := bufio.NewScanner(serverEnd)
		for sc.Scan() {
			switch verb, arg, _ := strings.Cut(sc.Text(), "\t"); verb {
			case "CELLS", "KEYS":
				if len(replies) == 0 {
					return
				}
				requests.Add(1)
				io.WriteString(serverEnd, replies[0])
				replies = replies[1:]
			case "BATCH":
				n, _ := strconv.Atoi(arg)
				for i := 0; i < n && sc.Scan(); i++ {
				}
				fmt.Fprintf(serverEnd, "OK %d\n", n)
			default:
				return
			}
		}
	}()
	t.Cleanup(func() { clientEnd.Close() })
	clientEnd.SetDeadline(time.Now().Add(30 * time.Second)) // hang guard
	return newClient(clientEnd, 0), requests
}

// pageReaders are the three readers of the paged walk, each reading a
// stream of CELLS replies: FetchKeys reads it as KEYS replies.
var pageReaders = map[string]func(t *testing.T, prefix, reply string) (*atomic.Int32, error){
	"FetchAssoc": func(t *testing.T, prefix, reply string) (*atomic.Int32, error) {
		c, requests := pagePeer(t, reply)
		_, err := c.FetchAssoc(prefix, 512)
		return requests, err
	},
	"FetchKeys": func(t *testing.T, prefix, reply string) (*atomic.Int32, error) {
		c, requests := pagePeer(t, keysReply(reply))
		_, err := c.FetchKeys(prefix, 512)
		return requests, err
	},
	"DeletePrefix": func(t *testing.T, prefix, reply string) (*atomic.Int32, error) {
		c, requests := pagePeer(t, reply)
		return requests, c.DeletePrefix(prefix, 512)
	},
}

// malformedPages are CELLS replies no server sends, each with the
// prefix it is read under, the cursor and row its refusal names and the
// page it is refused at. Read as KEYS replies, each line its row alone,
// they break the same contract.
var malformedPages = []struct {
	prefix, reply, cursor, row string
	page                       int32
}{
	{"", "BLOCK 2\nr1\ta\tn\t1\nr2\ta\tn\t2\nBLOCK 2\nr2\tb\tn\t3\nr3\ta\tn\t4\nBLOCK 0\n", "r2", "r2", 2},                       // a row split across pages
	{"", "BLOCK 3\nr1\tb\tn\t1\nr1\ta\tn\t2\nr2\ta\tn\t3\nBLOCK 0\n", "", "r1", 1},                                               // out of column order
	{"", "BLOCK 3\nr1\ta\tn\t1\nr1\ta\ts\tagain\nr2\ta\tn\t3\nBLOCK 0\n", "", "r1", 1},                                           // a column twice
	{"", "BLOCK 4\nr2\ta\tn\t1\nr1\ta\tn\t2\nr2\ta\tn\t3\nr2\tb\tn\t4\nBLOCK 0\n", "", "r1", 1},                                  // rows descending, one of them back again
	{"", "BLOCK 2\nr5\ta\tn\t1\nr6\ta\tn\t2\nBLOCK 2\nr1\ta\tn\t3\nr5\tb\tn\t4\nBLOCK 1\nr7\ta\tn\t5\nBLOCK 0\n", "r6", "r1", 2}, // a page behind the one before it, then a good one
	{"p/", "BLOCK 3\np/r1\ta\tn\t1\nr1\ta\tn\t2\np/r2\ta\tn\t3\nBLOCK 0\n", "", "r1", 1},                                         // a row outside the prefix that is a row inside it without the prefix
	{"", "BLOCK 2\nr1\ta\tn\t1\nr2\ta\tn\t2\nBLOCK 2\nr1\ta\tn\t1\nr2\ta\tn\t2\nBLOCK 0\n", "r2", "r1", 2},                       // the same page again
}

// TestFetchAssocMalformedPages: each reader of the paged walk refuses
// every page above, with a fatal error naming its cursor and row, and
// asks for no page past it. The prefix itself as a row is no such page:
// a server's bounds start there, and a row fetched as a prefix of its own
// reads itself back as the empty key.
func TestFetchAssocMalformedPages(t *testing.T) {
	for _, tc := range malformedPages {
		for name, read := range pageReaders {
			requests, err := read(t, tc.prefix, tc.reply)
			want := &pageRefused{tc.cursor, tc.row}
			if !sameError(err, want) {
				t.Errorf("%s(%q) of %q = %v, want a fatal refusal %s", name, tc.prefix, tc.reply, err, want)
			}
			if n := requests.Load(); n != tc.page {
				t.Errorf("%s(%q) of %q asked for %d pages, want %d: up to the one refused", name, tc.prefix, tc.reply, n, tc.page)
			}
		}
	}
	const emptyKey = "BLOCK 2\np/\ta\tn\t1\np/r1\ta\tn\t2\nBLOCK 0\n"
	if back, err := pipeClient(t, []byte(emptyKey)).FetchAssoc("p/", 512); err != nil || !slices.Equal(back.RowKeys(), []string{"", "r1"}) {
		t.Errorf("FetchAssoc of the prefix as a row = %v, %v", back, err)
	}
	if keys, err := pipeClient(t, []byte(keysReply(emptyKey))).FetchKeys("p/", 512); err != nil || !slices.Equal(keys, []string{"", "r1"}) {
		t.Errorf("FetchKeys of the prefix as a row = %q, %v", keys, err)
	}
}

// TestRepeatedPageIsRefused: a peer that answers every page request
// with the same non-empty page, five times before an empty one, is
// refused at its second answer by each reader of the paged walk, which
// neither reads the page once as if the walk had ended there nor keeps
// asking for as long as the peer answers.
func TestRepeatedPageIsRefused(t *testing.T) {
	reply := strings.Repeat("BLOCK 2\nr1\ta\tn\t1\nr2\ta\tn\t2\n", 5) + "BLOCK 0\n"
	for name, read := range pageReaders {
		requests, err := read(t, "", reply)
		if want := (&pageRefused{"r2", "r1"}); !sameError(err, want) {
			t.Errorf("%s of a repeated page = %v, want a fatal refusal %s", name, err, want)
		}
		if n := requests.Load(); n > 2 {
			t.Errorf("%s asked for %d pages of a peer repeating one, want at most 2", name, n)
		}
	}
}

// FuzzClientCells is the client-side twin of FuzzServerProtocol: any
// bytes a server (or whatever answers on its port) sends in reply to
// CELLS yield cells or an error from appendPage and FetchAssoc — never a
// panic, a hang, or an allocation sized by the peer. appendPage agrees
// cell for cell and error for error with the parser it replaced; a
// reply a server could send fetches as the table its cells make, and
// FetchAssoc refuses every other (fetchAssocTextOracle). The same bytes
// read as KEYS replies hold FetchKeys, the key reader, to the same bar
// against fetchKeysTextOracle; both readers run with a prefix to strip
// and without.
func FuzzClientCells(f *testing.F) {
	seeds := []string{
		"BLOCK 2\nr\tc\tn\t1.5\nr\td\ts\thello world\n",
		"BLOCK 3\nr1\tc\tn\t1\nr1\td\tn\t2\nr2\tc\ts\t\nBLOCK 0\n", // two pages
		"BLOCK 0\n",
		"BLOCK 1\nr\tc\ts\tvalue\twith\ttabs\n",
		"BLOCK 1\nr\tc\tn\tNaN\n",
		"BLOCK 1\n\t\tn\t-0\n",
		"BLOCK 2\nr\tc\tn\t1\n",             // truncated block
		"BLOCK 2\nr\tc\nr\tc\tn\t1\n",       // too few fields, block drained
		"BLOCK 2\nr\tc\nr\tc\tn\t1",         // too few fields, then truncated
		"BLOCK 1\nr\tc\tq\tbadmarker\n",     // unknown value marker
		"BLOCK 1\nr\tc\tn\tnot-a-number\n",  // bad numeric
		"BLOCK 1\nr\tc\tnn\t1\n",            // long marker
		"BLOCK 99999999999999999999\n",      // overflow count
		"BLOCK 4611686018427387904\nr\tc\n", // count no allocation can hold
		"BLOCK -1\n",                        // negative count
		"BLOCK x\n",                         // not a count
		"ERR no such verb\n",                // server error
		"OK\n",                              // wrong response kind
		"",                                  // hangs up at once
		"BLOCK 1\nr\tc\tn\t1\r\n",           // CRLF
		"\x00\x01\x02\xff\xfe\n",            // binary noise
		"BLOCK 1\n" + strings.Repeat("k", 70000) + "\tc\tn\t1\n", // line past the scanner's first buffer
		"BLOCK 2\np/\ta\tn\t1\np/r1\ta\tn\t2\nBLOCK 0\n",         // the prefix itself as a row: an empty key
	}
	for _, tc := range malformedPages {
		seeds = append(seeds, tc.reply)
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := pipeClient(t, data).appendPage(nil, cellsRequest, "", "", 512, "")
		want, wantErr := scanCellsTextOracle(pipeClient(t, data), "", "", 512, "")
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("appendPage error = %v, text parser error = %v", gotErr, wantErr)
		case gotErr != nil && gotErr.Error() != wantErr.Error():
			t.Fatalf("appendPage error = %q, text parser error = %q", gotErr, wantErr)
		case !cellsEqual(got, want):
			t.Fatalf("appendPage = %v, text parser = %v", got, want)
		}
		for _, prefix := range []string{"", "r"} {
			diffFetchAssoc(t, data, prefix)
			keys, keysErr := pipeClient(t, data).FetchKeys(prefix, 512)
			wantKeys, wantKeysErr := fetchKeysTextOracle(pipeClient(t, data), prefix, 512)
			if !sameError(keysErr, wantKeysErr) || !slices.Equal(keys, wantKeys) {
				t.Fatalf("FetchKeys(%q) = %q, %v; text oracle %q, %v", prefix, keys, keysErr, wantKeys, wantKeysErr)
			}
		}
	})
}

// resyncFrame is a RESYNC reply as handleResync writes it: a DIGEST
// block when rows is nil, a ROWS block otherwise.
func resyncFrame(digs []BucketDigest, rows []RowDigestEntry) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "BLOCK %d\n", len(digs)+len(rows))
	for i, d := range digs {
		fmt.Fprintf(&b, "%d\t%d\t%d\n", i, d.Count, d.Sum)
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "%s\t%d\t%d\n", r.Row, r.Count, r.Sum)
	}
	return []byte(b.String())
}

// resyncBody returns the lines of the block data opens with, as the
// client's scanner cuts them, and whether each is "key\tcount\tsum" with
// both numbers numeric.
func resyncBody(data []byte) (lines [][]string, wellFormed bool) {
	all := strings.Split(string(data), "\n")
	n, err := blockLen(strings.TrimSuffix(all[0], "\r"))
	if err != nil || n > len(all)-1 {
		return nil, false
	}
	wellFormed = true
	for _, line := range all[1 : 1+n] {
		parts := strings.Split(strings.TrimSuffix(line, "\r"), "\t")
		lines = append(lines, parts)
		digits := func(s string) bool { return s != "" && strings.Trim(s, "0123456789") == "" }
		// The count may carry a sign (Atoi), the sum may not (ParseUint).
		wellFormed = wellFormed && len(parts) == 3 &&
			digits(strings.TrimPrefix(strings.TrimPrefix(parts[1], "+"), "-")) && digits(parts[2])
	}
	return lines, wellFormed
}

// FuzzClientResync covers the client's last un-fuzzed parser, the
// RESYNC DIGEST / ROWS replies a repair reads: arbitrary server bytes
// never panic; a reply is accepted only if every line is
// "key\tcount\tsum" with numeric counts and sums and, for DIGEST, a
// bucket inside [0, nb); and an accepted reply reads back what was
// sent, line for line.
func FuzzClientResync(f *testing.F) {
	const nb = 16
	// The frames a repair exchanges: both replies of a store holding a
	// few rows, and of an empty one.
	store := NewStore()
	f.Add(resyncFrame(store.BucketDigests(nb), nil))
	f.Add(resyncFrame(nil, store.RowDigests(nb, -1)))
	for i := 0; i < 40; i++ {
		store.Put(fmt.Sprintf("r%03d", i), fmt.Sprintf("c%d", i%3), assoc.Num(float64(i)))
	}
	f.Add(resyncFrame(store.BucketDigests(nb), nil))
	f.Add(resyncFrame(nil, store.RowDigests(nb, -1)))
	f.Add(resyncFrame(nil, store.RowDigests(nb, 3)))
	for _, s := range []string{
		"BLOCK 1\n16\t1\t1\n",                   // bucket == nb
		"BLOCK 1\n-1\t1\t1\n",                   // negative bucket
		"BLOCK 2\n3\t1\t1\n3\t2\t2\n",           // a bucket answered twice: the later line stands
		"BLOCK 1\n3\t1\n",                       // short line
		"BLOCK 1\n3\t1\t1\t1\n",                 // long line
		"BLOCK 1\n3\tx\t1\n",                    // non-numeric count
		"BLOCK 1\n3\t1\t-1\n",                   // negative sum
		"BLOCK 1\n3\t1\t18446744073709551616\n", // sum past uint64
		"BLOCK 1\nrow with spaces\t+2\t007\r\n", // what Atoi lets through
		"BLOCK 2\n3\t1\t1\n",                    // truncated block
		"BLOCK 99999999999999999999\n",          // overflow count
		"BLOCK 4611686018427387904\n3\t1\t1\n",  // count no allocation can hold
		"ERR bad bucket count\n", "OK\n", "", "\x00\xff\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lines, wellFormed := resyncBody(data)

		digs, err := pipeClient(t, data).BucketDigests(nb)
		if err == nil {
			want := make([]BucketDigest, nb)
			for _, parts := range lines {
				b, err := strconv.Atoi(parts[0])
				if !wellFormed || err != nil || b < 0 || b >= nb {
					t.Fatalf("BucketDigests accepted the line %q", parts)
				}
				want[b].Count, _ = strconv.Atoi(parts[1])
				want[b].Sum, _ = strconv.ParseUint(parts[2], 10, 64)
			}
			if !bucketsEqual(digs, want) {
				t.Fatalf("BucketDigests = %v, the reply said %v", digs, want)
			}
			if again, err := pipeClient(t, resyncFrame(digs, nil)).BucketDigests(nb); err != nil || !bucketsEqual(again, digs) {
				t.Fatalf("its own frame read back as %v, %v", again, err)
			}
		}

		rows, err := pipeClient(t, data).RowDigests(nb, -1)
		if err == nil {
			if !wellFormed || len(rows) != len(lines) {
				t.Fatalf("RowDigests accepted %q as %v", data, rows)
			}
			for i, parts := range lines {
				count, _ := strconv.Atoi(parts[1])
				sum, _ := strconv.ParseUint(parts[2], 10, 64)
				if rows[i] != (RowDigestEntry{Row: parts[0], Count: count, Sum: sum}) {
					t.Fatalf("row %d = %+v, the reply said %q", i, rows[i], parts)
				}
			}
		}
	})
}
