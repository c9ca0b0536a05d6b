package tripled

// durable.go wires the WAL under the server: with a DataDir configured,
// every mutation is framed as one WAL record and appended *before* the
// store applies it or the client sees an ack (log-then-apply), and
// Serve replays snapshot + tail before accepting connections. A whole
// BATCH is one record, so a crash can never surface a partial batch:
// either the frame is complete and the batch replays, or the torn
// frame is truncated and the batch never happened — exactly the
// atomicity the protocol promises.
//
// The durability mutex serializes append+apply so the WAL's record
// order equals the store's apply order; without it two same-cell
// writers could ack in one order and log in the other, and a replay
// would resurrect the loser. Batches amortize the serialization, which
// is what keeps the WAL(interval) ingest overhead inside its 1.5x
// benchmark gate.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/tripled/wal"
)

// DefaultWALCompactBytes is the appended-bytes threshold past which a
// mutation triggers snapshot-then-truncate compaction.
const DefaultWALCompactBytes = 8 << 20

// WithDataDir makes the server durable: mutations append to a WAL in
// dir before acking, and Serve recovers snapshot + tail from dir
// before listening.
func WithDataDir(dir string) Option {
	return func(s *Server) { s.dataDir = dir }
}

// WithWALSyncPolicy selects wal.SyncAlways or wal.SyncInterval (the
// default) for the data dir's log.
func WithWALSyncPolicy(policy string) Option {
	return func(s *Server) { s.walOpts.SyncPolicy = policy }
}

// Recovery describes what a durable server replayed at startup.
type Recovery struct {
	Enabled         bool
	HadSnapshot     bool
	SnapshotCells   int           // cells loaded from the snapshot
	TailRecords     int           // WAL records replayed after the snapshot
	TailOps         int           // mutations inside those records
	TornBytes       int64         // bytes truncated from a torn tail
	DroppedSegments int           // segments dropped past the tear
	Wall            time.Duration // total recovery time
}

// Recovery reports the startup replay; zero-valued when the server has
// no data dir.
func (s *Server) Recovery() Recovery { return s.recovery }

// openWAL recovers the store from the data dir and leaves the WAL
// ready for appends. Called from Serve before the listener accepts.
func (s *Server) openWAL() error {
	start := time.Now()
	lg, err := wal.Open(s.dataDir, s.walOpts)
	if err != nil {
		return err
	}
	rec := Recovery{Enabled: true}
	snap, err := lg.Snapshot()
	if err != nil {
		lg.Close()
		return err
	}
	buf := make([]byte, 1<<16) // one line buffer for the snapshot and every record
	if snap != nil {
		rec.HadSnapshot = true
		before := s.store.NNZ()
		_, err := s.store.replayLog(snap, buf)
		snap.Close()
		if err != nil {
			lg.Close()
			return fmt.Errorf("tripled: snapshot replay: %w", err)
		}
		rec.SnapshotCells = s.store.NNZ() - before
	}
	if err := lg.Replay(func(payload []byte) error {
		// A CRC-valid record that does not parse is a logic bug, not a
		// torn tail; refusing loudly beats replaying garbage.
		n, err := s.store.replayLog(bytes.NewReader(payload), buf)
		if err != nil {
			return err
		}
		rec.TailRecords++
		rec.TailOps += n
		return nil
	}); err != nil {
		lg.Close()
		return fmt.Errorf("tripled: wal replay: %w", err)
	}
	st := lg.Stats()
	rec.TornBytes, rec.DroppedSegments = st.TornBytes, st.DroppedSegments
	rec.Wall = time.Since(start)
	s.wal = lg
	s.recovery = rec
	return nil
}

// applyOps logs ops as one WAL record (when durable) and applies them
// to the store as one write. Append and apply happen under the
// durability mutex so WAL order is apply order.
func (s *Server) applyOps(ops *mutations) error {
	if ops.len() == 0 {
		return nil
	}
	if s.wal == nil {
		s.store.applyRuns(ops)
		return nil
	}
	s.durMu.Lock()
	defer s.durMu.Unlock()
	payload := encodeOps(ops)
	if err := s.wal.Append(payload); err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	s.store.applyRuns(ops)
	s.walBytes += int64(len(payload))
	if s.walCompactBytes > 0 && s.walBytes >= s.walCompactBytes {
		if err := s.compactLocked(); err != nil {
			return fmt.Errorf("wal compact: %w", err)
		}
	}
	return nil
}

// compactLocked renders the store into the snapshot and truncates the
// log. Holding durMu, no mutation can slip between the WriteLog
// snapshot and the segment truncation, so the snapshot covers exactly
// the records dropped.
func (s *Server) compactLocked() error {
	if err := s.wal.Compact(func(w io.Writer) error { return s.store.WriteLog(w) }); err != nil {
		return err
	}
	s.walBytes = 0
	return nil
}

// replayChunk is how many logged mutations recovery parses before it
// applies them, so replaying a snapshot never holds the whole table
// twice.
const replayChunk = 1024

// replayLog applies the mutation lines r holds — the WriteLog snapshot,
// or one WAL record — to s: each line goes through the parser requests
// take, and every replayChunk of them through applyRuns, in order. buf
// is the scanner's line buffer, shared across calls (nil allocates
// one). It returns the mutations applied, and on a line that does not
// parse an error naming it.
func (s *Store) replayLog(r io.Reader, buf []byte) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(buf, 1<<24)
	var ops mutations
	applied, line := 0, 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if err := ops.parse(sc.Bytes()); err != nil {
			return applied, fmt.Errorf("line %d %q: %w", line, sc.Text(), err)
		}
		if ops.len() == replayChunk {
			s.applyRuns(&ops)
			applied += ops.len()
			ops.reset()
		}
	}
	s.applyRuns(&ops)
	return applied + ops.len(), sc.Err()
}

// applyRuns applies parsed ops under one write lock, so a reader sees
// all of them or none, run by run: each run of consecutive PUTs or DELs
// as one store batch (so same-cell PUT/DEL sequences keep their order).
// The ops were validated when (*mutations).parse read them — off the
// wire, or off the log being replayed — so the store takes the PUTs as
// they stand.
func (s *Store) applyRuns(ops *mutations) {
	ops.finish()
	puts, dels := ops.puts, ops.dels
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, run := range ops.runs {
		if run.del {
			s.deleteBatch(dels[:run.n])
			dels = dels[run.n:]
		} else {
			s.putCells(puts[:run.n])
			puts = puts[run.n:]
		}
	}
}

// encodeOps frames ops as one WAL payload: their mutation lines, as a
// BATCH body spells them, each ended by a newline. Keys and values were
// validated at parse time, so the lines cannot be corrupted from here.
func encodeOps(ops *mutations) []byte {
	ops.finish()
	var b []byte
	puts, dels := ops.puts, ops.dels
	for _, run := range ops.runs {
		for i := 0; i < run.n; i++ {
			if run.del {
				b = appendDel(b, dels[i].Row, dels[i].Col)
			} else {
				b = appendPut(b, puts[i].Row, puts[i].Col, puts[i].Val)
			}
			b = append(b, '\n')
		}
		if run.del {
			dels = dels[run.n:]
		} else {
			puts = puts[run.n:]
		}
	}
	return b
}
