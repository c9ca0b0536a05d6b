// Package wal is the durable write-ahead log behind a tripled server:
// segmented append-only files of length-prefixed, CRC32C-framed
// records, plus a snapshot file written by snapshot-then-truncate
// compaction. The package is payload-agnostic — records and the
// snapshot are opaque bytes (the tripled server writes both as the
// PUT/DEL lines its clients send) — so it carries no store dependency
// and fuzzes in isolation.
//
// Frame format, little-endian:
//
//	[u32 payload length][u32 CRC32C(payload)][payload bytes]
//
// Recovery contract: Open scans every segment in order and truncates
// the log at the first bad frame — a partial header, a length of zero
// (zero-filled tail) or beyond MaxRecord, a short payload, or a CRC
// mismatch — discarding any later segments. It never refuses to start
// over a torn tail: the payloads that survive are always exactly a
// prefix of the payloads appended, which is what makes an atomic
// multi-mutation record (one BATCH, one frame) atomic across a crash.
//
// Sync policy: "always" fsyncs after every append (acknowledged means
// on stable storage); "interval" issues the write syscall per append
// (acknowledged means in the kernel — it survives SIGKILL but not
// power loss) and fsyncs on a background ticker.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Sync policies.
const (
	SyncAlways   = "always"
	SyncInterval = "interval"
)

// On-disk names. Segments sort lexically in append order.
const (
	SnapshotName = "snapshot"
	snapshotTmp  = "snapshot.tmp"
	segPrefix    = "segment-"
	segSuffix    = ".wal"
)

const frameHeaderLen = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Options tune a Log; zero values take the documented defaults.
type Options struct {
	SyncPolicy   string        // SyncAlways | SyncInterval; default SyncInterval
	SyncEvery    time.Duration // interval policy's fsync period; default 50ms
	SegmentBytes int64         // rotate the active segment past this size; default 4 MiB
	MaxRecord    int           // largest appendable payload; default 16 MiB
}

func (o Options) withDefaults() (Options, error) {
	switch o.SyncPolicy {
	case "":
		o.SyncPolicy = SyncInterval
	case SyncAlways, SyncInterval:
	default:
		return o, fmt.Errorf("wal: unknown sync policy %q (want %q or %q)",
			o.SyncPolicy, SyncAlways, SyncInterval)
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 50 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.MaxRecord <= 0 {
		o.MaxRecord = 16 << 20
	}
	return o, nil
}

// RecoveryStats describes what Open found and repaired.
type RecoveryStats struct {
	HadSnapshot     bool
	Segments        int   // segments present after repair
	TailRecords     int   // valid records across all segments
	TornBytes       int64 // bytes cut from the segment holding the first bad frame
	DroppedSegments int   // whole segments discarded past the torn one
}

// Log is a segmented write-ahead log rooted at one directory. Append,
// Compact and Close are safe for concurrent use; Replay and
// Snapshot are meant for the single-threaded recovery pass before
// serving starts.
type Log struct {
	dir string
	opt Options

	mu     sync.Mutex
	f      *os.File // active segment, opened for append
	seq    uint64   // active segment number
	segs   []uint64 // all live segment numbers, ascending
	size   int64    // active segment size
	dirty  bool     // interval policy: bytes written since last fsync
	closed bool

	stats RecoveryStats

	stop chan struct{} // interval syncer shutdown
	done chan struct{}
}

func segName(seq uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(segPrefix):len(name)-len(segSuffix)], 10, 64)
	return n, err == nil
}

// Open creates or recovers the log in dir (created if absent): leftover
// snapshot temp files are removed, every segment is scanned, the tail
// is truncated at the first bad frame, and later segments are dropped.
// The returned log is ready for Snapshot + Replay, then Append.
func Open(dir string, opt Options) (*Log, error) {
	opt, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	os.Remove(filepath.Join(dir, snapshotTmp)) // interrupted compaction
	l := &Log{dir: dir, opt: opt}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.Name() == SnapshotName {
			l.stats.HadSnapshot = true
		}
		if seq, ok := parseSegName(e.Name()); ok {
			l.segs = append(l.segs, seq)
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i] < l.segs[j] })

	if err := l.repairTail(); err != nil {
		return nil, err
	}
	if len(l.segs) == 0 {
		l.segs = []uint64{1}
	}
	l.seq = l.segs[len(l.segs)-1]
	f, err := os.OpenFile(l.segPath(l.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	l.f, l.size = f, st.Size()
	l.stats.Segments = len(l.segs)

	if opt.SyncPolicy == SyncInterval {
		l.stop, l.done = make(chan struct{}), make(chan struct{})
		go l.syncLoop()
	}
	return l, nil
}

func (l *Log) segPath(seq uint64) string { return filepath.Join(l.dir, segName(seq)) }

// repairTail scans segments in order, truncating the first one holding
// a bad frame and deleting everything after it.
func (l *Log) repairTail() error {
	for k, seq := range l.segs {
		path := l.segPath(seq)
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		records := 0
		validOff, err := scanFrames(f, l.opt.MaxRecord, func([]byte) error {
			records++
			return nil
		})
		f.Close()
		if err != nil {
			return err
		}
		l.stats.TailRecords += records
		if validOff == st.Size() {
			continue // clean segment
		}
		// Torn tail: cut this segment at the last valid frame and drop
		// every later segment (they were written after the tear and
		// cannot be ordered against the lost records).
		l.stats.TornBytes = st.Size() - validOff
		if err := os.Truncate(path, validOff); err != nil {
			return err
		}
		for _, later := range l.segs[k+1:] {
			if err := os.Remove(l.segPath(later)); err != nil {
				return err
			}
			l.stats.DroppedSegments++
		}
		l.segs = l.segs[:k+1]
		break
	}
	return nil
}

// Stats reports what Open found.
func (l *Log) Stats() RecoveryStats { return l.stats }

// scanFrames decodes frames from r, calling fn for each valid payload,
// and returns the byte offset just past the last valid frame. A torn
// tail — partial header, zero or oversized length, short payload, CRC
// mismatch — ends the scan at that offset without error; only I/O
// failures and fn errors are errors.
func scanFrames(r io.Reader, maxRecord int, fn func(payload []byte) error) (int64, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var off int64
	var hdr [frameHeaderLen]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, nil
			}
			return off, err
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		// length 0 is never written (Append refuses empty payloads), so a
		// zero length is a zero-filled tail, not an empty record.
		if length == 0 || int64(length) > int64(maxRecord) {
			return off, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return off, nil
			}
			return off, err
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return off, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, err
			}
		}
		off += int64(frameHeaderLen) + int64(length)
	}
}

// Snapshot opens the snapshot file for reading; (nil, nil) when no
// compaction has run yet.
func (l *Log) Snapshot() (io.ReadCloser, error) {
	f, err := os.Open(filepath.Join(l.dir, SnapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	return f, err
}

// Replay streams every record payload in append order. Meant for the
// recovery pass after Open (apply the snapshot first); concurrent
// appends during a replay are not part of the contract.
func (l *Log) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	segs := append([]uint64(nil), l.segs...)
	l.mu.Unlock()
	for _, seq := range segs {
		f, err := os.Open(l.segPath(seq))
		if err != nil {
			return err
		}
		_, err = scanFrames(f, l.opt.MaxRecord, fn)
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// Append frames payload and writes it to the active segment, rotating
// first when the segment is past SegmentBytes. Under SyncAlways the
// record is fsynced before Append returns; under SyncInterval it has
// reached the kernel (crash-of-process safe) and the background ticker
// makes it power-loss safe within SyncEvery.
func (l *Log) Append(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("wal: empty payload")
	}
	if len(payload) > l.opt.MaxRecord {
		return fmt.Errorf("wal: payload %d bytes exceeds max record %d", len(payload), l.opt.MaxRecord)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.size >= l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	frame := make([]byte, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[frameHeaderLen:], payload)
	if _, err := l.f.Write(frame); err != nil {
		return err
	}
	l.size += int64(len(frame))
	if l.opt.SyncPolicy == SyncAlways {
		return l.f.Sync()
	}
	l.dirty = true
	return nil
}

// rotateLocked seals the active segment and opens the next one.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.seq++
	f, err := os.OpenFile(l.segPath(l.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f, l.size, l.dirty = f, 0, false
	l.segs = append(l.segs, l.seq)
	return l.syncDir()
}

func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opt.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.dirty {
				l.f.Sync()
				l.dirty = false
			}
			l.mu.Unlock()
		}
	}
}

// Compact writes a snapshot of the caller's current state (write must
// render it — the tripled server passes Store.WriteLog) and truncates
// the log: snapshot.tmp is written, fsynced and renamed over the
// snapshot, the directory is fsynced, every segment is deleted, and a
// fresh active segment opens. The caller must guarantee the rendered
// state includes every record appended so far (the tripled server holds
// its durability mutex across log-append and store-apply, so rendering
// the store under that mutex does).
func (l *Log) Compact(write func(w io.Writer) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	tmpPath := filepath.Join(l.dir, snapshotTmp)
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(tmp, 1<<16)
	if err := write(bw); err == nil {
		err = bw.Flush()
	} else {
		err = fmt.Errorf("wal: snapshot render: %w", err)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, filepath.Join(l.dir, SnapshotName)); err != nil {
		return err
	}
	if err := l.syncDir(); err != nil {
		return err
	}
	// The snapshot is durable; the old segments are now redundant.
	if err := l.f.Close(); err != nil {
		return err
	}
	for _, seq := range l.segs {
		if err := os.Remove(l.segPath(seq)); err != nil {
			return err
		}
	}
	l.seq++
	f, err := os.OpenFile(l.segPath(l.seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f, l.size, l.dirty = f, 0, false
	l.segs = []uint64{l.seq}
	l.stats.HadSnapshot = true
	return l.syncDir()
}

// syncDir fsyncs the log directory so renames and segment creations
// survive a crash of the machine, not just of the process.
func (l *Log) syncDir() error {
	d, err := os.Open(l.dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close stops the background syncer, fsyncs and closes the active
// segment. The log is unusable after.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.stop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.done
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
