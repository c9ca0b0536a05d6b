package pcap

// batch.go is the decode path of the Reader: NextBatch amortizes the
// per-record call overhead across a caller-owned []Packet slab and
// decodes frames zero-copy straight out of the bufio read-ahead buffer
// (Peek/Discard, no intermediate frame copy); records larger than the
// read-ahead buffer are copied out through the Reader's frame buffer.
// The copying per-record reader it replaced is the differential oracle
// the tests keep (FuzzReaderBatch, TestNextBatchMatchesReadPacket).

import (
	"bufio"
	"fmt"
	"io"
	"time"
)

// recordHdrLen is the per-record header size of the classic pcap format.
const recordHdrLen = 16

// NextBatch decodes up to len(dst) IPv4 packets into dst and returns
// the number decoded. Non-IPv4 records are silently skipped.
//
// Ownership: dst is caller-owned and every Packet written into it is a
// fully decoded value — nothing in dst aliases the Reader's internal
// buffers, so slabs may be retained, reused Reset-style across calls,
// or handed to other goroutines freely. The steady-state path allocates
// nothing.
//
// Returns (n, nil) with n > 0 while packets remain; (0, io.EOF) at a
// clean end of file; (0, err) on a malformed record. A short batch
// (0 < n < len(dst)) means the next call will return 0 with the
// stream's terminal error, so callers may treat any short batch as
// end-of-stream. Errors are sticky: once NextBatch reports a non-EOF
// error the Reader is mid-record and further calls return the same
// error.
func (r *Reader) NextBatch(dst []Packet) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n := 0
	for n < len(dst) {
		ts, frame, err := r.readFrameZC()
		if err != nil {
			if n == 0 {
				if err != io.EOF {
					r.err = err
				}
				return 0, err
			}
			if err != io.EOF {
				r.err = err
			}
			return n, nil
		}
		p := &dst[n]
		switch uerr := p.unmarshalFrame(frame); uerr {
		case nil:
			p.Time = ts
			n++
		case ErrNotIPv4:
			continue
		default:
			if n == 0 {
				r.err = uerr
				return 0, uerr
			}
			r.err = uerr
			return n, nil
		}
	}
	return n, nil
}

// readFrameZC returns the next record's timestamp and raw frame bytes
// without copying when the whole record fits in the read-ahead buffer:
// the returned slice aliases bufio storage and is valid only until the
// next read on r, which is why NextBatch fully decodes each frame into
// its caller-owned Packet before advancing. Records larger than the
// read-ahead buffer fall back to copying into the Reader's frame
// buffer.
func (r *Reader) readFrameZC() (time.Time, []byte, error) {
	hdr, err := r.r.Peek(recordHdrLen)
	if err != nil {
		if err == io.EOF && len(hdr) == 0 {
			return time.Time{}, nil, io.EOF
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return time.Time{}, nil, fmt.Errorf("pcap: reading record header: %w", err)
	}
	sec := readU32(hdr[0:4], r.swapped)
	usec := readU32(hdr[4:8], r.swapped)
	capLen := readU32(hdr[8:12], r.swapped)
	if capLen > maxSnapLen {
		return time.Time{}, nil, fmt.Errorf("pcap: record capture length %d exceeds snaplen", capLen)
	}
	ts := time.Unix(int64(sec), int64(usec)*1000).UTC()
	total := recordHdrLen + int(capLen)
	body, err := r.r.Peek(total)
	switch {
	case err == nil:
		// The whole record is buffered: Discard just advances the read
		// pointer (no refill), so body stays valid until the next Peek.
		r.r.Discard(total)
		return ts, body[recordHdrLen:], nil
	case err == bufio.ErrBufferFull:
		// Record larger than the read-ahead buffer: copy it out through
		// the Reader's frame buffer.
		r.r.Discard(recordHdrLen)
		if cap(r.buf) < int(capLen) {
			r.buf = make([]byte, capLen)
		}
		r.buf = r.buf[:capLen]
		if _, err := io.ReadFull(r.r, r.buf); err != nil {
			return time.Time{}, nil, fmt.Errorf("pcap: truncated record body: %w", err)
		}
		return ts, r.buf, nil
	default:
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return time.Time{}, nil, fmt.Errorf("pcap: truncated record body: %w", err)
	}
}
