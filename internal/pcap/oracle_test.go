package pcap

// oracle_test.go keeps the copying per-record reader NextBatch replaced:
// the differential oracle NextBatch is tested and fuzzed against
// (TestNextBatchMatchesReadPacket, FuzzReaderBatch).

import (
	"fmt"
	"io"
	"time"
)

// readFrame returns the next record's timestamp and raw bytes, copied
// into the Reader's frame buffer (so valid until the next read).
// Returns io.EOF at end of file.
func (r *Reader) readFrame() (time.Time, []byte, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return time.Time{}, nil, io.EOF
		}
		return time.Time{}, nil, fmt.Errorf("pcap: reading record header: %w", err)
	}
	sec := readU32(hdr[0:4], r.swapped)
	usec := readU32(hdr[4:8], r.swapped)
	capLen := readU32(hdr[8:12], r.swapped)
	if capLen > maxSnapLen {
		return time.Time{}, nil, fmt.Errorf("pcap: record capture length %d exceeds snaplen", capLen)
	}
	if cap(r.buf) < int(capLen) {
		r.buf = make([]byte, capLen)
	}
	r.buf = r.buf[:capLen]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return time.Time{}, nil, fmt.Errorf("pcap: truncated record body: %w", err)
	}
	ts := time.Unix(int64(sec), int64(usec)*1000).UTC()
	return ts, r.buf, nil
}

// readPacket decodes the next IPv4 packet, silently skipping non-IPv4
// records. Returns io.EOF at end of file.
func (r *Reader) readPacket(p *Packet) error {
	for {
		ts, frame, err := r.readFrame()
		if err != nil {
			return err
		}
		switch err := p.unmarshalFrame(frame); err {
		case nil:
			p.Time = ts
			return nil
		case ErrNotIPv4:
			continue
		default:
			return err
		}
	}
}
