package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// pcap file format constants (classic libpcap, microsecond resolution).
const (
	magicMicro   = 0xa1b2c3d4
	versionMajor = 2
	versionMinor = 4
	linkEthernet = 1
	maxSnapLen   = 262144
)

// Writer emits a libpcap capture file. It buffers internally; Flush (or
// the caller's own sync) must run before the underlying stream is read.
type Writer struct {
	w       *bufio.Writer
	snapLen int
	count   int
	hdr     [16]byte
}

// NewWriter writes the pcap global header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicro)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	binary.LittleEndian.PutUint32(hdr[16:20], maxSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], linkEthernet)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw, snapLen: maxSnapLen}, nil
}

// writeFrame appends one raw frame with the given capture timestamp.
func (w *Writer) writeFrame(ts time.Time, frame []byte) error {
	capLen := len(frame)
	if capLen > w.snapLen {
		capLen = w.snapLen
	}
	binary.LittleEndian.PutUint32(w.hdr[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(w.hdr[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(w.hdr[8:12], uint32(capLen))
	binary.LittleEndian.PutUint32(w.hdr[12:16], uint32(len(frame)))
	if _, err := w.w.Write(w.hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(frame[:capLen]); err != nil {
		return err
	}
	w.count++
	return nil
}

// WritePacket marshals and appends a decoded packet.
func (w *Writer) WritePacket(p *Packet) error {
	frame, err := p.marshalFrame()
	if err != nil {
		return err
	}
	return w.writeFrame(p.Time, frame)
}

// Count reports the number of records written so far.
func (w *Writer) Count() int { return w.count }

// Flush drains the internal buffer to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader parses a libpcap capture file sequentially.
type Reader struct {
	r       *bufio.Reader
	swapped bool
	buf     []byte
	err     error // deferred NextBatch error: reported by the call after a short batch
}

// ErrBadMagic indicates the stream is not a classic pcap file.
var ErrBadMagic = errors.New("pcap: bad magic number")

// NewReader validates the global header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	swapped := false
	switch magic {
	case magicMicro:
	case bswap32(magicMicro):
		swapped = true
	default:
		return nil, ErrBadMagic
	}
	link := readU32(hdr[20:24], swapped)
	if link != linkEthernet {
		return nil, fmt.Errorf("pcap: unsupported link type %d", link)
	}
	return &Reader{r: br, swapped: swapped, buf: make([]byte, 0, 2048)}, nil
}

func readU32(b []byte, swapped bool) uint32 {
	if swapped {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

func bswap32(v uint32) uint32 {
	return v<<24 | v>>24 | (v&0xff00)<<8 | (v>>8)&0xff00
}
