package tripled

// pipeline.go is the client-side ingest fast path: mutations are
// buffered into BATCH requests and multiple batches are kept in flight
// before their acks are read, so a month-table load pays one round trip
// per thousands of cells instead of one per cell. Batch bodies are
// assembled in a reusable byte buffer — no per-operation allocations.

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/assoc"
)

// maxInflight bounds how many unacknowledged BATCH requests a Pipeline
// keeps outstanding. Acks are a few bytes each, so a small window is
// enough to hide the round trip without risking a TCP write/write
// deadlock on a full socket buffer.
const maxInflight = 32

// Pipeline batches and pipelines mutations on one client connection.
// Create with Client.StartPipeline; the client must not be used for
// other requests until Close (or Flush) returns. Not safe for
// concurrent use, like the client itself.
type Pipeline struct {
	c         *Client
	batchSize int
	row       string // the last row key Put validated
	body      []byte // assembled body lines of the batch being built
	count     int    // ops in body
	inflight  []int  // op counts of sent-but-unacked batches
	err       error  // first transport/protocol error; sticky
}

// StartPipeline begins a batched, pipelined mutation stream with
// batchSize operations per BATCH request (values < 1 get a default).
func (c *Client) StartPipeline(batchSize int) *Pipeline {
	if batchSize < 1 {
		batchSize = 1024
	}
	return &Pipeline{c: c, batchSize: batchSize}
}

// Put queues a cell write. Errors surface on the next Flush/Close.
func (p *Pipeline) Put(row, col string, v assoc.Value) {
	if p.err != nil {
		return
	}
	if row != p.row { // tables arrive row-major: a row's key is checked once, not once per cell
		if p.err = validateKey(row); p.err != nil {
			return
		}
		p.row = row
	}
	if p.err = validateWire(col, v); p.err != nil {
		return
	}
	p.body = append(appendPut(p.body, row, col, v), '\n')
	p.bumped()
}

// Delete queues a cell delete (absent cells are not an error).
func (p *Pipeline) Delete(row, col string) {
	if p.err != nil {
		return
	}
	if p.err = validateKey(row); p.err == nil {
		p.err = validateKey(col)
	}
	if p.err != nil {
		return
	}
	p.body = append(appendDel(p.body, row, col), '\n')
	p.bumped()
}

func (p *Pipeline) bumped() {
	if p.count++; p.count >= p.batchSize {
		p.sendBatch()
	}
}

// sendBatch writes the assembled batch without waiting for its ack,
// draining old acks only when the in-flight window is full.
func (p *Pipeline) sendBatch() {
	if p.err != nil || p.count == 0 {
		return
	}
	if len(p.inflight) >= maxInflight {
		p.recvAck()
		if p.err != nil {
			return
		}
	}
	if _, err := fmt.Fprintf(p.c.w, "BATCH\t%d\n", p.count); err != nil {
		p.err = err
		return
	}
	if _, err := p.c.w.Write(p.body); err != nil {
		p.err = err
		return
	}
	p.inflight = append(p.inflight, p.count)
	p.body = p.body[:0]
	p.count = 0
}

// recvAck consumes the oldest outstanding BATCH ack.
func (p *Pipeline) recvAck() {
	n := p.inflight[0]
	p.inflight = append(p.inflight[:0], p.inflight[1:]...) // keeps the window's array for the next batches
	resp, err := p.c.recv()
	if err != nil {
		p.err = err
		return
	}
	if err := p.c.expectOK(resp); err != nil {
		p.err = err
		return
	}
	got, err := strconv.Atoi(strings.TrimPrefix(resp, "OK "))
	if err != nil || got != n {
		p.err = fmt.Errorf("tripled: batch ack %q for %d-op batch", resp, n)
	}
}

// Flush sends any partial batch and waits for every outstanding ack.
// After an error it still drains the remaining acks (stopping only if
// the transport itself dies), so the connection stays in sync and the
// client is reusable, as Close promises.
func (p *Pipeline) Flush() error {
	p.sendBatch()
	for len(p.inflight) > 0 {
		if p.err == nil {
			p.recvAck()
			continue
		}
		p.inflight = append(p.inflight[:0], p.inflight[1:]...)
		if _, err := p.c.recv(); err != nil {
			p.inflight = nil
		}
	}
	return p.err
}

// Close flushes the pipeline and returns the first error seen. The
// underlying client stays open and usable afterwards.
func (p *Pipeline) Close() error { return p.Flush() }
