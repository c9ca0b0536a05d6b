package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Parent is the
// index of the span that caused it, -1 for a root. The traced pass is
// one repetition, so spans carry no repetition number.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans and counts in memory until the run ends. A nil
// *tracer is tracing switched off: every method is a no-op, so the
// same loop serves the timed and the traced pass where a workload has
// only one way to run.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string]float64
	// summed lists the span names whose children must add up to them.
	summed map[string]bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: make(map[string]float64), summed: make(map[string]bool)}
}

// begin opens a span under parent (-1 for none) and returns its index.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: since(t.epoch), Parent: parent})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do times fn as a span under parent.
func (t *tracer) do(parent int, name string, fn func() error) error {
	id := t.begin(parent, name)
	err := fn()
	t.end(id)
	return err
}

// count adds n to a named counter, recorded at the same boundary as
// the span beside it.
func (t *tracer) count(name string, n float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// sumChildren marks name as a span whose children must account for it.
func (t *tracer) sumChildren(name string) {
	if t != nil {
		t.summed[name] = true
	}
}

// total is the summed duration of every span called name.
func (t *tracer) total(name string) float64 {
	var d float64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// childTime returns, per span, the time its child spans cover.
func (t *tracer) childTime() []float64 {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	return child
}

// selfTimes returns, per span name, duration minus the time covered by
// child spans, summed over all spans of that name.
func (t *tracer) selfTimes() map[string]float64 {
	child := t.childTime()
	self := make(map[string]float64)
	for i, s := range t.spans {
		self[s.Name] += s.dur() - child[i]
	}
	return self
}

// checkChildren asserts that the children of every marked span add up
// to it within tol of its duration: the decomposition has no hole a
// layer could hide in.
func (t *tracer) checkChildren(tol float64) error {
	child := t.childTime()
	for i, s := range t.spans {
		if !t.summed[s.Name] || s.dur() <= 0 {
			continue
		}
		if gap := (s.dur() - child[i]) / s.dur(); math.Abs(gap) > tol {
			return fmt.Errorf("trace: children of %s cover %.1f%% of it, want within %.0f%%",
				s.Name, 100*(1-gap), 100*tol)
		}
	}
	return nil
}

// writeFile writes spans, counts and per-name self time as one JSON
// document.
func (t *tracer) writeFile(path string) error {
	doc := map[string]any{"spans": t.spans, "counts": t.counts, "self_s": t.selfTimes()}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
