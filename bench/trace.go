package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer: name, start, end, the span that
// caused it and the operation (or instance) it belongs to. Spans live in
// memory and are written out when the run ends.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Op     int64  `json:"op"`
}

// tracer records spans of one goroutine; begin/end nest.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, op int64) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.epoch))})
}

func (t *tracer) end() {
	now := int64(time.Since(t.epoch))
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = now
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its direct children cover.
func selfTimes(spans []span) map[string]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		self[s.Name] += s.End - s.Start - child[i]
	}
	return self
}

// writeTrace stores the spans as JSON.
func writeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return nil
}
