package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded here, in the benchmark's own code, around each
// call into a layer; the program under test is not instrumented. A
// trace is single-goroutine, so children of one span never overlap and
// a span's self time is its duration minus its children's.

type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index into the span list, -1 for a root
	OpID    int    `json:"op_id"`  // spans of one operation share it; -1 outside operations
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, opID int) int {
	t.spans = append(t.spans, span{Name: name, StartNs: int64(time.Since(t.t0)), Parent: parent, OpID: opID})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	t.spans[id].EndNs = int64(time.Since(t.t0))
	return t.spans[id].dur()
}

// add records a span whose boundaries were observed elsewhere (the
// iteration callbacks of a build).
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{
		Name: name, StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0)), Parent: parent, OpID: -1,
	})
	return len(t.spans) - 1
}

// time runs fn inside a span and returns how long it took.
func (t *tracer) time(name string, parent int, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent, -1)
	err := fn()
	return t.end(id), err
}

// selfTimes returns, per span, its duration minus the time its direct
// children cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i := range spans {
		self[i] += spans[i].dur()
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// traceFile is the span file's layout.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := json.NewEncoder(f).Encode(tf)
	return errors.Join(werr, f.Close())
}
