package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span is one sampled call into a layer, timed by the benchmark around
// its own call. Spans of one operation share Req; Parent names the
// span that caused this one (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// Tracer keeps sampled spans in memory until the run ends. It hands
// out shards; each shard has one writer goroutine, so recording takes
// no lock.
type Tracer struct {
	t0    time.Time
	limit int // spans kept per shard

	mu     sync.Mutex
	shards []*Shard
}

// Shard is one goroutine's span buffer.
type Shard struct {
	tr    *Tracer
	id    int64
	seq   int64
	n     uint64
	spans []Span
}

// sampleEvery is the sampling rate: one operation in every sampleEvery
// is traced.
const sampleEvery = 16

func newTracer() *Tracer {
	return &Tracer{t0: time.Now(), limit: 1 << 17}
}

// Shard returns a new shard; nil on a nil tracer (tracing off).
func (t *Tracer) Shard() *Shard {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sh := &Shard{tr: t, id: int64(len(t.shards)+1) << 40}
	t.shards = append(t.shards, sh)
	return sh
}

// Sample reports whether the caller should trace its next operation:
// true for one operation in every sampleEvery, always false when off.
func (s *Shard) Sample() bool {
	if s == nil {
		return false
	}
	s.n++
	return s.n%sampleEvery == 0
}

// Record stores a finished span and returns its id.
func (s *Shard) Record(name string, parent, req int64, start, end time.Time) int64 {
	id := s.ID()
	s.Put(id, name, parent, req, start, end)
	return id
}

// ID allocates a span id, for a parent whose children finish first.
func (s *Shard) ID() int64 {
	s.seq++
	return s.id | s.seq
}

// Put stores a finished span under an id from ID.
func (s *Shard) Put(id int64, name string, parent, req int64, start, end time.Time) {
	if len(s.spans) >= s.tr.limit {
		return // bounded memory: the sample is large enough by then
	}
	s.spans = append(s.spans, Span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(s.tr.t0)), End: int64(end.Sub(s.tr.t0)),
	})
}

// Stats groups the durations (ns) of every recorded span by name.
func (t *Tracer) Stats() map[string][]float64 {
	out := map[string][]float64{}
	for _, sh := range t.shards {
		for _, sp := range sh.spans {
			out[sp.Name] = append(out[sp.Name], float64(sp.End-sp.Start))
		}
	}
	return out
}

// Write dumps every span as one JSON object per line.
func (t *Tracer) Write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sh := range t.shards {
		for i := range sh.spans {
			if err := enc.Encode(&sh.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
