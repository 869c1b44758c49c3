package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public entry point, recorded
// by the benchmark around the call (the program itself is not
// instrumented). Spans of one request share Req; Parent is the id of
// the span that caused this one (0 = root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spans keeps a traced run's spans in memory until write. A nil
// *spans records nothing, so untraced passes share the traced code
// path at the cost of one pointer compare per call.
type spans struct {
	epoch time.Time
	mu    sync.Mutex
	all   []span
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// since converts a wall-clock instant to recorder time.
func (s *spans) since(t time.Time) int64 { return int64(t.Sub(s.epoch)) }

// add records a span that started at t0 and ended at t1 and returns
// its id (0 when s is nil).
func (s *spans) add(name string, parent, req int64, t0, t1 time.Time) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	id := int64(len(s.all)) + 1
	s.all = append(s.all, span{ID: id, Parent: parent, Req: req, Name: name, Start: s.since(t0), End: s.since(t1)})
	s.mu.Unlock()
	return id
}

// setEnd fixes the end of a span recorded before it finished.
func (s *spans) setEnd(id int64, t time.Time) {
	s.mu.Lock()
	s.all[id-1].End = s.since(t)
	s.mu.Unlock()
}

// get returns the span with the given id.
func (s *spans) get(id int64) span {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.all[id-1]
}

// children returns the spans whose parent is id.
func (s *spans) children(id int64) []span {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []span
	for _, sp := range s.all {
		if sp.Parent == id {
			out = append(out, sp)
		}
	}
	return out
}

// prefixed returns every span whose name starts with prefix.
func (s *spans) prefixed(prefix string) []span {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []span
	for _, sp := range s.all {
		if strings.HasPrefix(sp.Name, prefix) {
			out = append(out, sp)
		}
	}
	return out
}

// write stores the spans as one JSON array, one span per line.
func (s *spans) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	s.mu.Lock()
	all := s.all
	s.mu.Unlock()
	w.WriteString("[\n")
	for i, sp := range all {
		line, err := json.Marshal(sp)
		if err != nil {
			f.Close()
			return err
		}
		w.Write(line)
		if i < len(all)-1 {
			w.WriteString(",")
		}
		w.WriteString("\n")
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
