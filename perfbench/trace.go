package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call. Spans of one job share Job; Parent is
// the index of the enclosing span in the same client's tracer, or -1.
type span struct {
	Client int               `json:"client"`
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Job    int               `json:"job"`
	Name   string            `json:"name"`
	Start  time.Duration     `json:"start_ns"`
	End    time.Duration     `json:"end_ns"`
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// tracer keeps one client's spans in memory until the run ends. A nil
// tracer records nothing but still times: begin/end then cost two clock
// reads, which is how the untraced paths measure.
type tracer struct {
	client int
	epoch  time.Time
	spans  []span
}

// mark is an open span: its index (-1 when not recorded) and start time.
type mark struct {
	id    int
	start time.Time
}

func newTracer(client int, epoch time.Time) *tracer {
	return &tracer{client: client, epoch: epoch}
}

func (t *tracer) begin(name string, parent mark, job int) mark {
	m := mark{id: -1, start: time.Now()}
	if t != nil {
		m.id = len(t.spans)
		t.spans = append(t.spans, span{
			Client: t.client, ID: m.id, Parent: parent.id, Job: job,
			Name: name, Start: m.start.Sub(t.epoch),
		})
	}
	return m
}

// end closes the span and returns its duration.
func (t *tracer) end(m mark) time.Duration {
	now := time.Now()
	if t != nil && m.id >= 0 {
		t.spans[m.id].End = now.Sub(t.epoch)
	}
	return now.Sub(m.start)
}

// count attaches a count to an open or closed span.
func (t *tracer) count(m mark, key string, v uint64) {
	if t == nil || m.id < 0 {
		return
	}
	s := &t.spans[m.id]
	if s.Counts == nil {
		s.Counts = make(map[string]uint64)
	}
	s.Counts[key] = v
}

// noParent is the parent of a root span.
var noParent = mark{id: -1}

// selfTimes returns, per "root/name" span path, the summed self time —
// a span's duration minus the time its direct children cover — and the
// number of spans on that path.
func selfTimes(tracers []*tracer) map[string]selfTime {
	out := make(map[string]selfTime)
	for _, t := range tracers {
		child := make([]time.Duration, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range t.spans {
			root := i
			for t.spans[root].Parent >= 0 {
				root = t.spans[root].Parent
			}
			path := s.Name
			if root != i {
				path = t.spans[root].Name + "/" + s.Name
			}
			st := out[path]
			st.self += s.End - s.Start - child[i]
			st.calls++
			out[path] = st
		}
	}
	return out
}

type selfTime struct {
	self  time.Duration
	calls int
}

// printSelfTimes writes the self-time table, largest first.
func printSelfTimes(w io.Writer, st map[string]selfTime) {
	paths := make([]string, 0, len(st))
	for p := range st {
		paths = append(paths, p)
	}
	sort.Slice(paths, func(i, j int) bool {
		if st[paths[i]].self != st[paths[j]].self {
			return st[paths[i]].self > st[paths[j]].self
		}
		return paths[i] < paths[j]
	})
	fmt.Fprintf(w, "self time by span (all clients, whole traced phase):\n")
	for _, p := range paths {
		fmt.Fprintf(w, "  %-40s %6d calls %12.6f s\n", p, st[p].calls, st[p].self.Seconds())
	}
}

// writeSpans writes every recorded span as one JSON object per line.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, t := range tracers {
		for _, s := range t.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
