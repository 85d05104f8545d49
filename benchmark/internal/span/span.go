// Package span is the benchmark's own tracer: spans recorded around the
// calls into each layer, kept in memory and written out when the run
// ends. A layer's self time is its span minus the part of that interval
// its child spans cover.
package span

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval. ID identifies the operation (all spans of
// one operation share it); Parent names the span that caused this one
// ("" for a root).
type Span struct {
	Name    string `json:"name"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Log collects spans from any goroutine.
type Log struct {
	base  time.Time
	mu    sync.Mutex
	spans []Span
}

// NewLog starts an empty log; span times are nanoseconds since now.
func NewLog() *Log { return &Log{base: time.Now()} }

// Now returns the log's clock.
func (l *Log) Now() int64 { return int64(time.Since(l.base)) }

// Add records a finished span.
func (l *Log) Add(s Span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (l *Log) Spans() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Span(nil), l.spans...)
}

// WriteFile writes the spans as JSON.
func (l *Log) WriteFile(path string, extra any) error {
	data, err := json.Marshal(struct {
		Spans []Span `json:"spans"`
		Extra any    `json:"aggregates,omitempty"`
	}{l.Spans(), extra})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Covered returns how much of [start, end] the given intervals cover,
// counting overlaps once.
func Covered(start, end int64, kids [][2]int64) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	var total int64
	cur := start
	for _, k := range kids {
		s, e := k[0], k[1]
		if s < cur {
			s = cur
		}
		if e > end {
			e = end
		}
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// SelfTimes returns, for every span named name, its duration minus the
// time covered by its direct children (spans with the same ID whose
// Parent is name).
func SelfTimes(spans []Span, name string) []int64 {
	kids := map[string][][2]int64{}
	for _, s := range spans {
		if s.Parent == name {
			kids[s.ID] = append(kids[s.ID], [2]int64{s.StartNs, s.EndNs})
		}
	}
	var out []int64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		out = append(out, (s.EndNs-s.StartNs)-Covered(s.StartNs, s.EndNs, kids[s.ID]))
	}
	return out
}
