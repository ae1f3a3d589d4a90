package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// its request id; parent is the span that caused this one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	ReqID  string `json:"req"`
	Start  int64  `json:"start"` // ns since the recorder's epoch
	End    int64  `json:"end"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanRecorder keeps spans in memory; they are written out when the run
// ends. Safe for concurrent use.
type spanRecorder struct {
	epoch time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []*span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// requestID mints a run-unique request id.
func (r *spanRecorder) requestID(prefix string) string {
	return fmt.Sprintf("%s-%d", prefix, r.reqs.Add(1))
}

func (r *spanRecorder) start(name, reqID string, parent *span) *span {
	s := &span{ID: r.ids.Add(1), Name: name, ReqID: reqID, Start: int64(time.Since(r.epoch))}
	if parent != nil {
		s.Parent = parent.ID
	}
	return s
}

func (r *spanRecorder) end(s *span) {
	s.End = int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn inside a span.
func (r *spanRecorder) timed(name, reqID string, parent *span, fn func()) *span {
	s := r.start(name, reqID, parent)
	fn()
	r.end(s)
	return s
}

// all returns the finished spans.
func (r *spanRecorder) all() []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*span(nil), r.spans...)
}

// durations returns the durations in microseconds of every span named name.
func (r *spanRecorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.all() {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// writeFile writes the spans as JSON lines, each with its self time.
func (r *spanRecorder) writeFile(path string) error {
	spans := r.all()
	self := selfTimes(spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			*span
			SelfNs int64 `json:"selfNs"`
		}{s, self[s.ID]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes computes each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count
// once).
func selfTimes(spans []*span) map[int64]int64 {
	children := make(map[int64][]*span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent *span, kids []*span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	return total + curHi - curLo
}
