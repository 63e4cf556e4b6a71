package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around its
// own calls. Start and End are offsets from the tracer's creation; Parent is
// the id of the span that caused it (0 for a root); Req groups the spans of
// one request (0 when the span belongs to no request).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur is the span's wall duration.
func (s span) Dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs call the same code at the cost of a nil check;
// a paused one records nothing either.
type tracer struct {
	t0     time.Time
	next   atomic.Int64
	paused atomic.Bool
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// pause stops (true) or resumes (false) recording.
func (t *tracer) pause(p bool) {
	if t != nil {
		t.paused.Store(p)
	}
}

// open is a started span, closed by end.
type open struct {
	t *tracer
	s span
}

// begin starts a span named name under parent for request req.
func (t *tracer) begin(name string, parent, req int64) open {
	if t == nil || t.paused.Load() {
		return open{}
	}
	return open{t: t, s: span{ID: t.next.Add(1), Parent: parent, Req: req, Name: name, Start: time.Since(t.t0)}}
}

// id is the span's id, to pass as a child's parent (0 when not tracing).
func (o open) id() int64 { return o.s.ID }

// end closes the span and records it.
func (o open) end() {
	if o.t == nil {
		return
	}
	o.s.End = time.Since(o.t.t0)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations of every span with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.Dur())
		}
	}
	return out
}

// total sums durations.
func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// selfTimes maps each span id to its self time: its duration minus the
// part of its interval that its children cover. Overlapping children (calls
// running concurrently under one parent) are counted once, and a child's
// time outside its parent's interval is ignored.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			sum += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		sum += cur.b - cur.a
	}
	return sum
}

// spanStat is the per-name summary of a trace.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summarize aggregates spans by name, sorted by self time, largest first.
func summarize(spans []span) []spanStat {
	self := selfTimes(spans)
	by := make(map[string]*spanStat)
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.TotalMs += float64(s.Dur()) / 1e6
		st.SelfMs += float64(self[s.ID]) / 1e6
	}
	out := make([]spanStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// writeSpans writes one JSON object per span.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return bw.Flush()
}
