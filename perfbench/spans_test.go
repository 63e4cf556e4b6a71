package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func mk(id, parent int64, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		mk(1, 0, "root", 0, 100),
		mk(2, 1, "a", 10, 30),
		mk(3, 1, "b", 50, 60),
		mk(4, 2, "leaf", 12, 20),
	}
	self := selfTimes(spans)
	for id, want := range map[int64]time.Duration{1: 70, 2: 12, 3: 10, 4: 8} {
		if self[id] != want {
			t.Errorf("self(%d) = %d, want %d", id, self[id], want)
		}
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	// Two concurrent children overlapping on [20,30) and one running past
	// the parent's end: the covered part is [10,40) clipped to [0,35).
	spans := []span{
		mk(1, 0, "root", 0, 35),
		mk(2, 1, "a", 10, 30),
		mk(3, 1, "b", 20, 40),
	}
	if got := selfTimes(spans)[1]; got != 10 {
		t.Errorf("self = %d, want 10", got)
	}
}

func TestTracerRecordsNestingAndRequests(t *testing.T) {
	tr := newTracer()
	root := tr.begin("http.x", 0, 7)
	child := tr.begin("http.read", root.id(), 7)
	child.end()
	root.end()
	spans := tr.all()
	if len(spans) != 2 {
		t.Fatalf("%d spans", len(spans))
	}
	c, r := spans[0], spans[1]
	if c.Parent != r.ID || c.Req != 7 || r.Req != 7 || r.Parent != 0 {
		t.Errorf("bad linkage: %+v %+v", c, r)
	}
	if c.Start < r.Start || c.End > r.End {
		t.Errorf("child %+v outside parent %+v", c, r)
	}
	sum := summarize(spans)
	if len(sum) != 2 || sum[0].Count != 1 {
		t.Errorf("summary %+v", sum)
	}
	var buf bytes.Buffer
	if err := writeSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var back span
	if err := json.NewDecoder(&buf).Decode(&back); err != nil || back != c {
		t.Errorf("round trip: %+v, %v", back, err)
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", 0, 0)
	sp.end()
	if sp.id() != 0 || tr.all() != nil {
		t.Error("nil tracer recorded something")
	}
}

func TestPausedTracerRecordsNothing(t *testing.T) {
	tr := newTracer()
	tr.pause(true)
	sp := tr.begin("off", 0, 0)
	sp.end()
	if sp.id() != 0 {
		t.Errorf("paused span id = %d, want 0", sp.id())
	}
	tr.pause(false)
	tr.begin("on", 0, 0).end()
	if got := tr.all(); len(got) != 1 || got[0].Name != "on" {
		t.Errorf("spans = %+v, want only the unpaused one", got)
	}
	var none *tracer
	none.pause(false)
	none.begin("nil", 0, 0).end()
}

func TestOverheadPctComparesMeanRounds(t *testing.T) {
	// Untraced rounds average 2, traced ones 2.5: 25% overhead, whatever
	// the number of rounds on each side.
	busy := []float64{1, 2, 3, 3, 2}
	traced := []bool{false, true, false, true, false}
	if got := overheadPct(busy, traced); got != 25 {
		t.Errorf("overhead = %v, want 25", got)
	}
}
