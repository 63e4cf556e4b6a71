package main

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestFixedRate(t *testing.T) {
	due := fixedRate(4, 200)
	for i, want := range []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond} {
		if due[i] != want {
			t.Errorf("due[%d] = %v, want %v", i, due[i], want)
		}
	}
}

func TestOutcomeAccounting(t *testing.T) {
	o := outcome{Due: 10 * time.Millisecond, Sent: 12 * time.Millisecond, Done: 30 * time.Millisecond, OK: true}
	if o.Latency() != 20*time.Millisecond {
		t.Errorf("latency %v, want 20ms from the due time", o.Latency())
	}
	if o.Late() != 2*time.Millisecond {
		t.Errorf("late %v, want 2ms", o.Late())
	}
	outs := []outcome{o, {Due: 0, Sent: time.Millisecond, Done: 5 * time.Millisecond}}
	lat, late, failed := loadSummary(outs)
	if failed != 1 || len(lat) != 1 || lat[0] != 20*time.Millisecond {
		t.Errorf("summary: lat %v failed %d; a failed request has no latency", lat, failed)
	}
	if len(late) != 2 || late[1] != time.Millisecond {
		t.Errorf("lateness %v should cover every request", late)
	}
}

// A sender slower than the arrival rate must charge the queueing it causes
// to the requests that waited: latency is timed from the due time, not the
// send time.
func TestOpenLoopChargesQueueingFromDueTime(t *testing.T) {
	const n, service = 6, 20 * time.Millisecond
	due := fixedRate(n, 1000) // one every 1ms, far faster than one sender serves
	outs := openLoop(due, 1, func(int) bool { time.Sleep(service); return true })
	for i, o := range outs {
		if o.Due != due[i] {
			t.Fatalf("request %d due %v, want %v", i, o.Due, due[i])
		}
		if o.Late() < 0 {
			t.Errorf("request %d sent before it was due", i)
		}
		// Request i waits for the i requests before it on the one sender.
		if min := time.Duration(i+1)*service - due[i]; o.Latency() < min {
			t.Errorf("request %d latency %v, want at least %v", i, o.Latency(), min)
		}
	}
	if outs[n-1].Late() > 50*time.Millisecond {
		t.Errorf("dispatcher ran %v late; it must not wait for senders", outs[n-1].Late())
	}
}

func TestClosedLoopRunsEachRequestOnce(t *testing.T) {
	var calls [50]atomic.Int32
	outs, wall := closedLoop(len(calls), 3, func(i int) bool { calls[i].Add(1); return i%5 != 0 })
	failed := 0
	for i := range calls {
		if calls[i].Load() != 1 {
			t.Errorf("request %d sent %d times", i, calls[i].Load())
		}
		if !outs[i].OK {
			failed++
		}
		if outs[i].Done < outs[i].Sent || outs[i].Done > wall {
			t.Errorf("request %d times out of order: %+v (wall %v)", i, outs[i], wall)
		}
	}
	if failed != 10 {
		t.Errorf("%d failures recorded, want 10", failed)
	}
}
