package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one request of a load phase, with times as offsets from the
// phase start: when it was due, when the generator handed it to a
// connection's sender, and when its response was complete.
type outcome struct {
	Due, Sent, Done time.Duration
	OK              bool
}

// Latency is the request's latency timed from its due time, so a stall that
// delays later requests is charged to them.
func (o outcome) Latency() time.Duration { return o.Done - o.Due }

// Late is how far behind schedule the generator dispatched the request.
func (o outcome) Late() time.Duration { return o.Sent - o.Due }

// fixedRate returns the due offsets of n requests sent at rate per second.
func fixedRate(n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(float64(i) * float64(time.Second) / rate)
	}
	return due
}

// openLoop sends request i at its due offset regardless of how earlier
// requests fare: a dispatcher wakes at each due time and queues the request
// for one of conns senders, each of which calls do for one request at a
// time. A request that finds every sender busy waits in the queue, and that
// wait is part of its latency. It returns once every request has completed.
func openLoop(due []time.Duration, conns int, do func(i int) bool) []outcome {
	out := make([]outcome, len(due))
	// Sized to the number of sends, so the dispatcher never blocks and its
	// lateness measures only its own scheduling.
	jobs := make(chan int, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				ok := do(i)
				out[i].Done = time.Since(start)
				out[i].OK = ok
			}
		}()
	}
	for i, d := range due {
		waitUntil(start, d)
		out[i].Due = d
		out[i].Sent = time.Since(start)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// spinWindow is how long before a due time the dispatcher stops sleeping
// and yields in a loop instead: the runtime's timers may fire a millisecond
// late, which would otherwise be charged to every request's latency.
const spinWindow = 1500 * time.Microsecond

// waitUntil returns at start+d, sleeping while that is far off.
func waitUntil(start time.Time, d time.Duration) {
	if wait := d - time.Since(start) - spinWindow; wait > 0 {
		time.Sleep(wait)
	}
	for time.Since(start) < d {
		runtime.Gosched()
	}
}

// closedLoop runs n requests through conns senders, each sending its next
// request only after the previous one completed. It returns the outcomes
// (Due and Sent are the send time) and the wall time of the whole loop.
func closedLoop(n, conns int, do func(i int) bool) ([]outcome, time.Duration) {
	out := make([]outcome, n)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				sent := time.Since(start)
				ok := do(i)
				out[i] = outcome{Due: sent, Sent: sent, Done: time.Since(start), OK: ok}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// loadSummary splits outcomes into the latencies of successful requests
// and the generator lateness of all of them, and counts failures. A failed
// request has no latency: it counts as missing every latency limit.
func loadSummary(outs []outcome) (lat, late []time.Duration, failed int) {
	for _, o := range outs {
		late = append(late, o.Late())
		if !o.OK {
			failed++
			continue
		}
		lat = append(lat, o.Latency())
	}
	return lat, late, failed
}
