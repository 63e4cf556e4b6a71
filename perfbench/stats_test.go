package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		p            float64
		value        float64
		n, beyondMin int
	}{
		{50, 50, 100, 50},
		{90, 90, 100, 10},
		{99, 99, 100, 1},
		{1, 1, 100, 99},
	} {
		q := percentile(xs, c.p)
		if q.Value != c.value || q.N != c.n || q.Beyond != c.beyondMin {
			t.Errorf("p%g = %+v, want value %g over %d with %d beyond", c.p, q, c.value, c.n, c.beyondMin)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile modified its input")
	}
}

func TestPercentileSampleSupport(t *testing.T) {
	// p90 of 100 samples has exactly 10 beyond it: just enough.
	xs := make([]float64, 100)
	if err := percentile(xs, 90).check("x"); err != nil {
		t.Errorf("100 samples should support p90: %v", err)
	}
	// 99 samples: rank 90, 9 beyond: not enough.
	if err := percentile(xs[:99], 90).check("x"); err == nil {
		t.Error("99 samples should not support p90")
	}
	if err := percentile(xs, 99).check("x"); err == nil {
		t.Error("100 samples should not support p99")
	}
	if q := percentile(nil, 50); !math.IsNaN(q.Value) || q.N != 0 {
		t.Errorf("empty percentile = %+v", q)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("empty median should be NaN")
	}
}

func TestFinite(t *testing.T) {
	if !finite([]float32{1, -2, 0}) {
		t.Error("finite values reported non-finite")
	}
	if finite([]float64{1, math.Inf(1)}) || finite([]float32{float32(math.NaN())}) {
		t.Error("non-finite value not detected")
	}
}

func TestTopKMatchesSortedTop(t *testing.T) {
	ns := []float64{5, 1, 3, 1, 9, 0, 3, 2, 2, 7}
	for k := 1; k <= len(ns); k++ {
		got := make([]int, k)
		topK(ns, got)
		want := sortedTop(ns, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: topK %v, sorted %v", k, got, want)
			}
		}
	}
}

func TestThroughputPoolsRounds(t *testing.T) {
	var tp throughput
	tp.add(100, time.Second)   // 100/s
	tp.add(100, 3*time.Second) // a slow round: 33/s
	if r := tp.rate(); r != 50 {
		t.Errorf("rate = %g, want 200 work over 4 s = 50", r)
	}
	pr := tp.perRound()
	if len(pr) != 2 || pr[0] != 100 || math.Abs(pr[1]-100.0/3) > 1e-12 {
		t.Errorf("per round = %v", pr)
	}
}
