package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to be trusted; a percentile with fewer is a configuration error.
const minBeyond = 10

// pctl is one reported percentile: its value, the sample count it was taken
// over, and how many samples lie strictly beyond its rank.
type pctl struct {
	P      float64 `json:"p"`
	Value  float64 `json:"value"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs.
// xs need not be sorted and is not modified.
func percentile(xs []float64, p float64) pctl {
	n := len(xs)
	if n == 0 {
		return pctl{P: p, Value: math.NaN()}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = max(1, min(rank, n))
	return pctl{P: p, Value: s[rank-1], N: n, Beyond: n - rank}
}

// check reports an error when too few samples lie beyond the percentile.
func (q pctl) check(what string) error {
	if q.Beyond < minBeyond {
		return fmt.Errorf("%s: p%g over %d samples has %d beyond it, need %d", what, q.P, q.N, q.Beyond, minBeyond)
	}
	return nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// throughput accumulates a phase's work and busy time, one entry per round.
type throughput struct{ work, secs []float64 }

// add records one round's work, done in d.
func (t *throughput) add(work float64, d time.Duration) {
	t.work = append(t.work, work)
	t.secs = append(t.secs, d.Seconds())
}

// rate is the work of all rounds over their total time: the rate of the
// whole phase, which a round that ran slow moves only by its share of the
// time.
func (t throughput) rate() float64 {
	var w, s float64
	for i := range t.work {
		w += t.work[i]
		s += t.secs[i]
	}
	return w / s
}

// perRound returns each round's own rate.
func (t throughput) perRound() []float64 {
	out := make([]float64, len(t.work))
	for i := range out {
		out[i] = t.work[i] / t.secs[i]
	}
	return out
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// finite reports whether every value is neither NaN nor infinite.
func finite[T float32 | float64](xs []T) bool {
	for _, v := range xs {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}
