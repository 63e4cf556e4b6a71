package main

import (
	"strings"
	"testing"
)

const exposition = `# HELP perfvec_serve_submits_total Admitted program submissions.
# TYPE perfvec_serve_submits_total counter
perfvec_serve_submits_total 12
perfvec_serve_batches_total 3

perfvec_serve_latency_bucket{le="0.5"} 7
perfvec_serve_ratio 0.25
`

func TestParseMetrics(t *testing.T) {
	m, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"perfvec_serve_submits_total":            12,
		"perfvec_serve_batches_total":            3,
		`perfvec_serve_latency_bucket{le="0.5"}`: 7,
		"perfvec_serve_ratio":                    0.25,
	}
	if len(m) != len(want) {
		t.Errorf("parsed %d series, want %d: %v", len(m), len(want), m)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %g, want %g", k, m[k], v)
		}
	}
}

func TestParseMetricsRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"lonely\n", "x notanumber\n"} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

func TestDiffMetrics(t *testing.T) {
	before := map[string]float64{"a": 5, "b": 1}
	after := map[string]float64{"a": 9, "b": 1, "c": 4}
	d := diffMetrics(before, after)
	if d["a"] != 4 || d["b"] != 0 || d["c"] != 4 {
		t.Errorf("diff = %v", d)
	}
}
