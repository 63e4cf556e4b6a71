package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// parseMetrics reads a Prometheus text exposition into series -> value.
// Comment lines are skipped; a series name keeps its label set, if any, so
// labelled series stay distinct.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexAny(line, " \t")
		if cut <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		name := strings.TrimSpace(line[:cut])
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: series %s: %w", name, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return out, nil
}

// diffMetrics returns after - before for every series in after; a series
// absent before counts from zero.
func diffMetrics(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
