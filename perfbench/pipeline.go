package main

import (
	"fmt"
	"runtime"
	"time"
)

// state is what a pipeline leaves for the traced layer probes. It holds a
// live service; the caller closes it.
type state struct {
	st    *stack
	train *trainPhase
	pred  *predictPhase
	serve *servePhase

	// Per round: the wall time of its work-bound blocks (every phase but
	// the open loops, whose length is set by their rate) and whether its
	// spans were recorded.
	busy   []float64
	traced []bool
}

// timed is one timed phase. warm runs its untimed warm-up pass, round its
// share of the fixed work in one round, and finish turns the rounds into
// metrics and checks.
type timed interface {
	warm() error
	round(r int) error
	finish() error
}

// pipeline builds the stack, warms every phase, and then runs the phases
// in rounds: each round does 1/rounds of every phase's work, so a burst of
// load from outside the process lands on a few rounds of every phase
// instead of all of one phase, and each metric pools the rounds. With a
// non-nil tracer every call into a layer in every odd round is wrapped in
// a span; the even rounds run untraced, so the two halves, interleaved,
// give the tracing overhead.
func pipeline(in *inputs, rep *report, tr *tracer) (*state, error) {
	tr.pause(true)
	setup := &setupPhase{in: in, ph: rep.phase("setup"), tr: tr, rep: rep}
	st, err := setup.build()
	if err != nil {
		return nil, err
	}
	s := &state{st: st}
	s.train = newTrainPhase(in, rep, tr)
	s.pred = newPredictPhase(in, rep, tr, st)
	s.serve = newServePhase(in, rep, tr, st)
	phases := []timed{setup, s.train, s.pred, s.serve}
	fail := func(err error) (*state, error) {
		st.close()
		return nil, err
	}
	for _, p := range phases {
		if err := p.warm(); err != nil {
			return fail(err)
		}
	}
	for r := 0; r < in.sz.rounds; r++ {
		traced := tr != nil && r%2 == 1
		tr.pause(!traced)
		b0 := workWall(rep)
		for _, p := range phases {
			if err := p.round(r); err != nil {
				return fail(err)
			}
		}
		s.busy = append(s.busy, workWall(rep)-b0)
		s.traced = append(s.traced, traced)
	}
	tr.pause(true)
	for _, p := range phases {
		if err := p.finish(); err != nil {
			return fail(err)
		}
	}
	return s, nil
}

// workWall sums the wall time of every work-bound phase of a report.
func workWall(r *report) float64 {
	var s float64
	for _, p := range r.Phases {
		if !p.paced {
			s += p.WallS
		}
	}
	return s
}

// settle comes before every timed block: garbage from earlier work is
// collected so it is not charged to the block.
func settle() { runtime.GC() }

// block times fn as one block of a phase, after settling, and adds its wall
// time to the phase.
func block(ph *phaseStat, fn func()) time.Duration {
	settle()
	return timeIt(ph, fn)
}

// timeIt times fn and adds its wall time to the phase.
func timeIt(ph *phaseStat, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	dt := time.Since(t0)
	ph.WallS += dt.Seconds()
	return dt
}

// checkf records a failed check as a problem and counts the operation.
func checkf(rep *report, ph *phaseStat, ok bool, format string, args ...any) {
	if !ok {
		rep.problem("%s: %s", ph.Name, fmt.Sprintf(format, args...))
	}
	ph.op(ok)
}
