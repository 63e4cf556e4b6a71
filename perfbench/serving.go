package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/perfvec"
	"repro/internal/serve"
	"repro/internal/uarch"
)

// stack is the program under test as a user starts it: a seeded model, a
// representation table and a calibrated microarchitecture model behind the
// service's real HTTP handler on a loopback port.
type stack struct {
	f      *perfvec.Foundation
	table  *perfvec.Table
	um     *perfvec.UarchModel
	svc    *serve.Service
	srv    *http.Server
	base   string
	served chan error
}

// build starts one stack and warms it the way its first users would: one
// program through the encoder (building encoders and slabs), one cached
// sweep (embedding the candidate space), and one offline encode.
func build(in *inputs) (*stack, error) {
	cfg := in.cfg
	st := &stack{
		f:     perfvec.NewFoundation(cfg),
		table: perfvec.NewTable(len(in.cfgs), cfg.RepDim, in.o.seed),
		um:    perfvec.NewUarchModel(cfg.RepDim, 32, in.o.seed),
	}
	st.um.Calibrate(in.calib)
	svc, err := serve.NewService(serve.Config{Model: st.f, Table: st.table, Uarch: st.um})
	if err != nil {
		return nil, err
	}
	st.svc = svc
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	st.base = "http://" + ln.Addr().String()
	st.srv = &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()

	p := in.setupProg
	rep := make([]float32, cfg.RepDim)
	key, err := svc.Submit("setup", p.feats, p.n, rep)
	if err == nil {
		_, err = svc.SweepCached(key, in.serveSpec, rep, make([]float64, in.serveSpec.Size))
	}
	if err != nil {
		st.close()
		return nil, fmt.Errorf("set-up warm-up: %w", err)
	}
	e := st.f.AcquireEncoder()
	e.EncodePrograms32([]*perfvec.ProgramData{p.pd()}, [][]float32{rep})
	st.f.ReleaseEncoder(e)
	return st, nil
}

// close stops the server, waits for it, and drains the service.
func (st *stack) close() {
	st.srv.Close()
	<-st.served
	st.svc.Close()
}

// setupPhase measures set-up: one stack is built before the rounds and
// kept for serving, and one more is built and torn down in every round, so
// setup_s is a median over builds spread across the run like every other
// phase's blocks.
type setupPhase struct {
	in    *inputs
	ph    *phaseStat
	tr    *tracer
	rep   *report
	times []float64
}

// build times one stack build.
func (p *setupPhase) build() (*stack, error) {
	var st *stack
	var err error
	dt := block(p.ph, func() {
		sp := p.tr.begin("setup", 0, 0)
		st, err = build(p.in)
		sp.end()
	})
	p.ph.op(err == nil)
	if err != nil {
		return nil, err
	}
	p.times = append(p.times, dt.Seconds())
	return st, nil
}

func (p *setupPhase) warm() error { return nil }

func (p *setupPhase) round(int) error {
	st, err := p.build()
	if err != nil {
		return err
	}
	st.close()
	return nil
}

func (p *setupPhase) finish() error {
	p.rep.Rounds["setup_s"] = p.times
	p.rep.set("setup_s", median(p.times), "s")
	return nil
}

// client is the load generator's HTTP side: at most conns connections to
// the service, from this process.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, conns int, tr *tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: t, Timeout: 60 * time.Second}, base: base, tr: tr}
}

// reply is one response, kept whole for checking after the phase.
type reply struct {
	status int
	body   []byte
	err    error
}

// do sends one request. Its span covers the round trip, with a child span
// for reading the body after the headers arrived.
func (c *client) do(class string, req int64, method, path string, body []byte) reply {
	sp := c.tr.begin("http."+class, 0, req)
	defer sp.end()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{err: err}
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return reply{err: err}
	}
	rs := c.tr.begin("http.read", sp.id(), req)
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rs.end()
	return reply{status: resp.StatusCode, body: b, err: err}
}

// metrics fetches and parses /metrics.
func (c *client) metrics() (map[string]float64, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// submitPath is the /v1/submit URL of a program, asking for the
// representation and one prediction so both can be checked.
func submitPath(p *program) string {
	return "/v1/submit?rep=1&uarch=" + strconv.Itoa(p.uarch)
}

// servePhase drives the service over HTTP: an open-loop cold phase of new
// programs, a closed-loop capacity phase of new programs, and an open-loop
// warm phase of reads over the programs the cold phase cached.
type servePhase struct {
	in  *inputs
	rep *report
	tr  *tracer
	st  *stack
	c   *client

	coldPh, capPh, warmPh *phaseStat

	reqID                            atomic.Int64 // shared by the spans of one request
	coldReplies, capReplies, warmRep []reply
	coldOut, warmOut                 []outcome
	capRate                          throughput // requests completed

	// Per phase name: /metrics counter diffs, heap allocations and GC
	// cycles of the whole process, and the requests they are divided by.
	diffs        map[string]map[string]float64
	mallocs, gcs map[string]uint64
	requests     map[string]int
}

func newServePhase(in *inputs, rep *report, tr *tracer, st *stack) *servePhase {
	p := &servePhase{
		in: in, rep: rep, tr: tr, st: st,
		c:           newClient(st.base, in.conns, tr),
		coldPh:      rep.phase("serve.cold"),
		capPh:       rep.phase("serve.capacity"),
		warmPh:      rep.phase("serve.warm"),
		coldReplies: make([]reply, len(in.cold)),
		capReplies:  make([]reply, len(in.capacity)),
		warmRep:     make([]reply, len(in.warm)),
		diffs:       map[string]map[string]float64{},
		mallocs:     map[string]uint64{},
		gcs:         map[string]uint64{},
		requests:    map[string]int{},
	}
	p.coldPh.paced, p.warmPh.paced = true, true
	return p
}

// warm sends every request class once per warm-up program: connections,
// the handler's pools and the sweep's embedded space are ready afterwards.
func (p *servePhase) warm() error {
	for _, pr := range p.in.warmup {
		for _, r := range []reply{
			p.c.do("warmup", p.reqID.Add(1), "POST", submitPath(pr), pr.body),
			p.c.do("warmup", p.reqID.Add(1), "POST", submitPath(pr), pr.body),
			p.c.do("warmup", p.reqID.Add(1), "GET", predictPath(pr.key, pr.uarch), nil),
			p.c.do("warmup", p.reqID.Add(1), "POST", "/v1/sweep?"+p.in.sweepQuery(pr.key), nil),
		} {
			if r.err != nil || r.status != http.StatusOK {
				return fmt.Errorf("serve warm-up: status %d: %v", r.status, r.err)
			}
		}
	}
	return nil
}

// measure runs one block of a phase and adds its /metrics diff and the
// process's allocation and GC counts to the phase's totals.
func (p *servePhase) measure(ph *phaseStat, n int, fn func()) error {
	before, err := p.c.metrics()
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	settle()
	runtime.ReadMemStats(&m0)
	timeIt(ph, fn)
	runtime.ReadMemStats(&m1)
	after, err := p.c.metrics()
	if err != nil {
		return err
	}
	d := p.diffs[ph.Name]
	if d == nil {
		d = map[string]float64{}
		p.diffs[ph.Name] = d
	}
	for k, v := range diffMetrics(before, after) {
		d[k] += v
	}
	p.mallocs[ph.Name] += m1.Mallocs - m0.Mallocs
	p.gcs[ph.Name] += uint64(m1.NumGC - m0.NumGC)
	p.requests[ph.Name] += n
	return nil
}

// chunk is round r's share [lo, hi) of n items split over rounds.
func chunk(n, r, rounds int) (lo, hi int) { return r * n / rounds, (r + 1) * n / rounds }

func (p *servePhase) round(r int) error {
	in, rounds, conns := p.in, p.in.sz.rounds, p.in.conns
	send := func(class string, pr *program) reply {
		return p.c.do(class, p.reqID.Add(1), "POST", submitPath(pr), pr.body)
	}

	lo, hi := chunk(len(in.cold), r, rounds)
	err := p.measure(p.coldPh, hi-lo, func() {
		outs := openLoop(fixedRate(hi-lo, in.sz.coldRate), conns, func(i int) bool {
			rp := send("submit_miss", in.cold[lo+i])
			p.coldReplies[lo+i] = rp
			return rp.ok()
		})
		p.coldOut = append(p.coldOut, outs...)
	})
	if err != nil {
		return err
	}

	lo, hi = chunk(len(in.capacity), r, rounds)
	err = p.measure(p.capPh, hi-lo, func() {
		outs, wall := closedLoop(hi-lo, conns, func(i int) bool {
			rp := send("submit_capacity", in.capacity[lo+i])
			p.capReplies[lo+i] = rp
			return rp.ok()
		})
		ok := 0
		for _, o := range outs {
			if o.OK {
				ok++
			}
		}
		p.capRate.add(float64(ok), wall)
	})
	if err != nil {
		return err
	}

	lo, hi = chunk(len(in.warm), r, rounds)
	return p.measure(p.warmPh, hi-lo, func() {
		outs := openLoop(fixedRate(hi-lo, in.sz.warmRate), conns, func(i int) bool {
			w := in.warm[lo+i]
			pr := in.cold[w.prog]
			var rp reply
			switch w.class {
			case classSubmit:
				rp = send("submit_hit", pr)
			case classPredict:
				rp = p.c.do("predict", p.reqID.Add(1), "GET", predictPath(pr.key, w.uarch), nil)
			default:
				rp = p.c.do("sweep_cached", p.reqID.Add(1), "POST", "/v1/sweep?"+in.sweepQuery(pr.key), nil)
			}
			p.warmRep[lo+i] = rp
			return rp.ok()
		})
		p.warmOut = append(p.warmOut, outs...)
	})
}

func (p *servePhase) finish() error {
	p.c.hc.CloseIdleConnections()
	// Latency and throughput count successful requests only; a failed one
	// misses every latency limit.
	lat, _, _ := loadSummary(p.coldOut)
	if err := p.rep.latency("serve_miss", lat); err != nil {
		return err
	}
	p.rep.rate("serve_miss_rps", p.capRate)
	lat, _, _ = loadSummary(p.warmOut)
	if err := p.rep.latency("serve_hit", lat); err != nil {
		return err
	}
	checkServe(p.in, p.rep, p.st, p)
	return nil
}

// ok reports whether the request completed with 200.
func (r reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

// predictPath is the /v1/predict URL of a cached program.
func predictPath(key uint64, uarch int) string {
	return fmt.Sprintf("/v1/predict?key=%x&uarch=%d", key, uarch)
}

// submitResp, predictResp and sweepResp mirror the service's JSON bodies.
type submitResp struct {
	Key string    `json:"key"`
	Rep []float32 `json:"rep"`
	Ns  []float64 `json:"ns"`
}

type predictResp struct {
	Key string  `json:"key"`
	Ns  float64 `json:"ns"`
}

type sweepResp struct {
	Key string    `json:"key"`
	N   int       `json:"n"`
	Top int       `json:"top"`
	Idx []int     `json:"idx"`
	Ns  []float64 `json:"ns"`
}

// checkServe checks every reply: keys against HashProgram of the bytes
// sent, representations bitwise against an offline EncodePrograms32 of the
// same features, predictions against PredictTotalNs on that
// representation, and sweep rankings against an offline Sweeper.
func checkServe(in *inputs, rep *report, st *stack, p *servePhase) {
	f := st.f
	refs := func(ps []*program) [][]float32 {
		pds := make([]*perfvec.ProgramData, len(ps))
		out := make([][]float32, len(ps))
		for i, p := range ps {
			pds[i] = p.pd()
			out[i] = make([]float32, f.Cfg.RepDim)
		}
		e := f.AcquireEncoder()
		e.EncodePrograms32(pds, out)
		f.ReleaseEncoder(e)
		return out
	}
	// Capacity is where the batcher combines programs from both
	// connections, so its replies check batch invariance bitwise.
	coldRefs, capRefs := refs(in.cold), refs(in.capacity)

	// checkSubmit checks a submit reply against the offline representation
	// ref.
	checkSubmit := func(r reply, p *program, ref []float32) error {
		if r.err != nil {
			return r.err
		}
		if r.status != http.StatusOK {
			return fmt.Errorf("status %d", r.status)
		}
		var b submitResp
		if err := json.Unmarshal(r.body, &b); err != nil {
			return err
		}
		switch {
		case b.Key != strconv.FormatUint(p.key, 16):
			return errors.New("key differs from HashProgram of the body")
		case !finite(b.Rep) || !slices.Equal(b.Rep, ref):
			return errors.New("representation differs from the offline encode")
		case len(b.Ns) != 1 || b.Ns[0] != f.PredictTotalNs(ref, st.table.Rep(p.uarch)):
			return errors.New("prediction differs from PredictTotalNs")
		}
		return nil
	}
	for i, r := range p.coldReplies {
		err := checkSubmit(r, in.cold[i], coldRefs[i])
		checkf(rep, p.coldPh, err == nil, "request %d: %v", i, err)
	}
	for i, r := range p.capReplies {
		err := checkSubmit(r, in.capacity[i], capRefs[i])
		checkf(rep, p.capPh, err == nil, "request %d: %v", i, err)
	}

	sw := perfvec.NewSweeper(f, st.um)
	sw.SetSpace(uarch.GenerateSpace(in.serveSpec))
	sweepRef := map[int][]int{}
	ns := make([]float64, sw.K())
	for i, r := range p.warmRep {
		w := in.warm[i]
		pr, ref := in.cold[w.prog], coldRefs[w.prog]
		var err error
		switch {
		case r.err != nil:
			err = r.err
		case r.status != http.StatusOK:
			err = fmt.Errorf("status %d", r.status)
		case w.class == classSubmit:
			err = checkSubmit(r, pr, ref)
		case w.class == classPredict:
			var b predictResp
			if err = json.Unmarshal(r.body, &b); err == nil && b.Ns != f.PredictTotalNs(ref, st.table.Rep(w.uarch)) {
				err = errors.New("prediction differs from PredictTotalNs")
			}
		default:
			var b sweepResp
			if err = json.Unmarshal(r.body, &b); err != nil {
				break
			}
			sw.Sweep(ref, ns)
			want, seen := sweepRef[w.prog]
			if !seen {
				want = sortedTop(ns, in.sz.serveTop)
				sweepRef[w.prog] = want
			}
			if b.Key != strconv.FormatUint(pr.key, 16) || b.N != sw.K() || !slices.Equal(b.Idx, want) || len(b.Ns) != len(want) {
				err = errors.New("sweep ranking differs from the offline sweeper")
				break
			}
			for j, ix := range want {
				if b.Ns[j] != ns[ix] {
					err = errors.New("sweep prediction differs from the offline sweeper")
				}
			}
		}
		checkf(rep, p.warmPh, err == nil, "request %d (%s): %v", i, classNames[w.class], err)
	}
}
