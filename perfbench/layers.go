package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/perfvec"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// encodeChunk is the number of instruction rows the batched encoder runs
// through the model at once; the cell replay uses it as its batch.
const encodeChunk = 256

// counts are the work the layer probes did, for turning span time into
// rates.
type counts struct {
	collectInsts int     // instructions traced, featurized and simulated
	gemmFlops    float64 // operations of the replayed GEMM calls
	gateRows     int     // rows through the replayed gate kernels
	hashBytes    int     // feature bytes hashed
}

// probeLayers calls, in a span per call, the layers' public functions that
// the pipeline reaches only from inside other layers: the parts of
// CollectAll, minibatch assembly, single-program sweeps, the encoder's
// cell kernels, hashing, and the service's direct calls. The pipeline's own
// spans time the rest.
func probeLayers(in *inputs, rep *report, tr *tracer, s *state) (counts, error) {
	var c counts
	ph := rep.phase("probe")
	t0 := time.Now()
	defer func() { ph.WallS = time.Since(t0).Seconds() }()

	// emu, features, sim: CollectProgramData taken apart.
	all := append(slices.Clone(in.trainProgs), in.testProgs...)
	for pass := 0; pass < 3; pass++ {
		for _, b := range all {
			parent := tr.begin("collect.program", 0, 0)
			sp := tr.begin("emu.trace", parent.id(), 0)
			recs, err := b.Trace(1, in.sz.collectInsts)
			sp.end()
			if err != nil {
				return c, fmt.Errorf("probe %s: %w", b.Name, err)
			}
			sp = tr.begin("features.extract", parent.id(), 0)
			feats := features.ExtractAll(recs)
			sp.end()
			sp = tr.begin("sim.simulate_all", parent.id(), 0)
			res := sim.SimulateAll(in.cfgs, recs, true)
			sp.end()
			parent.end()
			ok := len(feats) == len(recs)*features.NumFeatures && len(res) == len(in.cfgs)
			ph.op(ok)
			c.collectInsts += len(recs)
		}
	}

	// perfvec: minibatch assembly, and sweeps of one program at a time.
	cfg := in.trainCfg
	ids := s.train.batch()
	tp := tensor.NewTapeArena()
	for i := 0; i < 33; i++ {
		tp.Reset()
		sp := open{}
		if i >= 3 {
			sp = tr.begin("perfvec.batch", 0, 0)
		}
		s.train.dataset.Batch(tp, ids, cfg.Window, cfg.TargetScale, cfg.BatchWorkers)
		sp.end()
	}
	out := make([]float64, s.pred.sw.K())
	for i := 0; i < 200; i++ {
		sp := tr.begin("perfvec.sweep", 0, 0)
		s.pred.sw.Sweep(s.pred.ref[i%len(s.pred.ref)], out)
		sp.end()
	}

	f := s.st.f
	// tensor: the encoder's cell replayed at the model's real shapes on real
	// feature rows.
	flops, rows, err := replayCell(f, s.pred.pds[0], tr)
	if err != nil {
		return c, err
	}
	c.gemmFlops, c.gateRows = flops, rows

	// serve: hashing and the service's direct calls on the warm stream.
	for pass := 0; pass < 5; pass++ {
		for _, p := range in.cold {
			sp := tr.begin("serve.hash", 0, 0)
			serve.HashProgram(p.feats, features.NumFeatures)
			sp.end()
			c.hashBytes += 4 * len(p.feats)
		}
	}
	svc := s.st.svc
	rep32 := make([]float32, f.Cfg.RepDim)
	ns := make([]float64, in.serveSpec.Size)
	for _, w := range in.warm {
		p := in.cold[w.prog]
		var ok bool
		switch w.class {
		case classSubmit:
			sp := tr.begin("serve.submit_hit", 0, 0)
			key, err := svc.Submit("probe", p.feats, p.n, rep32)
			sp.end()
			ok = err == nil && key == p.key
		case classPredict:
			sp := tr.begin("serve.predict", 0, 0)
			_, ok = svc.Predict(p.key, w.uarch)
			sp.end()
		default:
			sp := tr.begin("serve.sweep_cached", 0, 0)
			k, err := svc.SweepCached(p.key, in.serveSpec, rep32, ns)
			sp.end()
			ok = err == nil && k == in.serveSpec.Size
		}
		ph.op(ok)
	}
	for _, p := range in.probeMiss {
		sp := tr.begin("serve.submit_miss", 0, 0)
		key, err := svc.Submit("probe", p.feats, p.n, rep32)
		sp.end()
		ph.op(err == nil && key == p.key)
	}
	return c, nil
}

// replayCell runs the encoder's recurrent cell over one encode chunk of
// real feature windows, layer by layer, with a span around every GEMM and
// every gate kernel. It returns the GEMM operation count and the number of
// rows the gate kernels processed.
func replayCell(f *perfvec.Foundation, p *perfvec.ProgramData, tr *tracer) (float64, int, error) {
	window, fd, hid := f.Cfg.Window, f.Cfg.FeatDim, f.Cfg.Hidden
	if p.N < encodeChunk+window {
		return 0, 0, fmt.Errorf("cell replay needs %d instructions, have %d", encodeChunk+window, p.N)
	}
	params := f.Encoder.Params()
	var s tensor.Slab32
	var flops float64
	var rows int
	gemm := func(x, h, w tensor.Tensor32) tensor.Tensor32 {
		sp := tr.begin("tensor.gemm", 0, 0)
		out := tensor.MatMulBTCat32(&s, x, h, w)
		sp.end()
		flops += 2 * float64(x.R) * float64(w.C) * float64(w.R)
		return out
	}
	t32 := func(t *tensor.Tensor) tensor.Tensor32 {
		return tensor.Tensor32{Data: t.Data, R: t.Rows(), C: t.Cols()}
	}
	for iter := 0; iter < 21; iter++ {
		if iter == 1 {
			flops, rows = 0, 0 // the first pass sizes the slab
		}
		s.Reset()
		xs := make([]tensor.Tensor32, window)
		for t := range xs {
			xs[t] = tensor.Tensor32{Data: p.Features[t*fd : (t+encodeChunk)*fd], R: encodeChunk, C: fd}
		}
		switch enc := f.Encoder.(type) {
		case *nn.LSTM:
			for l := 0; l+1 < len(params); l += 2 {
				w, b := t32(params[l]), params[l+1].Data
				h, c := s.Mat(encodeChunk, hid), s.Mat(encodeChunk, hid)
				for t, x := range xs {
					pre := gemm(x, h, w)
					sp := tr.begin("tensor.gates", 0, 0)
					h, c = tensor.LSTMGates32(&s, pre, b, c)
					sp.end()
					rows += encodeChunk
					xs[t] = h
				}
			}
		case *nn.GRU:
			for l := 0; l+3 < len(params); l += 4 {
				wzr, bzr, wn, bn := t32(params[l]), params[l+1].Data, t32(params[l+2]), params[l+3].Data
				h := s.Mat(encodeChunk, hid)
				for t, x := range xs {
					pre := gemm(x, h, wzr)
					sp := tr.begin("tensor.gates", 0, 0)
					z, rh := tensor.GRUGates32(&s, pre, bzr, h)
					sp.end()
					npre := gemm(x, rh, wn)
					sp = tr.begin("tensor.gates", 0, 0)
					h = tensor.GateCombine32(&s, z, npre, bn, h)
					sp.end()
					rows += encodeChunk
					xs[t] = h
				}
			}
		default:
			return 0, 0, fmt.Errorf("cell replay: no recurrent cell in %T", enc)
		}
	}
	return flops, rows, nil
}

// layerMetrics turns the traced run's spans, probe counts and serve-phase
// counters into the per-layer metrics.
func layerMetrics(in *inputs, s *state, spans []span, c counts) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	sec := func(name string) float64 { return total(durations(spans, name)).Seconds() }
	med := func(name string) float64 { return median(ms(durations(spans, name))) }

	set("emu.insts_per_s", float64(c.collectInsts)/sec("emu.trace"), "1/s")
	set("features.insts_per_s", float64(c.collectInsts)/sec("features.extract"), "1/s")
	set("sim.inst_uarchs_per_s", float64(c.collectInsts*len(in.cfgs))/sec("sim.simulate_all"), "1/s")
	set("perfvec.batch_ms", med("perfvec.batch"), "ms")
	set("perfvec.step_ms", med("train.step"), "ms")
	encodes := len(durations(spans, "predict.encode"))
	set("perfvec.encode_insts_per_s", float64(encodes*s.pred.passInsts)/sec("predict.encode"), "1/s")
	set("perfvec.setspace_ms", med("sweep.setspace"), "ms")
	set("perfvec.sweep_ns_per_config", med("perfvec.sweep")*1e6/float64(s.pred.sw.K()), "ns")
	set("tensor.tape_ops_per_step", float64(s.train.tapeOps), "count")
	gemm := durations(spans, "tensor.gemm")
	set("tensor.gemm_ns_per_call", float64(total(gemm))/float64(len(gemm)), "ns")
	set("tensor.gemm_gflops", c.gemmFlops/total(gemm).Seconds()/1e9, "GFLOP/s")
	set("tensor.gates_ns_per_row", float64(total(durations(spans, "tensor.gates")))/float64(c.gateRows), "ns")
	set("serve.hash_ns_per_kb", float64(total(durations(spans, "serve.hash")))/(float64(c.hashBytes)/1024), "ns")
	set("serve.submit_hit_us", med("serve.submit_hit")*1e3, "us")
	set("serve.predict_us", med("serve.predict")*1e3, "us")
	set("serve.sweep_cached_us", med("serve.sweep_cached")*1e3, "us")
	set("serve.submit_miss_ms", med("serve.submit_miss"), "ms")
	// The HTTP client's spans and the direct calls' spans share class names.
	for metric, class := range map[string]string{"miss": "submit_miss", "hit": "submit_hit", "predict": "predict", "sweep": "sweep_cached"} {
		set("serve.http_overhead_"+metric+"_ms", med("http."+class)-med("serve."+class), "ms")
	}

	sp := s.serve
	miss := func(name string) float64 { return sp.diffs["serve.cold"][name] + sp.diffs["serve.capacity"][name] }
	batches := miss("perfvec_serve_batches_total")
	set("serve.rows_per_batch", miss("perfvec_serve_batched_rows_total")/batches, "count")
	set("serve.programs_per_batch", (miss("perfvec_serve_cache_misses_total")-miss("perfvec_serve_coalesced_total")-miss("perfvec_serve_rejected_queue_total"))/batches, "count")
	warm := sp.diffs["serve.warm"]
	set("serve.cache_hit_ratio", warm["perfvec_serve_cache_hits_total"]/warm["perfvec_serve_submits_total"], "ratio")
	var rejected float64
	for _, d := range sp.diffs {
		rejected += d["perfvec_serve_rejected_rate_total"] + d["perfvec_serve_rejected_queue_total"]
	}
	set("serve.rejected", rejected, "count")
	for _, ph := range []string{"cold", "capacity", "warm"} {
		name := "serve." + ph
		set("runtime.allocs_per_request."+ph, float64(sp.mallocs[name])/float64(sp.requests[name]), "count")
		set("runtime.gc_cycles."+ph, float64(sp.gcs[name]), "count")
	}
	for ph, outs := range map[string][]outcome{"cold": sp.coldOut, "warm": sp.warmOut} {
		_, late, _ := loadSummary(outs)
		set("loadgen.late_p90_ms."+ph, percentile(ms(late), 90).Value, "ms")
	}
	return m
}
