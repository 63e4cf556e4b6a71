package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/bench"
	"repro/internal/dse"
	"repro/internal/nn"
	"repro/internal/perfvec"
	"repro/internal/tensor"
	"repro/internal/uarch"
)

// trainPhase is the model builder's path: collect ground truth on the K
// training microarchitectures, train the foundation model on a fixed step
// budget, and measure its error on the held-out testing programs.
type trainPhase struct {
	in  *inputs
	rep *report
	tr  *tracer

	collect, fit, eval *phaseStat

	all         []bench.Benchmark      // training then testing programs
	ref         []*perfvec.ProgramData // the warm-up collection: training data and held-out programs
	collectRate throughput             // instructions collected
	dataset     *perfvec.Dataset       // the training programs' samples
	samples     int                    // sample ids are [0, samples)
	order       []int                  // seeded visiting order of the samples
	next        int                    // position in order
	model       *perfvec.Foundation    // trained in the fit blocks
	trainer     *perfvec.Trainer       // owns model's training state
	opt         nn.Optimizer           // one optimizer across all rounds
	losses      []float64              // every step's loss
	stepRate    throughput             // samples trained on
	tapeOps     int                    // op records of the last training step
}

func newTrainPhase(in *inputs, rep *report, tr *tracer) *trainPhase {
	return &trainPhase{
		in: in, rep: rep, tr: tr,
		collect: rep.phase("train.collect"),
		fit:     rep.phase("train.fit"),
		eval:    rep.phase("train.eval"),
		all:     append(slices.Clone(in.trainProgs), in.testProgs...),
	}
}

// collectAll is one CollectAll pass over every program on the K
// configurations cfgs.
func (p *trainPhase) collectAll(cfgs []*uarch.Config) ([]*perfvec.ProgramData, error) {
	sp := p.tr.begin("collect.pass", 0, 0)
	defer sp.end()
	return perfvec.CollectAll(p.all, cfgs, 1, p.in.sz.collectInsts)
}

func (p *trainPhase) warm() error {
	in := p.in
	// Collection speeds up over its first passes; they are the warm-up, and
	// the last one is the training data.
	for i := 0; i < in.sz.collectWarmups; i++ {
		pds, err := p.collectAll(in.cfgs)
		if err != nil {
			return fmt.Errorf("collect warm-up: %w", err)
		}
		p.ref = pds
	}
	for i, pd := range p.ref {
		if !checkCollected(pd, pd, len(in.cfgs)) {
			return fmt.Errorf("collect warm-up: %s: bad ground truth", p.all[i].Name)
		}
	}
	trainPds := p.ref[:len(in.trainProgs)]
	d, err := perfvec.NewDataset(trainPds, 0.05, guardSeed)
	if err != nil {
		return err
	}
	p.dataset = d
	for _, pd := range trainPds {
		p.samples += pd.N
	}
	p.order = rand.New(rand.NewPCG(guardSeed, 13)).Perm(p.samples)

	// A few steps of a throwaway trainer warm the allocator and the kernels.
	warm := perfvec.NewTrainer(perfvec.NewFoundation(in.trainCfg), len(in.cfgs))
	opt := nn.NewAdam(in.trainCfg.LR)
	for i := 0; i < 3; i++ {
		warm.Step(d, p.batch(), opt)
	}
	warm.Close()
	p.next = 0
	p.model = perfvec.NewFoundation(in.trainCfg)
	p.trainer = perfvec.NewTrainer(p.model, len(in.cfgs))
	p.opt = nn.NewAdam(in.trainCfg.LR)
	return nil
}

// batch returns the next minibatch of sample ids, walking the seeded order.
func (p *trainPhase) batch() []int {
	b := p.in.trainCfg.BatchSize
	if p.next+b > len(p.order) {
		p.next = 0
	}
	ids := p.order[p.next : p.next+b]
	p.next += b
	return ids
}

func (p *trainPhase) round(r int) error {
	sz := p.in.sz
	// Only the CollectAll calls are timed; each pass is checked and dropped
	// before the next, so the checks cost no time and the passes no heap.
	// The round's first pass is the reference its later passes must repeat.
	cfgs := p.in.roundCfgs[r]
	var ref []*perfvec.ProgramData
	settle()
	var busy time.Duration
	insts := 0
	for i := 0; i < sz.collectPasses; i++ {
		t0 := time.Now()
		pds, err := p.collectAll(cfgs)
		busy += time.Since(t0)
		if err != nil {
			p.rep.problem("train.collect: %v", err)
			for range p.all {
				p.collect.op(false)
			}
			continue
		}
		if ref == nil {
			ref = pds
		}
		for j, pd := range pds {
			checkf(p.rep, p.collect, checkCollected(pd, ref[j], len(cfgs)), "%s: bad or non-repeating ground truth", p.all[j].Name)
			insts += pd.N
		}
	}
	p.collect.WallS += busy.Seconds()
	p.collectRate.add(float64(insts), busy)

	batches := make([][]int, sz.stepsPerRound)
	for i := range batches {
		batches[i] = p.batch()
	}
	dt := block(p.fit, func() {
		for _, ids := range batches {
			sp := p.tr.begin("train.step", 0, 0)
			p.losses = append(p.losses, p.trainer.Step(p.dataset, ids, p.opt))
			sp.end()
		}
	})
	p.stepRate.add(float64(sz.stepsPerRound*p.in.trainCfg.BatchSize), dt)
	return nil
}

func (p *trainPhase) finish() error {
	// One gradient worker, so the last step's graph is on the trainer's tape.
	for _, n := range p.trainer.TapeHistogram() {
		p.tapeOps += n
	}
	p.trainer.Close()
	p.rep.rate("collect_insts_per_s", p.collectRate)
	p.rep.rate("train_samples_per_s", p.stepRate)
	for i, l := range p.losses {
		checkf(p.rep, p.fit, finite([]float64{l}), "step %d: loss not finite", i)
	}

	// Held-out error: deterministic for a seed, so it guards model quality
	// against numerics changes.
	var sum float64
	var n int
	block(p.eval, func() {
		for _, pd := range p.ref[len(p.in.trainProgs):] {
			sp := p.tr.begin("eval.program", 0, 0)
			errs := perfvec.ProgramErrors(p.model, p.trainer.Table, pd)
			sp.end()
			checkf(p.rep, p.eval, finite(errs), "%s: non-finite error", pd.Name)
			for _, e := range errs {
				sum += e
				n++
			}
		}
	})
	mape := sum / float64(n)
	if !finite([]float64{mape}) {
		return errors.New("held-out error is not finite")
	}
	p.rep.set("heldout_mape", mape, "ratio")
	return nil
}

// checkCollected reports whether a collected program is well formed and
// equal in ground truth to the same program's reference collection.
func checkCollected(pd, ref *perfvec.ProgramData, k int) bool {
	if pd == nil || pd.N < 1 || pd.K != k || len(pd.TotalNs) != k || !finite(pd.TotalNs) || !finite(pd.Targets) {
		return false
	}
	for j, v := range pd.TotalNs {
		if v <= 0 || v != ref.TotalNs[j] {
			return false
		}
	}
	return pd.N == ref.N
}

// predictPhase is the offline DSE path: unseen raw programs are emulated
// and featurized, encoded in one batch, and swept over a generated
// candidate space with top-k per program.
type predictPhase struct {
	in  *inputs
	rep *report
	tr  *tracer
	st  *stack

	encode, sweep *phaseStat

	enc         *perfvec.Encoder
	pds         []*perfvec.ProgramData // the warm-up pass's programs
	passInsts   int                    // instructions one pass encodes
	reps, ref   [][]float32            // this pass's and the warm-up pass's representations
	alone       [][]float32            // one program encoded by itself
	encodeRate  throughput             // instructions from raw program to representation
	rng         *rand.Rand
	sw          *perfvec.Sweeper
	out         [][]float64 // per program, per candidate
	top, refTop [][]int     // per program: this sweep's and the reference top-k
	slab        tensor.Slab32
	sweepRate   throughput // candidate configurations swept
}

func newPredictPhase(in *inputs, rep *report, tr *tracer, st *stack) *predictPhase {
	p := &predictPhase{
		in: in, rep: rep, tr: tr, st: st,
		encode: rep.phase("predict.encode"),
		sweep:  rep.phase("predict.sweep"),
		rng:    rand.New(rand.NewPCG(uint64(in.o.seed), 23)),
		sw:     perfvec.NewSweeper(st.f, st.um),
	}
	d := st.f.Cfg.RepDim
	n := len(in.testProgs)
	p.reps, p.out, p.top = make([][]float32, n), make([][]float64, n), make([][]int, n)
	for i := 0; i < n; i++ {
		p.reps[i] = make([]float32, d)
		p.out[i] = make([]float64, len(in.sweepCands))
		p.top[i] = make([]int, in.sz.sweepTop)
	}
	p.alone = [][]float32{make([]float32, d)}
	return p
}

// pass takes every testing program from raw program to representation.
func (p *predictPhase) pass() ([]*perfvec.ProgramData, int, error) {
	pds := make([]*perfvec.ProgramData, len(p.in.testProgs))
	insts := 0
	for i, b := range p.in.testProgs {
		sp := p.tr.begin("predict.collect_features", 0, 0)
		pd, err := perfvec.CollectFeatures(b, 1, p.in.sz.predictInsts)
		sp.end()
		if err != nil {
			return nil, 0, err
		}
		pds[i] = pd
		insts += pd.N
	}
	sp := p.tr.begin("predict.encode", 0, 0)
	p.enc.EncodePrograms32(pds, p.reps)
	sp.end()
	return pds, insts, nil
}

// sweepOnce embeds the candidate space and ranks it for every program.
func (p *predictPhase) sweepOnce() int {
	sp := p.tr.begin("sweep.setspace", 0, 0)
	p.sw.SetSpace(p.in.sweepCands)
	sp.end()
	sp = p.tr.begin("sweep.programs", 0, 0)
	n := dse.SweepPrograms(p.sw, p.ref, p.out, 0)
	sp.end()
	sp = p.tr.begin("sweep.topk", 0, 0)
	for i := range p.out {
		topK(p.out[i], p.top[i])
	}
	sp.end()
	return n
}

func (p *predictPhase) warm() error {
	p.enc = p.st.f.AcquireEncoder()
	pds, insts, err := p.pass()
	if err != nil {
		return fmt.Errorf("predict warm-up: %w", err)
	}
	p.pds, p.passInsts = pds, insts
	p.ref = make([][]float32, len(p.reps))
	for i, r := range p.reps {
		if !finite(r) {
			return fmt.Errorf("predict warm-up: %s: representation not finite", pds[i].Name)
		}
		p.ref[i] = slices.Clone(r)
	}
	p.sweepOnce()
	p.refTop = make([][]int, len(p.out))
	for i := range p.out {
		p.refTop[i] = sortedTop(p.out[i], p.in.sz.sweepTop)
	}
	return nil
}

func (p *predictPhase) round(int) error {
	var insts int
	var err error
	var pds []*perfvec.ProgramData
	dt := block(p.encode, func() { pds, insts, err = p.pass() })
	if err != nil {
		checkf(p.rep, p.encode, false, "%v", err)
	} else {
		p.encodeRate.add(float64(insts), dt)
		for i := range p.reps {
			checkf(p.rep, p.encode, finite(p.reps[i]) && slices.Equal(p.reps[i], p.ref[i]),
				"%s: representation not finite or not repeatable", pds[i].Name)
		}
		// Row-wise batch invariance: a program encoded alone equals its row.
		i := p.rng.IntN(len(pds))
		p.enc.EncodePrograms32(pds[i:i+1], p.alone)
		checkf(p.rep, p.encode, slices.Equal(p.alone[0], p.reps[i]), "%s: encoded alone differs from its batch row", pds[i].Name)
	}

	var configs int
	dt = block(p.sweep, func() {
		for i := 0; i < p.in.sz.sweepRepsPerRound; i++ {
			configs += p.sweepOnce()
		}
	})
	p.sweepRate.add(float64(configs), dt)
	// Each ranking must equal the reference, and a sampled candidate must
	// equal the single-configuration predictor bit for bit.
	for i := range p.out {
		j := p.rng.IntN(len(p.in.sweepCands))
		p.slab.Reset()
		ok := finite(p.out[i]) && slices.Equal(p.top[i], p.refTop[i]) &&
			p.out[i][j] == p.st.f.PredictTotalNs32(&p.slab, p.ref[i], p.sw.Cands().Row(j))
		checkf(p.rep, p.sweep, ok, "program %d: top-k or candidate %d differs from the reference", i, j)
	}
	return nil
}

func (p *predictPhase) finish() error {
	p.st.f.ReleaseEncoder(p.enc)
	if len(p.encodeRate.work) == 0 {
		return errors.New("predict: every pass failed")
	}
	p.rep.rate("predict_insts_per_s", p.encodeRate)
	p.rep.rate("sweep_configs_per_s", p.sweepRate)
	return nil
}

// topK writes into idx the indices of the len(idx) smallest values of ns,
// ascending by (value, index).
func topK(ns []float64, idx []int) {
	k := 0
	for j, v := range ns {
		if k == len(idx) && v >= ns[idx[k-1]] {
			continue
		}
		pos := min(k, len(idx)-1)
		for pos > 0 && ns[idx[pos-1]] > v {
			pos--
		}
		if k < len(idx) {
			k++
		}
		copy(idx[pos+1:k], idx[pos:k-1])
		idx[pos] = j
	}
}

// sortedTop is the reference ranking: the first k of a full stable sort by
// value.
func sortedTop(ns []float64, k int) []int {
	idx := make([]int, len(ns))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int {
		switch {
		case ns[a] < ns[b]:
			return -1
		case ns[a] > ns[b]:
			return 1
		}
		return 0
	})
	return idx[:k]
}
