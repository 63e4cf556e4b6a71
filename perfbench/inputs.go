package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"net/url"
	"runtime"
	"strconv"

	"repro/internal/bench"
	"repro/internal/features"
	"repro/internal/perfvec"
	"repro/internal/serve"
	"repro/internal/uarch"
)

// sizes is the fixed work of every phase. It depends only on --seconds, so
// a run does the same work whatever the speed of the code under test.
type sizes struct {
	rounds int // every timed phase runs once per round

	collectInsts   int // instructions traced per program on the train path
	collectPasses  int // CollectAll passes per round
	collectWarmups int // untimed passes first: the rate ramps up over them
	stepsPerRound  int // training minibatches per round

	predictInsts      int // instructions per program on the predict path
	sweepSize         int // candidate configurations in the predict-path space
	sweepRepsPerRound int // space embeddings and sweeps per round
	sweepTop          int // top-k kept per program

	serveTraceInsts    int     // instructions traced per testing program for request slices
	sliceMin, sliceMax int     // request program lengths, in instruction rows
	warmups            int     // untimed new programs before the serve phases
	cold               int     // open-loop new programs, over all rounds
	coldRate           float64 // requests per second
	capacity           int     // closed-loop new programs, over all rounds
	warm               int     // open-loop requests over cached programs, over all rounds
	warmRate           float64 // requests per second
	serveSweepSize     int     // candidate space of /v1/sweep in the warm phase
	serveTop           int     // ?top= of /v1/sweep
	probeMiss          int     // new programs for the traced direct-call miss probe
}

const (
	coldRate        = 50 // new programs per second
	readsPerProgram = 6  // warm-phase reads per cold-phase program
)

// sizesFor scales the rounds of a run to the given seconds, one round per
// two seconds, keeping every percentile's sample large enough to support
// its p90. README.md gives the basis of the serve traffic: the cold rate is
// about a third of the measured miss capacity, and the warm phase reads
// each cold program six times at six times the cold rate.
func sizesFor(seconds int) sizes {
	rounds := max(3, seconds/2)
	return sizes{
		rounds:            rounds,
		collectInsts:      4000,
		collectPasses:     3,
		collectWarmups:    3,
		stepsPerRound:     15,
		predictInsts:      1000,
		sweepSize:         4096,
		sweepRepsPerRound: 20,
		sweepTop:          8,

		serveTraceInsts: 12000,
		sliceMin:        64,
		sliceMax:        192,
		warmups:         16,
		cold:            max(120, 20*rounds),
		coldRate:        coldRate,
		capacity:        30 * rounds,
		warm:            readsPerProgram * max(120, 20*rounds),
		warmRate:        readsPerProgram * coldRate,
		serveSweepSize:  2048,
		serveTop:        8,
		probeMiss:       60,
	}
}

// program is one request body: a featurized slice of a testing program's
// trace, its wire encoding, and the key the service must answer with.
type program struct {
	name  string
	feats []float32
	n     int
	body  []byte
	key   uint64
	uarch int // uarch index asked for in ?uarch=
}

// pd wraps the program as perfvec input for offline reference encodes.
func (p *program) pd() *perfvec.ProgramData {
	return &perfvec.ProgramData{Name: p.name, N: p.n, FeatDim: features.NumFeatures, Features: p.feats}
}

// warm-phase request classes.
const (
	classSubmit = iota // resubmit of a cached program: a cache hit
	classPredict
	classSweep
	numClasses
)

var classNames = [numClasses]string{"submit_hit", "predict", "sweep_cached"}

// warmReq is one warm-phase request over a cold-phase program.
type warmReq struct {
	class int
	prog  int // index into inputs.cold
	uarch int
}

// inputs is everything generated from the seed before any phase runs.
type inputs struct {
	o     opts
	sz    sizes
	conns int            // client connections: at most the CPUs the process may use
	cfg   perfvec.Config // the predict and serve model's configuration, seeded with --seed

	trainCfg   perfvec.Config    // the trained model's configuration, seeded with guardSeed
	cfgs       []*uarch.Config   // the K=16 microarchitectures the model trains on
	roundCfgs  [][]*uarch.Config // K=16 sets the collect blocks simulate, one per round
	trainProgs []bench.Benchmark
	testProgs  []bench.Benchmark

	calib      []*uarch.Config // UarchModel calibration space
	sweepCands []*uarch.Config // predict-path candidate space
	serveSpec  uarch.SpaceSpec // warm-phase /v1/sweep space

	setupProg                         *program // the program set-up encodes: the same length at every seed
	warmup, cold, capacity, probeMiss []*program
	warm                              []warmReq
}

// guardSeed seeds the train path's training data, split and model
// initialisation. Held-out error after a short training budget swings by
// a quarter between seeds, so it is fixed: then heldout_mape is one number
// for a given code, and only a change to the numerics moves it.
const guardSeed = 1

// genInputs builds the seeded inputs: the sampled microarchitectures, the
// model configuration, the candidate spaces, and the serve request pools
// sliced from the testing programs' real featurized traces. None of this is
// timed.
func genInputs(o opts, sz sizes) (*inputs, error) {
	in := &inputs{o: o, sz: sz, conns: min(2, runtime.NumCPU())}
	cfg := perfvec.DefaultConfig()
	cfg.Model = o.arch
	// One gradient worker, the library's default: fixed, not the host's
	// core count, so training repeats bit for bit on any host.
	cfg.GradWorkers = 1
	cfg.Seed = guardSeed
	in.trainCfg = cfg
	cfg.Seed = o.seed
	in.cfg = cfg

	in.cfgs = uarch.TrainingSet(guardSeed, 9)
	// Each round collects on its own seeded sample, so the collection rate
	// is a median over many draws of the microarchitectures and not the
	// speed of one draw.
	cfgRng := rand.New(rand.NewPCG(uint64(o.seed), 29))
	in.roundCfgs = make([][]*uarch.Config, sz.rounds)
	for r := range in.roundCfgs {
		in.roundCfgs[r] = uarch.TrainingSet(cfgRng.Int64(), 9)
	}
	in.trainProgs = bench.Training()
	in.testProgs = bench.Testing()
	useed := uint64(o.seed)
	in.calib = uarch.GenerateSpace(uarch.SpaceSpec{Size: 512, Seed: useed})
	in.sweepCands = uarch.GenerateSpace(uarch.SpaceSpec{Size: sz.sweepSize, Seed: useed})
	in.serveSpec = uarch.SpaceSpec{Size: sz.serveSweepSize, Seed: useed}

	traces := make([][]float32, len(in.testProgs))
	for i, b := range in.testProgs {
		recs, err := b.Trace(1, sz.serveTraceInsts)
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", b.Name, err)
		}
		if len(recs) < sz.sliceMax {
			return nil, fmt.Errorf("trace %s: %d instructions, need %d", b.Name, len(recs), sz.sliceMax)
		}
		traces[i] = features.ExtractAll(recs)
	}
	rng := rand.New(rand.NewPCG(useed, 0x9E3779B97F4A7C15))
	seen := map[uint64]bool{}
	slice := func(n int) *program {
		for {
			b := rng.IntN(len(traces))
			rows := len(traces[b]) / features.NumFeatures
			start := rng.IntN(rows - n + 1)
			feats := traces[b][start*features.NumFeatures : (start+n)*features.NumFeatures]
			key := serve.HashProgram(feats, features.NumFeatures)
			if seen[key] {
				continue
			}
			seen[key] = true
			return &program{
				name:  in.testProgs[b].Name + "@" + strconv.Itoa(start),
				feats: feats, n: n, body: encodeBody(feats, n), key: key,
				uarch: rng.IntN(len(in.cfgs)),
			}
		}
	}
	pool := func(n int) []*program {
		ps := make([]*program, n)
		for i := range ps {
			ps[i] = slice(sz.sliceMin + rng.IntN(sz.sliceMax-sz.sliceMin+1))
		}
		return ps
	}
	in.setupProg = slice((sz.sliceMin + sz.sliceMax) / 2)
	in.warmup = pool(sz.warmups)
	in.cold = pool(sz.cold)
	in.capacity = pool(sz.capacity)
	in.probeMiss = pool(sz.probeMiss)
	// A warm request reads a program that an earlier or the same round's
	// cold block cached.
	in.warm = make([]warmReq, sz.warm)
	for r := 0; r < sz.rounds; r++ {
		lo, hi := chunk(sz.warm, r, sz.rounds)
		_, cached := chunk(sz.cold, r, sz.rounds)
		for i := lo; i < hi; i++ {
			in.warm[i] = warmReq{class: rng.IntN(numClasses), prog: rng.IntN(cached), uarch: rng.IntN(len(in.cfgs))}
		}
	}
	return in, nil
}

// encodeBody is the /v1/submit wire format: uint32 n, uint32 featDim, then
// n*featDim little-endian float32s.
func encodeBody(feats []float32, n int) []byte {
	b := make([]byte, 8+4*len(feats))
	binary.LittleEndian.PutUint32(b, uint32(n))
	binary.LittleEndian.PutUint32(b[4:], features.NumFeatures)
	for i, v := range feats {
		binary.LittleEndian.PutUint32(b[8+4*i:], math.Float32bits(v))
	}
	return b
}

// sweepQuery is the query string of a cached-key sweep.
func (in *inputs) sweepQuery(key uint64) string {
	v := url.Values{}
	v.Set("key", strconv.FormatUint(key, 16))
	v.Set("size", strconv.Itoa(in.serveSpec.Size))
	v.Set("seed", strconv.FormatUint(in.serveSpec.Seed, 10))
	v.Set("top", strconv.Itoa(in.sz.serveTop))
	return v.Encode()
}
