package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
	"earth/internal/groebner"
	"earth/internal/neural"
	"earth/internal/search"
	"earth/internal/sim"
)

// A workload is a closed loop of complete application runs, one run per
// op, each on a fresh runtime. setup builds the inputs and every
// reference answer from the workload seed; the op it returns must not
// share mutable state between calls.
type workload struct {
	name  string
	live  bool // runs on livert (wall clock) instead of simrt
	nodes int
	setup func(seed int64) (*fixture, error)
}

// fixture is what setup produced: the op and its fault plan.
type fixture struct {
	op   opFunc
	plan *faults.Plan
	// baseRun, when set, re-measures the speedup base during the loop
	// instead of once in setup (livert, whose clock is the wall clock).
	baseRun func(seed int64) sim.Time
	// nnKernel names the neural probe that prices one NN sample, and
	// nnSamples is the samples per op; both are zero outside the NN
	// workloads.
	nnKernel  string
	nnSamples int
}

// opFunc runs one op with its derived seed; tr is the Tracer to install
// (nil for untraced runs).
type opFunc func(seed int64, tr earth.Tracer) opOut

// opOut is one op's outcome. err is set when the op's answer is wrong.
type opOut struct {
	st *earth.Stats
	// base is the reference time in the engine's own clock: the app's
	// sequential or one-node run (see virtual_speedup in NOTES.md).
	base sim.Time
	app  appCounts
	err  error
}

// appCounts are the L0 result fields the per-layer metrics report.
type appCounts struct {
	pairs, added, rejected int
	expanded               int64
	improvements           int
}

var workloads = []workload{
	{name: "groebner-k5", nodes: 16, setup: setupGroebner},
	{name: "nn-train", nodes: 16, setup: func(seed int64) (*fixture, error) { return setupNN(seed, false) }},
	{name: "tsp-chaos", nodes: 16, setup: setupTSP},
	{name: "live-nn-fwd", live: true, nodes: 4, setup: func(seed int64) (*fixture, error) { return setupNN(seed, true) }},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opSeed derives op i's seed from the workload seed (splitmix64), so
// every op explores a different schedule and fault realisation while the
// whole run stays a function of --seed.
func opSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>1) | 1
}

// --- groebner-k5: a Figure 4 cell ---------------------------------------

func setupGroebner(int64) (*fixture, error) {
	in := groebner.InputByName("Katsura-5")
	seq, err := groebner.Buchberger(in.F, in.Opt)
	if err != nil {
		return nil, fmt.Errorf("sequential Katsura-5: %w", err)
	}
	sc := groebner.Calibrate(seq.Trace, in.PaperSeqMS)
	base := groebner.SeqVirtualTime(seq.Trace, sc)
	op := func(seed int64, tr earth.Tracer) opOut {
		rt := simrt.New(earth.Config{Nodes: 16, Seed: seed, Costs: earth.EARTHCosts(), JitterPct: 2, Tracer: tr})
		res, err := groebner.ParallelBuchberger(rt, in.F, groebner.ParallelConfig{Opt: in.Opt, StepCost: sc})
		if err != nil {
			return opOut{err: err}
		}
		out := opOut{st: res.Stats, base: base, app: appCounts{
			pairs: res.PairsProcessed, added: res.Added, rejected: res.Rejected}}
		if !groebner.SameIdeal(res.Basis, seq) {
			out.err = errors.New("parallel basis generates a different ideal than the sequential one")
		}
		return out
	}
	return &fixture{op: op}, nil
}

// --- tsp-chaos: branch and bound under message faults -------------------

// tspCities and tspInstance fix the one RandomTSP instance every op
// solves, as Katsura-5 is fixed for groebner-k5: instance cost varies by
// ±30%, so an instance drawn from the workload seed would move run_ms
// between seeds by more than its bound. The workload seed drives each
// op's schedule and fault realisation. Ten cities keep an op near 35 ms,
// so a run holds hundreds of ops and run_ms.p90 has many beyond it.
const (
	tspCities   = 10
	tspInstance = 1
)

const tspFaults = "drop=0.05,dup=0.02,reorder=0.1,corrupt=0.02"

func setupTSP(int64) (*fixture, error) {
	plan, err := faults.Parse(tspFaults)
	if err != nil {
		return nil, fmt.Errorf("fault plan: %w", err)
	}
	tsp := search.RandomTSP(tspCities, tspInstance)
	opt := tsp.BruteForce()
	one := search.BranchAndBound(simrt.New(earth.Config{Nodes: 1, Seed: 1}), tsp, search.BBConfig{})
	if one.Best != opt {
		return nil, fmt.Errorf("one-node optimum %v, brute force %v", one.Best, opt)
	}
	op := func(seed int64, tr earth.Tracer) opOut {
		rt := simrt.New(earth.Config{Nodes: 16, Seed: seed, Faults: plan, Tracer: tr})
		res := search.BranchAndBound(rt, tsp, search.BBConfig{})
		out := opOut{st: res.Stats, base: one.Stats.Elapsed, app: appCounts{
			expanded: res.Expanded, improvements: res.Improvements}}
		if res.Best != opt {
			out.err = fmt.Errorf("optimum %v, brute force %v", res.Best, opt)
		}
		return out
	}
	return &fixture{op: op, plan: plan}, nil
}

// --- nn-train (Figure 8 cell) and live-nn-fwd (Figure 7 cell on livert) --

// Samples per NN op. livert ops are four times longer than simrt ones
// need to be: the goroutine engine's tail is the most exposed to host
// CPU stalls, and a longer op averages over them.
const (
	nnUnits     = 80
	nnSamples   = 256
	liveSamples = 1024
	nnLR        = 0.1
)

// nnRef is the sequential neural.Net replay an op must match: per-sample
// outputs (before each update when training), the summed loss, and the
// final weights.
type nnRef struct {
	outs [][]float32
	loss float64
	net  *neural.Net
}

// setupNN builds the NN workloads. simrt trains (forward+backward with
// online updates); livert runs the forward pass only, because training on
// livert fails its sequential replay (see NOTES.md).
func setupNN(seed int64, live bool) (*fixture, error) {
	samples := nnSamples
	if live {
		samples = liveSamples
	}
	rng := rand.New(rand.NewSource(seed))
	net := neural.Square(nnUnits, seed)
	xs, ts := make([][]float32, samples), make([][]float32, samples)
	for s := range xs {
		xs[s], ts[s] = make([]float32, nnUnits), make([]float32, nnUnits)
		for k := range xs[s] {
			xs[s][k], ts[s][k] = rng.Float32(), rng.Float32()
		}
	}
	train := !live
	ref := nnRef{net: net.Clone()}
	for s := range xs {
		_, y := ref.net.Forward(xs[s])
		ref.outs = append(ref.outs, y)
		if train {
			ref.loss += ref.net.TrainSample(xs[s], ts[s], nnLR)
		}
	}
	cfg := neural.ParallelConfig{Train: train, Tree: true, LR: nnLR}
	newRT := func(nodes int, seed int64, tr earth.Tracer) earth.Runtime {
		c := earth.Config{Nodes: nodes, Seed: seed, Tracer: tr, Coalesce: earth.CoalesceConfig{Enabled: true}}
		if live {
			return livert.New(c)
		}
		return simrt.New(c)
	}
	nodes := 16
	if live {
		nodes = 4
	}
	// The one-node run in the engine's own clock is the speedup base:
	// modelled time under simrt, wall time under livert.
	baseRun := func(seed int64) sim.Time {
		return neural.ParallelRun(newRT(1, seed, nil), net.Clone(), xs, ts, cfg).Stats.Elapsed
	}
	base := baseRun(seed)
	op := func(seed int64, tr earth.Tracer) opOut {
		par := net.Clone()
		res := neural.ParallelRun(newRT(nodes, seed, tr), par, xs, ts, cfg)
		return opOut{st: res.Stats, base: base, err: ref.check(res, par, train)}
	}
	kernel := "neural.forward_us"
	if train {
		kernel = "neural.train_us"
	}
	fx := &fixture{op: op, nnKernel: kernel, nnSamples: samples}
	if live {
		fx.baseRun = baseRun
	}
	return fx, nil
}

// check applies the tolerances neural's own parallel tests use: forward
// outputs exact; when training, 1e-6 relative on the loss and 1e-5
// absolute on outputs and weights.
func (r nnRef) check(res *neural.ParallelResult, par *neural.Net, train bool) error {
	if len(res.Outputs) != len(r.outs) {
		return fmt.Errorf("%d outputs, want %d", len(res.Outputs), len(r.outs))
	}
	tol := 0.0
	if train {
		tol = 1e-5
	}
	for s, want := range r.outs {
		if err := within(res.Outputs[s], want, tol); err != nil {
			return fmt.Errorf("sample %d output: %w", s, err)
		}
	}
	if !train {
		return nil
	}
	if math.Abs(res.Loss-r.loss) > 1e-6*(1+math.Abs(r.loss)) {
		return fmt.Errorf("loss %v, sequential %v", res.Loss, r.loss)
	}
	for j := range r.net.W1 {
		if err := within(par.W1[j], r.net.W1[j], 1e-5); err != nil {
			return fmt.Errorf("W1[%d]: %w", j, err)
		}
	}
	for k := range r.net.W2 {
		if err := within(par.W2[k], r.net.W2[k], 1e-5); err != nil {
			return fmt.Errorf("W2[%d]: %w", k, err)
		}
	}
	if err := within(par.B1, r.net.B1, 1e-5); err != nil {
		return fmt.Errorf("B1: %w", err)
	}
	if err := within(par.B2, r.net.B2, 1e-5); err != nil {
		return fmt.Errorf("B2: %w", err)
	}
	return nil
}

func within(got, want []float32, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if d := math.Abs(float64(got[i] - want[i])); d > tol || math.IsNaN(d) {
			return fmt.Errorf("element %d: %v vs %v", i, got[i], want[i])
		}
	}
	return nil
}
