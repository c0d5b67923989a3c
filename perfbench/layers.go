package main

import (
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"earth/internal/critpath"
	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
	"earth/internal/groebner"
	"earth/internal/neural"
	"earth/internal/obs"
	"earth/internal/poly"
	"earth/internal/search"
	"earth/internal/sim"
)

// This file holds the per-layer probes of the traced run: timed calls
// into each layer's public functions (L0 kernels, the L1 event engine,
// L2 runtime microprograms on both engines, L3 analysers), measured from
// outside the program.

// probe is one timed call site. batch runs the call some number of times
// and returns that number; scale converts ns per call into the metric's
// unit.
type probe struct {
	name  string
	unit  string
	scale float64
	batch func() int
}

// perCall runs batch until budget is spent (at least three batches) and
// returns the median ns per call over batches.
func perCall(budget time.Duration, batch func() int) float64 {
	var per []float64
	start := time.Now()
	for len(per) < 3 || time.Since(start) < budget {
		t0 := time.Now()
		n := batch()
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(max(n, 1)))
	}
	return median(per)
}

// microOps is the number of runtime operations one microprogram issues.
const microOps = 2000

// micro returns a batch that runs one microprogram on a fresh runtime:
// main, on node 0, calls issue microOps times, with remote targets
// cycling over nodes 1..P-1.
func micro(newRT func() earth.Runtime, issue func(c earth.Ctx, owner earth.NodeID)) func() int {
	return func() int {
		rt := newRT()
		p := rt.P()
		rt.Run(func(c earth.Ctx) {
			for j := 0; j < microOps; j++ {
				issue(c, earth.NodeID(1+j%(p-1)))
			}
		})
		return microOps
	}
}

func noopBody(earth.Ctx) {}
func noop()              {}

// runtimeProbes are the L2 microprograms through the public Ctx: one
// operation kind each, at the given engine and machine size. prefix names
// the engine's metrics ("earth" for simrt, "livert").
func runtimeProbes(prefix string, live bool, nodes int, kinds []string) []probe {
	mk := func(mut func(*earth.Config)) func() earth.Runtime {
		return func() earth.Runtime {
			c := earth.Config{Nodes: nodes, Seed: 1}
			if mut != nil {
				mut(&c)
			}
			if live {
				return livert.New(c)
			}
			return simrt.New(c)
		}
	}
	plain := mk(nil)
	all := map[string]func() int{
		"token": micro(plain, func(c earth.Ctx, _ earth.NodeID) { c.Token(16, noopBody) }),
		"get": micro(plain, func(c earth.Ctx, o earth.NodeID) {
			c.Get(o, 8, func() func() { return noop }, nil, 0)
		}),
		"put":    micro(plain, func(c earth.Ctx, o earth.NodeID) { c.Put(o, 8, noop, nil, 0) }),
		"invoke": micro(plain, func(c earth.Ctx, o earth.NodeID) { c.Invoke(o, 8, noopBody) }),
		"post":   micro(plain, func(c earth.Ctx, o earth.NodeID) { c.Post(o, 8, noopBody) }),
		// sync: node 1 owns a frame whose slot absorbs every signal; node 0
		// signals it remotely microOps times.
		"sync": func() int {
			plain().Run(func(c earth.Ctx) {
				c.Invoke(1, 8, func(c1 earth.Ctx) {
					f := earth.NewFrame(1, 1, 1).SetThread(0, noopBody).InitSync(0, microOps, 0, 0)
					c1.Post(0, 8, func(c0 earth.Ctx) {
						for j := 0; j < microOps; j++ {
							c0.Sync(f, 0)
						}
					})
				})
			})
			return microOps
		},
		// flush: each of microOps/16 thread bodies issues 16 Puts to node 1,
		// which the coalescer ships as one batch at the body's end.
		"flush": func() int {
			const perFlush = 16
			rt := mk(func(c *earth.Config) { c.Coalesce = earth.CoalesceConfig{Enabled: true} })()
			rt.Run(func(c earth.Ctx) {
				for j := 0; j < microOps/perFlush; j++ {
					earth.SpawnBody(c, func(c earth.Ctx) {
						for k := 0; k < perFlush; k++ {
							c.Put(1, 8, noop, nil, 0)
						}
					})
				}
			})
			return microOps / perFlush
		},
		"retry": micro(mk(func(c *earth.Config) { c.Faults = &faults.Plan{Drop: 0.2} }),
			func(c earth.Ctx, o earth.NodeID) { c.Put(o, 8, noop, nil, 0) }),
		// idle_poll: node 0 runs a chain of threads, each spawning the next,
		// while every other node sits idle.
		"idle_poll": func() int {
			left := microOps
			var chain earth.ThreadBody
			chain = func(c earth.Ctx) {
				if left--; left > 0 {
					earth.SpawnBody(c, chain)
				}
			}
			plain().Run(func(c earth.Ctx) { earth.SpawnBody(c, chain) })
			return microOps
		},
	}
	var ps []probe
	for _, k := range kinds {
		ps = append(ps, probe{name: prefix + "." + k + "_us", unit: "us", scale: 1e-3, batch: all[k]})
	}
	return ps
}

var simrtKinds = []string{"token", "get", "put", "invoke", "post", "sync", "flush", "retry", "idle_poll"}

// kernelProbes are the L0 and L1 probes. depth is the event-heap depth
// the sim.Engine probe holds steady.
func kernelProbes(depth int) []probe {
	in := groebner.InputByName("Katsura-5")
	var spolys []*poly.Poly
	for i := range in.F {
		for j := i + 1; j < len(in.F); j++ {
			if s := poly.SPoly(in.F[i], in.F[j]); !s.IsZero() {
				spolys = append(spolys, s)
			}
		}
	}
	tsp := search.RandomTSP(tspCities, tspInstance)
	net := neural.Square(nnUnits, 1)
	rng := rand.New(rand.NewSource(1))
	x, t := make([]float32, nnUnits), make([]float32, nnUnits)
	for k := range x {
		x[k], t[k] = rng.Float32(), rng.Float32()
	}
	train := net.Clone()
	const nnCalls = 200
	return []probe{
		{"poly.normal_form_us", "us", 1e-3, func() int {
			for _, s := range spolys {
				poly.NormalForm(s, in.F)
			}
			return len(spolys)
		}},
		{"groebner.seq_ms", "ms", 1e-6, func() int {
			if _, err := groebner.Buchberger(in.F, in.Opt); err != nil {
				panic(err) // Katsura-5 completes; an error here is a bug
			}
			return 1
		}},
		{"search.expand_us", "us", 1e-3, func() int { return seqBranchAndBound(tsp) }},
		{"neural.forward_us", "us", 1e-3, func() int {
			for i := 0; i < nnCalls; i++ {
				net.Forward(x)
			}
			return nnCalls
		}},
		{"neural.train_us", "us", 1e-3, func() int {
			for i := 0; i < nnCalls; i++ {
				train.TrainSample(x, t, nnLR)
			}
			return nnCalls
		}},
		{"sim.event_ns", "ns", 1, func() int { return simEvents(depth) }},
	}
}

// seqBranchAndBound is a sequential depth-first branch and bound over
// t through TSP.Children and TSP.Bound; it returns the nodes expanded.
func seqBranchAndBound(t *search.TSP) int {
	best := math.Inf(1)
	expanded := 0
	var rec func(n search.TSPNode)
	rec = func(n search.TSPNode) {
		expanded++
		if c, ok := t.Solution(n); ok {
			best = min(best, c)
			return
		}
		for _, k := range t.Children(n) {
			if t.Bound(k) < best {
				rec(k)
			}
		}
	}
	rec(t.Root())
	return expanded
}

// simEvents drives a sim.Engine through its public API with depth events
// pending at all times: each event reschedules itself depth ns ahead
// until simEventN have run.
func simEvents(depth int) int {
	const simEventN = 200_000
	e := sim.New()
	ran := 0
	var fn func()
	fn = func() {
		if ran++; ran+depth <= simEventN {
			e.At(e.Now()+sim.Time(depth), fn)
		}
	}
	for i := 0; i < depth; i++ {
		e.At(sim.Time(i), fn)
	}
	e.Run()
	return ran
}

// observatoryProbes time the L3 analysers on one recorded op.
func observatoryProbes(rec *obs.Recorder, nodes int, makespan sim.Time) []probe {
	events := rec.Events()
	return []probe{
		{"critpath.analyze_ms", "ms", 1e-6, func() int {
			critpath.Analyze(events, nodes, makespan)
			return 1
		}},
		{"obs.chrome_ms", "ms", 1e-6, func() int {
			if err := rec.WriteChromeTrace(io.Discard); err != nil {
				panic(err) // io.Discard never fails; encoding errors are bugs
			}
			return 1
		}},
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
