package harness

import (
	"fmt"
	"strings"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/eigen"
	"earth/internal/faults"
	"earth/internal/groebner"
	"earth/internal/neural"
	"earth/internal/sim"
)

// This file implements the chaos sweep: every paper workload re-run
// under a deterministic fault plan (message drops with modelled
// retry/timeout recovery, duplication filtered by sequence-numbered
// delivery, bounded reordering) next to a clean baseline on the same
// machine size. A workload "converges" when its chaos-run result
// fingerprint is identical to the clean run's — the application-level
// statement that the recovery machinery delivered every message exactly
// once. The whole sweep is deterministic: same Config and Plan, same
// Report, byte for byte, regardless of Workers.

// faultWorkload is one chaos-sweep subject. run executes it on rt and
// returns a canonical, schedule-independent result fingerprint.
type faultWorkload struct {
	name string
	run  func(rt earth.Runtime) (string, *earth.Stats)
}

// faultWorkloads returns the sweep subjects: a clustered eigenvalue
// bisection, the three Table 2 Gröbner inputs, and a neural forward
// pass. Sizes are trimmed so the full grid stays test-suite friendly.
func faultWorkloads(seed int64) []faultWorkload {
	wl := []faultWorkload{{
		name: "Eigenvalue",
		run: func(rt earth.Runtime) (string, *earth.Stats) {
			t := eigen.Clustered(96, 8, seed)
			res := eigen.ParallelBisect(rt, t, eigen.ParallelConfig{Tol: 1e-5})
			return fmt.Sprintf("%.12g", res.Eigenvalues), res.Stats
		},
	}}
	for _, in := range groebner.PaperInputs() {
		in := in
		wl = append(wl, faultWorkload{
			name: "Gröbner/" + in.Name,
			run: func(rt earth.Runtime) (string, *earth.Stats) {
				res, err := groebner.ParallelBuchberger(rt, in.F,
					groebner.ParallelConfig{Opt: in.Opt})
				if err != nil {
					panic(err)
				}
				var b strings.Builder
				for _, p := range res.Basis.Reduce().Polys {
					b.WriteString(p.String())
					b.WriteByte(';')
				}
				return b.String(), res.Stats
			},
		})
	}
	wl = append(wl, faultWorkload{
		name: "NN-forward",
		run: func(rt earth.Runtime) (string, *earth.Stats) {
			xs, ts := nnSamples(24, 4)
			res := neural.ParallelRun(rt, neural.Square(24, 1), xs, ts,
				neural.ParallelConfig{Tree: true, LR: 0.1})
			return fmt.Sprintf("%v", res.Outputs), res.Stats
		},
	})
	return wl
}

// DefaultFaultPlan is the chaos sweep's plan when the caller supplies
// none: the acceptance envelope of 5% drops plus duplication plus
// reordering.
func DefaultFaultPlan() *faults.Plan {
	return &faults.Plan{Drop: 0.05, Dup: 0.02, Reorder: 0.1, Window: 200 * sim.Microsecond}
}

// FaultSweep runs every workload across the node sweep: one clean run
// plus cfg.Runs chaos runs per (workload, nodes) cell, all evaluated on
// the host worker pool. Chaos run k gets a distinct fault realisation —
// plan seeds are derived per run — so the convergence rate samples
// cfg.Runs independent fault histories per cell.
func FaultSweep(cfg Config, plan *faults.Plan) *Report {
	cfg = cfg.WithDefaults()
	if !plan.Enabled() {
		plan = DefaultFaultPlan()
	}
	wls := faultWorkloads(cfg.Seed)
	nodeList := nodesMin(cfg.Nodes, 2)
	per := cfg.Runs + 1 // cell layout: index 0 clean, then cfg.Runs chaos runs

	type cell struct {
		fp                         string
		elapsed                    sim.Time
		faults, retries, recovered uint64
	}
	cells := make([]cell, len(wls)*len(nodeList)*per)
	forEachCell(cfg.Workers, len(cells), func(i int) {
		run := i % per
		ni := i / per % len(nodeList)
		wi := i / (per * len(nodeList))
		ec := earth.Config{Nodes: nodeList[ni], Seed: cfg.Seed + int64(run)*7919}
		if run > 0 {
			p := *plan
			if p.Seed != 0 {
				// Distinct realisation per run even with a pinned plan
				// seed; run 0 of a pinned plan stays exactly reproducible
				// through cmd/earthsim's -fault-seed.
				p.Seed += int64(run-1) * 9973
			}
			ec.Faults = &p
		}
		fp, st := wls[wi].run(simrt.New(ec))
		cells[i] = cell{fp, st.Elapsed, st.TotalFaults(), st.TotalRetries(), st.TotalRecovered()}
	})

	r := &Report{ID: "Chaos", Title: fmt.Sprintf(
		"Fault-injection sweep: plan [%s], %d chaos runs per cell vs clean baseline", plan, cfg.Runs)}
	totalConv, totalRuns := 0, 0
	for wi, wl := range wls {
		conv, total := 0, 0
		var sumSlow float64
		var nf, nr, nrec uint64
		for ni := range nodeList {
			base := (wi*len(nodeList) + ni) * per
			clean := cells[base]
			for k := 1; k <= cfg.Runs; k++ {
				c := cells[base+k]
				total++
				if c.fp == clean.fp {
					conv++
				}
				if clean.elapsed > 0 {
					sumSlow += float64(c.elapsed) / float64(clean.elapsed)
				}
				nf += c.faults
				nr += c.retries
				nrec += c.recovered
			}
		}
		r.add("%-20s converged %3d/%-3d  mean slowdown %.2fx  faults=%-6d retries=%-6d recovered=%d",
			wl.name, conv, total, sumSlow/float64(total), nf, nr, nrec)
		totalConv += conv
		totalRuns += total
	}
	r.add("%-20s converged %3d/%-3d over nodes=%v", "TOTAL", totalConv, totalRuns, nodeList)
	return r
}
