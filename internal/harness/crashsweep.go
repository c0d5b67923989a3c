package harness

import (
	"fmt"
	"slices"

	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
	"earth/internal/sim"
)

// This file implements the crash sweep: every chaos-sweep workload
// re-run under crash-stop plans that kill k=1..3 nodes mid-run, next to
// a clean baseline on the same machine size. A run "converges" when its
// result fingerprint is identical to the clean run's — the application-
// level statement that failure detection, frame adoption and token
// re-dispatch lost no work. Like the chaos sweep, the whole grid is
// deterministic: same Config, same Report, byte for byte, regardless of
// Workers.

// crashKills is the sweep's failure axis: how many nodes die per run.
var crashKills = []int{1, 2, 3}

// crashVictims returns k distinct victims for one run, never node 0
// (which hosts each workload's control frame and result collection, so
// the clean baseline and every crashed cell agree on where the
// fingerprint materialises).
func crashVictims(k, nodes, run int) []int {
	start := run * 7 % (nodes - 1)
	out := make([]int, k)
	for j := range out {
		out[j] = 1 + (start+j)%(nodes-1)
	}
	return out
}

// crashPlan schedules k kills at staggered fractions of the clean run's
// makespan, varied per run so cfg.Runs samples distinct crash phases.
func crashPlan(k, nodes, run int, clean sim.Time, seed int64) *faults.Plan {
	p := &faults.Plan{Seed: seed + int64(run)*7919}
	for j, v := range crashVictims(k, nodes, run) {
		frac := 0.15 + 0.22*float64(j) + 0.05*float64(run)
		for frac > 0.85 {
			frac -= 0.7
		}
		p.Crash = append(p.Crash, faults.Crash{Node: v, At: sim.Time(frac * float64(clean))})
	}
	return p
}

// CrashSweep runs every workload on one machine size under k=1..3
// crash-stop failures, cfg.Runs crash phasings per (workload, k) cell,
// and reports convergence, slowdown and recovery effort against the
// clean baseline.
func CrashSweep(cfg Config) *Report {
	cfg = cfg.WithDefaults()
	// One machine size, large enough that three kills leave survivors
	// with headroom.
	nodes := max(5, slices.Max(cfg.Nodes))
	wls := faultWorkloads(cfg.Seed)

	type cell struct {
		fp                   string
		elapsed, detect      sim.Time
		replayed, reassigned uint64
	}
	per := 1 + len(crashKills)*cfg.Runs // index 0 clean, then k-major crash runs
	cells := make([]cell, len(wls)*per)
	// The clean baselines run first: crash times are fractions of the
	// clean makespan, so the crashed cells depend on them.
	forEachCell(cfg.Workers, len(wls), func(wi int) {
		fp, st := wls[wi].run(simrt.New(earth.Config{Nodes: nodes, Seed: cfg.Seed}))
		cells[wi*per] = cell{fp: fp, elapsed: st.Elapsed}
	})
	forEachCell(cfg.Workers, len(wls)*len(crashKills)*cfg.Runs, func(i int) {
		run := i % cfg.Runs
		ki := i / cfg.Runs % len(crashKills)
		wi := i / (cfg.Runs * len(crashKills))
		clean := cells[wi*per].elapsed
		plan := crashPlan(crashKills[ki], nodes, run, clean, cfg.Seed)
		fp, st := wls[wi].run(simrt.New(earth.Config{Nodes: nodes, Seed: cfg.Seed, Faults: plan}))
		var detect sim.Time
		for _, n := range st.Nodes {
			detect += n.DetectionLatency
		}
		cells[wi*per+1+ki*cfg.Runs+run] = cell{
			fp: fp, elapsed: st.Elapsed,
			detect:   detect / sim.Time(crashKills[ki]),
			replayed: st.TotalReplayed(), reassigned: st.TotalReassigned(),
		}
	})

	r := &Report{ID: "Crash", Title: fmt.Sprintf(
		"Crash-stop sweep: k=%v node kills on %d nodes, %d phasings per cell vs clean baseline",
		crashKills, nodes, cfg.Runs)}
	totalConv, totalRuns := 0, 0
	for wi, wl := range wls {
		clean := cells[wi*per]
		for ki, k := range crashKills {
			conv := 0
			var sumSlow float64
			var detect sim.Time
			var rep, rea uint64
			for run := 0; run < cfg.Runs; run++ {
				c := cells[wi*per+1+ki*cfg.Runs+run]
				if c.fp == clean.fp {
					conv++
				}
				if clean.elapsed > 0 {
					sumSlow += float64(c.elapsed) / float64(clean.elapsed)
				}
				detect += c.detect
				rep += c.replayed
				rea += c.reassigned
			}
			r.add("%-20s k=%d  converged %2d/%-2d  mean slowdown %.2fx  detect=%v  replayed=%-5d reassigned=%d",
				wl.name, k, conv, cfg.Runs, sumSlow/float64(cfg.Runs),
				detect/sim.Time(cfg.Runs), rep, rea)
			totalConv += conv
			totalRuns += cfg.Runs
		}
	}
	r.add("%-20s converged %3d/%-3d on %d nodes", "TOTAL", totalConv, totalRuns, nodes)
	return r
}
