// Command perfbench is the repository's benchmark. It runs one of four
// closed-loop workloads against the public Go API for a fixed time,
// checks every op's answer, and prints a run manifest and, as the last
// line of standard output, one JSON result:
//
//	bash perfbench/run.sh --workload groebner-k5 --seed 1 --seconds 28 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off, with host
// times normalised to a reference host speed (hostspeed.go). --trace 1
// is a separate traced run that reports the per-layer metrics: counts
// from earth.Stats and the benchmark's own earth.Tracer, and timed calls
// into each layer's public functions. --selfcheck times two back-to-back
// runs of every op as one op and exits 0 only if the comparison rule
// flags that as a regression. NOTES.md describes workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"earth/internal/earth"
	"earth/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// manifest describes the host, toolchain, revision and inputs of a run.
type manifest struct {
	Workload   string `json:"workload"`
	Engine     string `json:"engine"`
	Nodes      int    `json:"nodes"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	FaultPlan  string `json:"fault_plan"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"vcs_revision"`
	Modified   bool   `json:"vcs_modified"`
}

func run() error {
	name := flag.String("workload", "", "workload: groebner-k5, nn-train, tsp-chaos or live-nn-fwd")
	seed := flag.Int64("seed", 1, "workload seed; every input and op seed derives from it")
	seconds := flag.Int("seconds", 28, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	selfcheck := flag.Bool("selfcheck", false, "time two back-to-back runs of each op as one and check the regression rule flags it")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be >= 1 and --trace 0 or 1")
	}
	budget := time.Duration(*seconds) * time.Second

	// Ops run on one P. An op's time is then the CPU work of the program
	// and its garbage collector, and does not depend on whether another
	// host CPU happens to be free for the GC's background workers or for
	// livert's other executors (see NOTES.md).
	runtime.GOMAXPROCS(1)

	// The end-to-end run sets up at least five times and for at least a
	// second, and reports the median, so that work moved into set-up shows
	// in setup_s. The host probe runs before every set-up and after the
	// last, and setup_s is normalised by the median of those probes.
	hp := newHostProbe()
	var setups, setupProbes []float64
	var fx *fixture
	setupStart := time.Now()
	for len(setups) < 5 || time.Since(setupStart) < time.Second {
		setupProbes = append(setupProbes, hp.time())
		t0 := time.Now()
		if fx, err = w.setup(*seed); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if *trace == 1 || *selfcheck {
			break
		}
	}
	setupProbes = append(setupProbes, hp.time())
	setupS := median(setups) * probeRefMS / median(setupProbes)
	man := newManifest(w, *seed, *seconds, *trace, fx)

	if *selfcheck {
		return runSelfcheck(w, fx, hp, *seed, budget, man)
	}
	var res result
	if *trace == 0 {
		fmt.Fprintf(os.Stderr, "%s setup: %d set-ups, raw median %.4f s, probe median %.3f ms\n",
			w.name, len(setups), median(setups), median(setupProbes))
		res = endToEnd(w, fx, hp, *seed, budget, setupS)
	} else {
		res = traced(w, fx, hp, *seed, budget)
	}
	return emit(man, res)
}

func emit(man manifest, res result) error {
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	mb, err := json.Marshal(map[string]manifest{"manifest": man})
	if err != nil {
		return err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", mb, rb)
	return nil
}

// --- the closed loop ---------------------------------------------------

// loopOut accumulates the ops of one closed-loop phase.
type loopOut struct {
	ms        []float64 // host ms per op, failed ops included
	probeMS   []float64 // the host probe's time right after each op
	threads   []float64 // EARTH threads each op dispatched; 0 for a failed op
	attempted int
	failed    int
	allocB    uint64    // host bytes the timed ops allocated
	speedups  []float64 // base / Stats.Elapsed, per op that has a base
	rssMB     []float64 // resident set after each op
	first     []byte    // op 0's Stats JSON (simrt determinism check)
	errs      []string
}

// baseEvery is how often, in ops, a workload with a wall-clock speedup
// base re-measures it.
const baseEvery = 4

// closedLoop issues op after op from this goroutine until budget is
// spent, timing the host probe hp after each. reps > 1 times that many
// back-to-back runs of each op as one op (the self-check's synthetic
// slowdown). visit, when non-nil, sees every op's outcome; tracerFor
// picks the Tracer for op i (nil: untraced).
func closedLoop(fx *fixture, hp *hostProbe, seed int64, budget time.Duration, reps int,
	tracerFor func(i int) earth.Tracer, visit func(i int, ms float64, out opOut)) *loopOut {
	lo := &loopOut{}
	runtime.GC()
	var before, after runtime.MemStats
	deadline := time.Now().Add(budget)
	for i := 0; time.Now().Before(deadline); i++ {
		var tr earth.Tracer
		if tracerFor != nil {
			tr = tracerFor(i)
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		var out opOut
		for r := 0; r < reps; r++ {
			out = safeOp(fx.op, opSeed(seed, i), tr)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		lo.allocB += after.TotalAlloc - before.TotalAlloc
		lo.rssMB = append(lo.rssMB, residentMB())
		ms := float64(d.Nanoseconds()) / 1e6
		lo.ms = append(lo.ms, ms)
		lo.probeMS = append(lo.probeMS, hp.time())
		lo.attempted++
		if out.err != nil {
			lo.failed++
			lo.threads = append(lo.threads, 0)
			lo.errs = append(lo.errs, fmt.Sprintf("op %d: %v", i, out.err))
		} else {
			lo.threads = append(lo.threads, float64(uint64(reps)*out.st.TotalThreads()))
			if fx.baseRun == nil {
				lo.speedups = append(lo.speedups, ratio(float64(out.base), float64(out.st.Elapsed)))
			} else if i%baseEvery == 0 {
				// Untimed, right after the op, so that host-speed drift
				// reaches both halves of the ratio alike.
				base := fx.baseRun(opSeed(seed, i))
				lo.speedups = append(lo.speedups, ratio(float64(base), float64(out.st.Elapsed)))
			}
			if i == 0 {
				lo.first, _ = json.Marshal(out.st) // Stats.MarshalJSON does not fail
			}
		}
		if visit != nil {
			visit(i, ms, out)
		}
	}
	return lo
}

// safeOp runs one op, turning a panic into a failed op. (A panic on a
// livert executor goroutine still takes the process down; see NOTES.md.)
func safeOp(op opFunc, seed int64, tr earth.Tracer) (out opOut) {
	defer func() {
		if r := recover(); r != nil {
			out = opOut{err: fmt.Errorf("panic: %v", r)}
		}
	}()
	out = op(seed, tr)
	if out.err == nil && out.st == nil {
		out.err = errors.New("no stats")
	}
	return out
}

// checkDeterminism re-runs op 0's seed on a simrt workload and counts it
// as one more op, failed unless its Stats JSON is byte-identical to the
// first run's.
func checkDeterminism(w *workload, fx *fixture, seed int64, lo *loopOut) {
	if w.live || lo.first == nil {
		return
	}
	lo.attempted++
	out := safeOp(fx.op, opSeed(seed, 0), nil)
	if out.err != nil {
		lo.failed++
		lo.errs = append(lo.errs, fmt.Sprintf("determinism re-run: %v", out.err))
		return
	}
	again, _ := json.Marshal(out.st)
	if string(again) != string(lo.first) {
		lo.failed++
		lo.errs = append(lo.errs, "determinism re-run: Stats JSON differs from the first run")
	}
}

// add folds o's ops into lo (the determinism snapshot is not merged).
func (lo *loopOut) add(o *loopOut) {
	lo.ms = append(lo.ms, o.ms...)
	lo.probeMS = append(lo.probeMS, o.probeMS...)
	lo.threads = append(lo.threads, o.threads...)
	lo.attempted += o.attempted
	lo.failed += o.failed
	lo.allocB += o.allocB
	lo.speedups = append(lo.speedups, o.speedups...)
	lo.rssMB = append(lo.rssMB, o.rssMB...)
	lo.errs = append(lo.errs, o.errs...)
}

func (lo *loopOut) report(w *workload, what string) {
	norm := normalise(lo.ms, lo.probeMS)
	fmt.Fprintf(os.Stderr, "%s %s: %d ops, %d failed, raw p50 %.3f ms, p90 %.3f ms; "+
		"normalised p50 %.3f ms, p90 %.3f ms; probe median %.3f ms\n",
		w.name, what, lo.attempted, lo.failed, quantile(lo.ms, 0.5), quantile(lo.ms, 0.9),
		quantile(norm, 0.5), quantile(norm, 0.9), median(lo.probeMS))
	for k, e := range lo.errs {
		if k == 5 {
			fmt.Fprintf(os.Stderr, "  ... %d more failures\n", len(lo.errs)-k)
			break
		}
		fmt.Fprintln(os.Stderr, " ", e)
	}
}

// --- end-to-end run ------------------------------------------------------

// e2eMetrics computes the end-to-end metrics of one closed-loop phase.
// Host times are normalised to the reference host speed (hostspeed.go).
func e2eMetrics(lo *loopOut, setupS float64) map[string]metric {
	okFrac := 1 - float64(lo.failed)/float64(max(lo.attempted, 1))
	norm := normalise(lo.ms, lo.probeMS)
	var rates []float64
	for i, t := range lo.threads {
		if t > 0 {
			rates = append(rates, t/(norm[i]/1e3))
		}
	}
	return map[string]metric{
		"run_ms.p50":      {quantile(norm, 0.5), "ms"},
		"run_ms.p90":      {quantile(norm, 0.9), "ms"},
		"threads_per_s":   {median(rates), "1/s"},
		"alloc_mb":        {float64(lo.allocB) / 1e6 / float64(max(len(lo.ms), 1)), "MB"},
		"rss_peak_mb":     {quantile(lo.rssMB, 0.9), "MB"},
		"setup_s":         {setupS, "s"},
		"virtual_speedup": {median(lo.speedups), "x"},
		"ok_frac":         {okFrac, "frac"},
	}
}

func endToEnd(w *workload, fx *fixture, hp *hostProbe, seed int64, budget time.Duration, setupS float64) result {
	lo := closedLoop(fx, hp, seed, budget, 1, nil, nil)
	checkDeterminism(w, fx, seed, lo)
	m := e2eMetrics(lo, setupS)
	lo.report(w, "end-to-end")
	fmt.Fprintf(os.Stderr, "%s fail_frac %.6f (ok_frac is its complement), maxrss %.1f MB\n",
		w.name, 1-m["ok_frac"].Value, maxRSSMB())
	return result{Correct: lo.failed == 0, Attempted: lo.attempted, Failed: lo.failed, Metrics: m}
}

// residentMB is the process's current resident set. rss_peak_mb is its
// p90 over ops: the process maximum (getrusage maxrss, printed on
// standard error) is an extreme value over thousands of GC cycles and
// varies by up to 40% between runs of a small heap.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return maxRSSMB()
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return maxRSSMB()
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return maxRSSMB()
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// --- traced run --------------------------------------------------------

// traced runs the workload with three tracer modes in rotation (none,
// the benchmark's kindTracer, obs.Recorder+obs.Metrics), then spends the
// rest of the budget on the per-layer probes.
func traced(w *workload, fx *fixture, hp *hostProbe, seed int64, budget time.Duration) result {
	kt := &kindTracer{}
	var rec, lastRec *obs.Recorder // the current and the last good recorded op
	var lastObs opOut
	var untraced, kinded, observed []float64
	kindOps, obsOps := 0, 0
	var obsEvents int
	var sum struct {
		events, threads, msgs, bytes, retries, recovered, dups, corrupted uint64
		virtualMS, util                                                   float64
		app                                                               appCounts
		n                                                                 int
	}
	tracerFor := func(i int) earth.Tracer {
		switch i % 3 {
		case 1:
			return kt
		case 2:
			rec = obs.NewRecorder()
			return obs.Multi(rec, obs.NewMetrics())
		}
		return nil
	}
	visit := func(i int, ms float64, out opOut) {
		switch i % 3 {
		case 0:
			untraced = append(untraced, ms)
		case 1:
			kinded = append(kinded, ms)
			kindOps++
			kt.endOp()
		case 2:
			observed = append(observed, ms)
			obsOps++
			obsEvents += rec.Len()
			if out.err == nil {
				lastObs, lastRec = out, rec
			}
		}
		if out.err != nil {
			return
		}
		st := out.st
		sum.n++
		sum.events += st.Events
		sum.threads += st.TotalThreads()
		sum.msgs += st.TotalMsgs()
		sum.bytes += st.TotalBytes()
		sum.retries += st.TotalRetries()
		sum.recovered += st.TotalRecovered()
		sum.corrupted += st.TotalCorrupted()
		for _, ns := range st.Nodes {
			sum.dups += ns.DupsDropped
		}
		sum.virtualMS += st.Elapsed.Milliseconds()
		sum.util += st.Utilization()
		sum.app.pairs += out.app.pairs
		sum.app.added += out.app.added
		sum.app.rejected += out.app.rejected
		sum.app.expanded += out.app.expanded
		sum.app.improvements += out.app.improvements
	}
	loopStart := time.Now()
	lo := closedLoop(fx, hp, seed, budget*6/10, 1, tracerFor, visit)
	checkDeterminism(w, fx, seed, lo)
	lo.report(w, "traced")

	// Probes share what is left of the budget equally.
	depth := 4 * w.nodes
	probes := kernelProbes(depth)
	probes = append(probes, runtimeProbes("earth", false, 16, simrtKinds)...)
	probes = append(probes, runtimeProbes("livert", true, 4, []string{"token", "put", "post"})...)
	if lastRec != nil {
		probes = append(probes, observatoryProbes(lastRec, w.nodes, lastObs.st.Elapsed)...)
	}
	left := budget - time.Since(loopStart)
	slice := max(left/time.Duration(len(probes)), 50*time.Millisecond)
	m := map[string]metric{}
	probeMS := map[string]float64{} // the host probe around each call site
	for _, p := range probes {
		before := hp.time()
		m[p.name] = metric{perCall(slice, p.batch) * p.scale, p.unit}
		probeMS[p.name] = (before + hp.time()) / 2
	}
	if lastRec == nil {
		m["critpath.analyze_ms"] = metric{0, "ms"}
		m["obs.chrome_ms"] = metric{0, "ms"}
	}

	n := float64(max(sum.n, 1))
	perKind := func(kinds ...earth.EventKind) float64 {
		return float64(kt.count(kinds...)) / float64(max(kindOps, 1))
	}
	p50 := median(untraced)
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// L0 results.
	set("groebner.pairs", "count", float64(sum.app.pairs)/n)
	set("groebner.added", "count", float64(sum.app.added)/n)
	set("groebner.rejected", "count", float64(sum.app.rejected)/n)
	set("groebner.useful_ratio", "frac", ratio(float64(sum.app.added), float64(sum.app.pairs)))
	share := 0.0
	if sum.app.pairs > 0 {
		// The kernel and the ops are timed seconds apart, while host speed
		// swings, so both are taken at the reference host speed.
		var untracedNorm []float64
		for i, v := range normalise(lo.ms, lo.probeMS) {
			if i%3 == 0 {
				untracedNorm = append(untracedNorm, v)
			}
		}
		seq := m["groebner.seq_ms"].Value * probeRefMS / probeMS["groebner.seq_ms"]
		share = ratio(seq, median(untracedNorm))
	}
	set("groebner.kernel_share", "frac", share)
	set("search.expanded", "count", float64(sum.app.expanded)/n)
	set("search.improvements", "count", float64(sum.app.improvements)/n)
	kernelOp := 0.0
	if fx.nnSamples > 0 {
		kernelOp = m[fx.nnKernel].Value * float64(fx.nnSamples) / 1e3
	}
	set("neural.kernel_op_ms", "ms", kernelOp)

	// L1.
	set("sim.events", "count", float64(sum.events)/n)
	set("sim.ns_per_event", "ns", ratio(p50*1e6, float64(sum.events)/n))

	// L2 counts.
	set("earth.threads", "count", float64(sum.threads)/n)
	set("earth.msgs", "count", float64(sum.msgs)/n)
	set("earth.bytes", "B", float64(sum.bytes)/n)
	set("earth.steal_requests", "count", perKind(earth.EvStealRequest))
	set("earth.steal_hit_ratio", "frac", ratio(perKind(earth.EvStealGrant), perKind(earth.EvStealRequest)))
	set("earth.batch_msgs", "count", ratio(float64(kt.batchMsgs), float64(kt.count(earth.EvBatchFlush))))
	set("earth.retries", "count", float64(sum.retries)/n)
	set("earth.recovered_ratio", "frac", ratio(float64(sum.recovered), float64(sum.retries)))
	set("earth.dups_dropped", "count", float64(sum.dups)/n)
	set("earth.corrupted", "count", float64(sum.corrupted)/n)
	set("earth.virtual_ms", "ms", sum.virtualMS/n)
	set("earth.util", "frac", sum.util/n)
	est := 0.0
	if !w.live {
		est = runtimeEstimate(m, perKind, float64(kt.batchMsgs)/float64(max(kindOps, 1)))
	}
	set("earth.runtime_est_ms", "ms", est/1e3)
	live := 0.0
	if w.live {
		live = perKind(earth.EvGetSend, earth.EvPutSend, earth.EvInvokeSend, earth.EvPostSend)
	}
	set("livert.msgs", "count", live)

	// L3.
	set("obs.events", "count", float64(obsEvents)/float64(max(obsOps, 1)))
	set("obs.overhead_pct", "%", 100*ratio(median(observed)-p50, p50))
	set("trace.overhead_pct", "%", 100*ratio(median(kinded)-p50, p50))
	set("host.probe_ms", "ms", median(lo.probeMS))

	printHostByKind(w, kt, kindOps)
	return result{Correct: lo.failed == 0, Attempted: lo.attempted, Failed: lo.failed, Metrics: m}
}

// runtimeEstimate prices one op's traced operation counts at the simrt
// microprogram costs in m, in µs, to set against neural.kernel_op_ms and
// groebner.seq_ms. Each microprogram's cost covers issue, delivery and the
// body or handler it starts, so thread runs are not priced again.
//
// batched is the op's messages that went through the coalescer. They are
// priced by a batch model fitted to two microprograms: a batch of k
// messages costs a + b·k, where a 1-message batch costs what an unbatched
// Put does (put_us) and a 16-message batch costs flush_us. The other Put
// and Post sends are priced at put_us and post_us.
func runtimeEstimate(m map[string]metric, perKind func(...earth.EventKind) float64, batched float64) float64 {
	cost := func(k string) float64 { return m["earth."+k+"_us"].Value }
	b := (cost("flush") - cost("put")) / 15
	a := cost("put") - b
	puts, posts := perKind(earth.EvPutSend), perKind(earth.EvPostSend)
	unbatched := ratio(max(puts+posts-batched, 0), puts+posts)
	return cost("token")*perKind(earth.EvTokenSpawn) +
		cost("get")*perKind(earth.EvGetSend) +
		cost("invoke")*perKind(earth.EvInvokeSend) +
		unbatched*(cost("put")*puts+cost("post")*posts) +
		a*perKind(earth.EvBatchFlush) + b*batched +
		cost("sync")*perKind(earth.EvSyncSignal) +
		cost("retry")*perKind(earth.EvRetry)
}

// printHostByKind reports the traced ops' events per kind and, on
// livert, the host time by the kind of event that closed each gap. simrt
// buffers its events and hands the Tracer the sorted stream when Run
// ends, so its host gaps time the delivery, not the work; they are left
// out.
func printHostByKind(w *workload, kt *kindTracer, ops int) {
	var b strings.Builder
	per := uint64(max(ops, 1))
	for k := 0; k < earth.KindCount; k++ {
		if kt.counts[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s=%d", earth.EventKind(k), kt.counts[k]/per)
		if w.live {
			fmt.Fprintf(&b, "/%.3fms", float64(kt.hostNS[k])/1e6/float64(per))
		}
	}
	fmt.Fprintf(os.Stderr, "%s per-op events by kind:%s\n", w.name, b.String())
}

// --- self-check --------------------------------------------------------

// benchSpec is the part of BENCHMARK.json the comparison rule reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// regressed is the comparison rule: the candidate is worse than the base
// by more than the metric's bound, as a share of the base.
func regressed(better string, bound, base, cand float64) bool {
	if better == "higher" {
		return cand < base*(1-bound)
	}
	return cand > base*(1+bound)
}

// runSelfcheck measures the workload normally for half the budget and,
// in alternating slices so that host drift hits both alike, with every
// op run twice back to back and timed as one. It applies the comparison
// rule with BENCHMARK.json's bounds, which must flag the 2x slowdown on
// run_ms.p50 and run_ms.p90.
func runSelfcheck(w *workload, fx *fixture, hp *hostProbe, seed int64, budget time.Duration, man manifest) error {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	const slices = 8
	base, cand := &loopOut{}, &loopOut{}
	for k := 0; k < slices; k++ {
		base.add(closedLoop(fx, hp, seed, budget/(2*slices), 1, nil, nil))
		cand.add(closedLoop(fx, hp, seed, budget/(2*slices), 2, nil, nil))
	}
	base.report(w, "selfcheck base")
	cand.report(w, "selfcheck 2x")
	bm, cm := e2eMetrics(base, 0), e2eMetrics(cand, 0)
	flagged := map[string]bool{}
	for _, e := range spec.EndToEnd {
		f := regressed(e.Better, e.Bound, bm[e.Name].Value, cm[e.Name].Value)
		flagged[e.Name] = f
		fmt.Fprintf(os.Stderr, "%s %-16s base %-12.4g 2x %-12.4g bound %.2f flagged=%v\n",
			w.name, e.Name, bm[e.Name].Value, cm[e.Name].Value, e.Bound, f)
	}
	out, _ := json.Marshal(map[string]any{"manifest": man, "selfcheck_flagged": flagged})
	fmt.Println(string(out))
	if !flagged["run_ms.p50"] || !flagged["run_ms.p90"] {
		return errors.New("selfcheck: a 2x slowdown was not flagged as a regression")
	}
	return nil
}

// --- manifest ----------------------------------------------------------

func newManifest(w *workload, seed int64, seconds, trace int, fx *fixture) manifest {
	m := manifest{
		Workload: w.name, Engine: "simrt", Nodes: w.nodes, Seed: seed, Seconds: seconds, Trace: trace,
		FaultPlan: "none", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), CPUModel: cpuModel(), Revision: "unknown",
	}
	if w.live {
		m.Engine = "livert"
	}
	if fx.plan != nil {
		m.FaultPlan = fx.plan.String()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value == "true"
			}
		}
	}
	return m
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
