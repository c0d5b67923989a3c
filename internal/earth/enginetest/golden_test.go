package enginetest

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"earth/internal/critpath"
	"earth/internal/earth"
	"earth/internal/earth/simrt"
	"earth/internal/eigen"
	"earth/internal/faults"
	"earth/internal/groebner"
	"earth/internal/harness"
	"earth/internal/neural"
	"earth/internal/obs"
	"earth/internal/sim"
)

// Golden outputs: every artifact a simulated run produces — stats JSON,
// the raw event stream, the Chrome trace, the critical-path report and
// the sanitizer report — is pinned by SHA-256 digest in
// testdata/golden.sha256, for engine-level programs (clean, chaotic,
// crash-stop, partitioned, coalesced, sanitized) and for the paper's
// applications under the same fault plans. A change that moves one byte
// of any artifact fails here. A deliberate change regenerates the file
// with
//
//	go test ./internal/earth/enginetest -run TestGolden -update
//
// and must say why the outputs moved. Every case also runs twice
// in-process and must reproduce its own bytes first, which pins
// same-seed reproducibility of the chaos, crash and partition
// realisations separately from the digests.

var update = flag.Bool("update", false, "rewrite testdata/golden.sha256 from this run")

const goldenFile = "testdata/golden.sha256"

// goldenRun is one finished simulation: its machine size, stats and
// recorded event stream.
type goldenRun struct {
	nodes  int
	stats  *earth.Stats
	events []earth.Event
}

// artifacts renders the run's outputs, keyed by artifact name.
func (r goldenRun) artifacts(t *testing.T) map[string][]byte {
	t.Helper()
	sj, err := json.Marshal(r.stats)
	if err != nil {
		t.Fatal(err)
	}
	ej, err := json.Marshal(r.events)
	if err != nil {
		t.Fatal(err)
	}
	chrome, err := obs.ChromeTrace(r.events)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{
		"stats":    sj,
		"events":   ej,
		"trace":    chrome,
		"critpath": []byte(critpath.Analyze(r.events, r.nodes, r.stats.Elapsed).Render(8)),
	}
	if r.stats.Sanitize != nil {
		rep, err := json.MarshalIndent(r.stats.Sanitize, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		out["sanitize"] = rep
	}
	return out
}

// traced runs body on a fresh simulator under cfg with an event recorder
// installed.
func traced(cfg earth.Config, body func(rt earth.Runtime) *earth.Stats) goldenRun {
	col := &traceCollector{}
	cfg.Tracer = col
	st := body(simrt.New(cfg))
	return goldenRun{nodes: cfg.Nodes, stats: st, events: col.evs}
}

// mixCase runs mixProg under cfg and checks its result.
func mixCase(cfg earth.Config) func(t *testing.T) goldenRun {
	return func(t *testing.T) goldenRun {
		var total int
		var done bool
		body, want := mixProg(cfg.Nodes, &total, &done)
		r := traced(cfg, func(rt earth.Runtime) *earth.Stats { return rt.Run(body) })
		if total != want || !done {
			t.Fatalf("total=%d done=%v, want %d", total, done, want)
		}
		return r
	}
}

// appPlan parses an earthsim-style fault spec with a pinned fault seed.
func appPlan(t *testing.T, spec string) *faults.Plan {
	t.Helper()
	plan, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 42
	return plan
}

// appCfg is earthsim's machine for an 8-node traced run: EARTH costs,
// seed 1, steal balancing and 500µs utilisation samples.
func appCfg() earth.Config {
	return earth.Config{Nodes: 8, Seed: 1, Balancer: earth.BalanceSteal,
		UtilSamplePeriod: 500 * sim.Microsecond}
}

// groebnerK4 runs the parallel Buchberger algorithm on Katsura-4 with
// earthsim's calibration.
func groebnerK4(t *testing.T, cfg earth.Config) goldenRun {
	t.Helper()
	in := groebner.InputByName("Katsura-4")
	seq, err := groebner.Buchberger(in.F, in.Opt)
	if err != nil {
		t.Fatal(err)
	}
	sc := groebner.Calibrate(seq.Trace, in.PaperSeqMS)
	return traced(cfg, func(rt earth.Runtime) *earth.Stats {
		res, err := groebner.ParallelBuchberger(rt, in.F, groebner.ParallelConfig{Opt: in.Opt, StepCost: sc})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	})
}

// nnRun runs earthsim's neural workload: an 80-unit square network, four
// samples, tree reduction, forward only or with training.
func nnRun(cfg earth.Config, train bool) goldenRun {
	const units = 80
	xs := make([][]float32, 4)
	ts := make([][]float32, 4)
	for s := range xs {
		xs[s] = make([]float32, units)
		ts[s] = make([]float32, units)
		for i := range xs[s] {
			xs[s][i] = float32((i+s)%17) / 17
			ts[s][i] = float32((i*3+s)%13) / 13
		}
	}
	return traced(cfg, func(rt earth.Runtime) *earth.Stats {
		return neural.ParallelRun(rt, neural.Square(units, cfg.Seed), xs, ts,
			neural.ParallelConfig{Train: train, Tree: true, LR: 0.1}).Stats
	})
}

// gc is one pinned scenario.
type gc struct {
	name string
	run  func(t *testing.T) goldenRun
}

// goldenCases lists every pinned scenario.
func goldenCases() []gc {
	var cs []gc
	for _, mc := range mixCases {
		cfg := mc.cfg()
		cfg.Sanitize = true
		cs = append(cs, gc{"mix/" + mc.name, mixCase(cfg)})
	}
	for _, mode := range coalModes {
		for _, cc := range coalCases {
			cfg := cc.cfg()
			cfg.Coalesce = mode.cc
			cfg.Sanitize = true
			cs = append(cs, gc{"coalesce/" + mode.name + "/" + cc.name, mixCase(cfg)})
		}
	}
	for _, pc := range partPlans {
		for _, coal := range []bool{false, true} {
			name := "partition/" + pc.name + "/coalesce-off"
			cfg := earth.Config{Nodes: 4, Seed: 11}
			if coal {
				name = "partition/" + pc.name + "/coalesce-on"
				cfg.Coalesce = earth.CoalesceConfig{Enabled: true, MaxMsgs: 4, MaxBytes: 256}
			}
			spec := pc.spec
			cs = append(cs, gc{name, func(t *testing.T) goldenRun {
				plan, err := faults.Parse(spec)
				if err != nil {
					t.Fatal(err)
				}
				c := cfg
				c.Faults = plan
				var total int
				var done bool
				body, _ := partProg(&total, &done, c.Nodes, c.Nodes*2, 4)
				return traced(c, func(rt earth.Runtime) *earth.Stats { return rt.Run(body) })
			}})
		}
	}
	for _, coal := range []bool{false, true} {
		suffix := ""
		if coal {
			suffix = "-coalesce"
		}
		cs = append(cs, gc{"sanitize/clean" + suffix, mixCase(earth.Config{Nodes: 8, Seed: 31,
			Sanitize: true, Coalesce: earth.CoalesceConfig{Enabled: coal}})})
		cs = append(cs, gc{"sanitize/overflow" + suffix, func(t *testing.T) goldenRun {
			cfg := earth.Config{Nodes: 4, Seed: 32, Sanitize: true,
				Coalesce: earth.CoalesceConfig{Enabled: coal}}
			return traced(cfg, func(rt earth.Runtime) *earth.Stats { return rt.Run(sanCases()[0].prog) })
		}})
	}
	cs = append(cs,
		gc{"app/groebner-k4/clean", func(t *testing.T) goldenRun { return groebnerK4(t, appCfg()) }},
		gc{"app/groebner-k4/chaos", func(t *testing.T) goldenRun {
			cfg := appCfg()
			cfg.Faults = appPlan(t, "drop=0.06,dup=0.02,reorder=0.1")
			return groebnerK4(t, cfg)
		}},
		gc{"app/groebner-k4/crash", func(t *testing.T) goldenRun {
			cfg := appCfg()
			cfg.Faults = appPlan(t, "crash=2@1ms,crash=5@3ms,drop=0.05")
			return groebnerK4(t, cfg)
		}},
		gc{"app/groebner-k4/crash-coalesce", func(t *testing.T) goldenRun {
			cfg := appCfg()
			cfg.Coalesce = earth.CoalesceConfig{Enabled: true}
			cfg.Faults = appPlan(t, "crash=2@1ms,crash=5@3ms,drop=0.05")
			return groebnerK4(t, cfg)
		}},
		gc{"app/groebner-k4/partition", func(t *testing.T) goldenRun {
			cfg := appCfg()
			cfg.Faults = appPlan(t, "partition=0.1.2.3.4.5|6.7@1ms-4ms,corrupt=0.03,drop=0.03")
			cfg.Retry = earth.RetryPolicy{Lease: sim.Millisecond, Jitter: 0.2}
			return groebnerK4(t, cfg)
		}},
		gc{"app/nn/chaos-coalesce", func(t *testing.T) goldenRun {
			cfg := appCfg()
			cfg.Coalesce = earth.CoalesceConfig{Enabled: true}
			cfg.Faults = appPlan(t, "drop=0.06,dup=0.02,reorder=0.1")
			return nnRun(cfg, false)
		}},
		gc{"app/nn/train-coalesce", func(t *testing.T) goldenRun {
			cfg := appCfg()
			cfg.Coalesce = earth.CoalesceConfig{Enabled: true}
			return nnRun(cfg, true)
		}},
		gc{"app/nn/train", func(t *testing.T) goldenRun { return nnRun(appCfg(), true) }},
		gc{"app/nn/sanitize", func(t *testing.T) goldenRun {
			cfg := appCfg()
			cfg.Sanitize = true
			return nnRun(cfg, false)
		}},
		gc{"app/nn/sanitize-coalesce", func(t *testing.T) goldenRun {
			cfg := appCfg()
			cfg.Sanitize = true
			cfg.Coalesce = earth.CoalesceConfig{Enabled: true}
			return nnRun(cfg, false)
		}},
		gc{"app/eigen", func(t *testing.T) goldenRun {
			m, tol := harness.EigenWorkload(1)
			return traced(appCfg(), func(rt earth.Runtime) *earth.Stats {
				return eigen.ParallelBisect(rt, m, eigen.ParallelConfig{Tol: tol}).Stats
			})
		}},
	)
	return cs
}

// goldenCaseNamed returns the pinned scenario called name.
func goldenCaseNamed(t *testing.T, name string) gc {
	t.Helper()
	for _, c := range goldenCases() {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("no golden case %q", name)
	return gc{}
}

// The pinned cases are split by name prefix across three top-level
// tests: TestGoldenMix holds the mix/ cases, TestGoldenPartition the
// partition/ cases and TestGoldenOutputs every other case. Subtests are
// named after the case without its group prefix.
var goldenGroups = []string{"mix/", "partition/"}

// inGroup reports whether the case or digest key name belongs to the
// group with the given prefix; "" is the group of names no other claims.
func inGroup(name, prefix string) bool {
	if prefix != "" {
		return strings.HasPrefix(name, prefix)
	}
	for _, g := range goldenGroups {
		if strings.HasPrefix(name, g) {
			return false
		}
	}
	return true
}

// TestGoldenMix pins mixProg under the clean, chaos and crash configs.
func TestGoldenMix(t *testing.T) { checkGolden(t, "mix/") }

// TestGoldenPartition pins partProg under each partition plan with
// coalescing off and on.
func TestGoldenPartition(t *testing.T) { checkGolden(t, "partition/") }

// TestGoldenOutputs pins the coalesce, sanitize and application cases.
func TestGoldenOutputs(t *testing.T) { checkGolden(t, "") }

// checkGolden checks every case of one group against its committed
// digests, after checking that a second same-seed run reproduces the
// first. With -update it rewrites the group's digests and keeps the
// other groups' lines.
func checkGolden(t *testing.T, prefix string) {
	want, err := readGolden()
	if err != nil && !*update {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, gc := range goldenCases() {
		if !inGroup(gc.name, prefix) {
			continue
		}
		t.Run(strings.TrimPrefix(gc.name, prefix), func(t *testing.T) {
			first := gc.run(t)
			if len(first.events) == 0 {
				t.Fatal("run produced no trace events")
			}
			a, b := first.artifacts(t), gc.run(t).artifacts(t)
			for _, k := range sortedKeys(a) {
				if !bytes.Equal(a[k], b[k]) {
					t.Errorf("%s: a repeated same-seed run diverges: %s", k, firstDiff(b[k], a[k]))
				}
				key := gc.name + "/" + k
				sum := sha256.Sum256(a[k])
				got[key] = hex.EncodeToString(sum[:])
				if !*update && got[key] != want[key] {
					t.Errorf("%s: digest %s, want %s", k, got[key], want[key])
				}
			}
		})
	}
	if *update {
		for key, sum := range want {
			if !inGroup(key, prefix) {
				got[key] = sum
			}
		}
		if err := writeGolden(got); err != nil {
			t.Fatal(err)
		}
		return
	}
	for key := range want {
		if _, ok := got[key]; inGroup(key, prefix) && !ok && !t.Failed() {
			t.Errorf("%s is pinned in %s but no case produced it", key, goldenFile)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// readGolden parses "<hex digest>  <case>/<artifact>" lines.
func readGolden() (map[string]string, error) {
	f, err := os.Open(goldenFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, key, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", goldenFile, sc.Text())
		}
		m[key] = sum
	}
	return m, sc.Err()
}

func writeGolden(m map[string]string) error {
	var buf bytes.Buffer
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(&buf, "%s  %s\n", m[k], k)
	}
	if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenFile, buf.Bytes(), 0o644)
}

// firstDiff locates the first divergent byte for a readable failure.
func firstDiff(a, b []byte) string {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			lo, hi := max(i-80, 0), min(i+80, n)
			return fmt.Sprintf("first diff at byte %d: %q vs %q", i, a[lo:hi], b[lo:hi])
		}
	}
	return fmt.Sprintf("length mismatch only (%d vs %d)", len(a), len(b))
}

// mixProg exercises every split-phase operation class. Each node owns
// cells[node]; a fan-out tree of Invoke/Token/Post hops reaches leaves
// that Get a remote cell, then Put a contribution into the node-0
// accumulator behind one fan-in slot. All cross-node state is
// owner-serialised: closures only touch the state of the node they
// execute on, the contract livert imposes.
func mixProg(nodes int, total *int, done *bool) (earth.ThreadBody, int) {
	const depth, branch = 4, 2
	leaves := 1
	for i := 0; i < depth; i++ {
		leaves *= branch
	}
	want := 0
	for i := 0; i < leaves; i++ {
		want += 100 + i + i%nodes // leaf value + fetched cell value
	}
	body := func(c earth.Ctx) {
		cells := make([]int, nodes)
		seeded := earth.NewFrame(0, 1, 1)
		seeded.InitSync(0, nodes, 1, 0)
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, leaves, 0, 0)
		f.SetThread(0, func(earth.Ctx) { *done = true })
		var descend func(c earth.Ctx, d, idx int)
		descend = func(c earth.Ctx, d, idx int) {
			if d == 0 {
				owner := earth.NodeID(idx % nodes)
				var fetched int
				// Get is split-phase: the contribution thread is gated
				// behind a frame slot the Get signals on completion.
				lf := earth.NewFrame(c.Node(), 1, 1)
				lf.InitSync(0, 1, 0, 0)
				v := 100 + idx
				lf.SetThread(0, func(c earth.Ctx) {
					c.Put(0, 8, func() { *total += v + fetched }, f, 0)
				})
				c.Get(owner, 8, func() func() {
					cv := cells[owner]
					return func() { fetched = cv }
				}, lf, 0)
				c.Compute(20 * sim.Microsecond)
				return
			}
			for i := 0; i < branch; i++ {
				child := idx*branch + i
				sub := func(c earth.Ctx) {
					c.Compute(15 * sim.Microsecond)
					descend(c, d-1, child)
				}
				switch child % 3 {
				case 0:
					c.Invoke(earth.NodeID(child%nodes), 8, sub)
				case 1:
					c.Token(16, sub)
				default:
					c.Post(earth.NodeID(child%nodes), 8, sub)
				}
			}
		}
		seeded.SetThread(0, func(c earth.Ctx) { descend(c, depth, 0) })
		for i := 0; i < nodes; i++ {
			i := i
			c.Put(earth.NodeID(i), 8, func() { cells[i] = i }, seeded, 0)
		}
	}
	return body, want
}

// mixCases is the scenario axis for mixProg: a clean steal-balanced run
// with utilisation sampling, a round-robin run with compute jitter, a
// chaos plan (drops, duplicates, reorder delays) and a crash-stop plan
// layered over message faults.
var mixCases = []struct {
	name string
	cfg  func() earth.Config
}{
	{"clean-steal", func() earth.Config {
		return earth.Config{Nodes: 8, Seed: 11, Balancer: earth.BalanceSteal,
			UtilSamplePeriod: 50 * sim.Microsecond}
	}},
	{"clean-roundrobin", func() earth.Config {
		return earth.Config{Nodes: 6, Seed: 12, Balancer: earth.BalanceRoundRobin,
			JitterPct: 5}
	}},
	{"chaos", func() earth.Config {
		return earth.Config{Nodes: 8, Seed: 13, Balancer: earth.BalanceSteal,
			Faults: &faults.Plan{Seed: 13, Drop: 0.08, Dup: 0.05, Reorder: 0.1,
				Window: 150 * sim.Microsecond}}
	}},
	{"crash", func() earth.Config {
		return earth.Config{Nodes: 8, Seed: 14, Balancer: earth.BalanceSteal,
			Faults: &faults.Plan{Seed: 14, Drop: 0.05, Dup: 0.02,
				Crash: []faults.Crash{
					{Node: 2, At: 150 * sim.Microsecond},
					{Node: 5, At: 400 * sim.Microsecond},
				}}}
	}},
}

// partPlans are the partition scenarios: one window inside the lease,
// one outliving it, and the long window with corruption and drops.
var partPlans = []struct{ name, spec string }{
	{"below-lease", "partition=0.1|2.3@200µs-600µs,seed=7"},
	{"above-lease", "partition=0.1|2.3@200µs-2500µs,seed=7"},
	{"partition-corrupt-drop", "partition=0.1|2.3@200µs-2500µs,corrupt=0.1,drop=0.05,seed=7"},
}
