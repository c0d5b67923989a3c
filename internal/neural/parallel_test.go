package neural

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/sim"
)

func samples(nIn, nOut, count int, seed int64) (xs, ts [][]float32) {
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < count; s++ {
		x := make([]float32, nIn)
		t := make([]float32, nOut)
		for i := range x {
			x[i] = float32(rng.Float64())
		}
		for i := range t {
			t[i] = float32(rng.Float64())
		}
		xs = append(xs, x)
		ts = append(ts, t)
	}
	return
}

func TestParallelForwardMatchesSequential(t *testing.T) {
	net := Square(24, 5)
	xs, _ := samples(24, 24, 4, 1)
	for _, nodes := range []int{1, 2, 3, 7} {
		rt := simrt.New(earth.Config{Nodes: nodes, Seed: 2})
		res := ParallelRun(rt, net.Clone(), xs, nil, ParallelConfig{Tree: true})
		if len(res.Outputs) != len(xs) {
			t.Fatalf("nodes=%d: %d outputs", nodes, len(res.Outputs))
		}
		for s := range xs {
			_, want := net.Forward(xs[s])
			for k := range want {
				if res.Outputs[s][k] != want[k] {
					t.Fatalf("nodes=%d sample=%d unit=%d: %v vs %v",
						nodes, s, k, res.Outputs[s][k], want[k])
				}
			}
		}
	}
}

func TestParallelTrainingMatchesSequential(t *testing.T) {
	width := 16
	xs, ts := samples(width, width, 6, 3)
	seqNet := Square(width, 11)
	parNet := seqNet.Clone()

	var seqLoss float64
	for s := range xs {
		seqLoss += seqNet.TrainSample(xs[s], ts[s], 0.3)
	}

	rt := simrt.New(earth.Config{Nodes: 4, Seed: 9})
	res := ParallelRun(rt, parNet, xs, ts, ParallelConfig{Train: true, Tree: true, LR: 0.3})

	checkTrained(t, res.Loss, seqLoss, parNet, seqNet)
}

// checkTrained compares a parallel training run with its sequential
// replay. Weights must agree closely: tree-reduce order can differ from
// the sequential summation only in float32 rounding of the partial sums,
// and float64 accumulation keeps them tight.
func checkTrained(t *testing.T, loss, seqLoss float64, parNet, seqNet *Net) {
	t.Helper()
	if math.Abs(loss-seqLoss) > 1e-6*(1+math.Abs(seqLoss)) {
		t.Fatalf("loss: parallel %v vs sequential %v", loss, seqLoss)
	}
	for j := range seqNet.W1 {
		for i := range seqNet.W1[j] {
			d := math.Abs(float64(seqNet.W1[j][i] - parNet.W1[j][i]))
			if d > 1e-5 {
				t.Fatalf("W1[%d][%d] drifted by %v", j, i, d)
			}
		}
	}
	for k := range seqNet.W2 {
		for j := range seqNet.W2[k] {
			d := math.Abs(float64(seqNet.W2[k][j] - parNet.W2[k][j]))
			if d > 1e-5 {
				t.Fatalf("W2[%d][%d] drifted by %v", k, j, d)
			}
		}
	}
}

func TestParallelSpeedsUp(t *testing.T) {
	width := 80
	xs, _ := samples(width, width, 4, 7)
	run := func(nodes int) sim.Time {
		rt := simrt.New(earth.Config{Nodes: nodes, Seed: 1})
		res := ParallelRun(rt, Square(width, 2), xs, nil, ParallelConfig{Tree: true})
		return res.Stats.Elapsed
	}
	one, eight := run(1), run(8)
	sp := float64(one) / float64(eight)
	if sp < 3 {
		t.Fatalf("8-node speedup only %.2f", sp)
	}
}

func TestTreeBeatsSequentialComm(t *testing.T) {
	// The paper: tree communication raised the 80-unit max speedup from 8
	// to 12. At 16 nodes the tree variant must be faster.
	width := 80
	xs, _ := samples(width, width, 4, 8)
	run := func(tree bool) sim.Time {
		rt := simrt.New(earth.Config{Nodes: 16, Seed: 1})
		res := ParallelRun(rt, Square(width, 2), xs, nil, ParallelConfig{Tree: tree})
		return res.Stats.Elapsed
	}
	treeT, seqT := run(true), run(false)
	if treeT >= seqT {
		t.Fatalf("tree (%v) not faster than sequential comm (%v)", treeT, seqT)
	}
}

func TestParallelForwardOnLiveRuntime(t *testing.T) {
	net := Square(12, 6)
	xs, _ := samples(12, 12, 3, 4)
	rt := livert.New(earth.Config{Nodes: 3, Seed: 5})
	res := ParallelRun(rt, net.Clone(), xs, nil, ParallelConfig{Tree: true})
	for s := range xs {
		_, want := net.Forward(xs[s])
		for k := range want {
			if res.Outputs[s][k] != want[k] {
				t.Fatalf("sample %d unit %d differs", s, k)
			}
		}
	}
}

// TestParallelTrainOnLiveRuntime: on the goroutine engine a child's
// back-reduce Post can reach its parent before the parent's own output
// body has run, so the partial sums must survive either order. Across
// many seeds with at least two host threads, live tree training must
// match the sequential replay.
func TestParallelTrainOnLiveRuntime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const width = 32
	for seed := int64(1); seed <= 32; seed++ {
		xs, ts := samples(width, width, 8, seed)
		seqNet := Square(width, seed)
		parNet := seqNet.Clone()
		var seqLoss float64
		for s := range xs {
			seqLoss += seqNet.TrainSample(xs[s], ts[s], 0.3)
		}
		rt := livert.New(earth.Config{Nodes: 16, Seed: seed})
		res := ParallelRun(rt, parNet, xs, ts, ParallelConfig{Train: true, Tree: true, LR: 0.3})
		checkTrained(t, res.Loss, seqLoss, parNet, seqNet)
	}
}

func TestUnevenUnitSplit(t *testing.T) {
	// Width not divisible by node count must still be exact.
	net := Square(13, 21)
	xs, _ := samples(13, 13, 2, 9)
	rt := simrt.New(earth.Config{Nodes: 5, Seed: 3})
	res := ParallelRun(rt, net.Clone(), xs, nil, ParallelConfig{Tree: true})
	for s := range xs {
		_, want := net.Forward(xs[s])
		for k := range want {
			if res.Outputs[s][k] != want[k] {
				t.Fatalf("sample %d unit %d differs", s, k)
			}
		}
	}
}

func TestParallelValidation(t *testing.T) {
	net := Square(4, 1)
	xs, _ := samples(4, 4, 2, 1)
	rt := simrt.New(earth.Config{Nodes: 2, Seed: 1})
	for _, f := range []func(){
		func() { ParallelRun(rt, net, xs, nil, ParallelConfig{Samples: 5}) },
		func() { ParallelRun(rt, net, xs, nil, ParallelConfig{Train: true}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
