package enginetest

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"earth/internal/earth"
	"earth/internal/earth/livert"
	"earth/internal/earth/simrt"
	"earth/internal/faults"
	"earth/internal/sim"
)

// Partition/fencing conformance: failure detection is fallible by
// construction — a partition that outlives the detection lease makes the
// survivors declare healthy nodes dead. The machinery under test must
// keep two promises:
//
//   - A partition shorter than the lease is invisible to the detector:
//     zero wrong verdicts, zero fenced messages, zero rejoins, and the
//     run converges to the fault-free result.
//   - A partition longer than the lease costs work, never safety: the
//     majority side adopts at a bumped epoch, every stale-epoch message
//     is rejected at its receiver, the minority self-fences and rejoins
//     at heal — and the run still terminates.
//
// Under simrt all of it must additionally be reproducible byte for byte;
// the golden-output table pins those bytes.

// partProg is crashProg's two-level fan-out with both Compute (simrt's
// virtual clock) and sleep (livert's wall clock), so partition windows
// land mid-run on both engines.
func partProg(total *int, done *bool, nodes, spread, perNode int) (earth.ThreadBody, int) {
	leaves := spread * perNode
	want := 0
	for i := 0; i < leaves; i++ {
		want += i
	}
	body := func(c earth.Ctx) {
		f := earth.NewFrame(0, 1, 1)
		f.InitSync(0, leaves, 0, 0)
		f.SetThread(0, func(earth.Ctx) { *done = true })
		for s := 0; s < spread; s++ {
			base := s * perNode
			c.Invoke(earth.NodeID(s%nodes), 8, func(c earth.Ctx) {
				for i := 0; i < perNode; i++ {
					v := base + i
					c.Token(8, func(c earth.Ctx) {
						c.Compute(60 * sim.Microsecond)
						time.Sleep(60 * time.Microsecond)
						c.Put(0, 8, func() { *total += v }, f, 0)
					})
				}
			})
		}
	}
	return body, want
}

func partEngines(cfg earth.Config) map[string]func() earth.Runtime {
	return map[string]func() earth.Runtime{
		"simrt":  func() earth.Runtime { return simrt.New(cfg) },
		"livert": func() earth.Runtime { return livert.New(cfg) },
	}
}

// TestPartitionFalsePositive is the acceptance scenario: the same
// machine, the same program, one partition below the lease and one above
// it. The short window must be a non-event; the long one must produce a
// wrong verdict per minority node on the majority side, a self-fence and
// rejoin on each minority node, and nothing else.
func TestPartitionFalsePositive(t *testing.T) {
	const nodes = 4
	short, err := faults.Parse("partition=0.1|2.3@200µs-600µs,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	long, err := faults.Parse("partition=0.1|2.3@200µs-2500µs,seed=7")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("below-lease", func(t *testing.T) {
		for name, mk := range partEngines(earth.Config{Nodes: nodes, Seed: 11, Faults: short}) {
			var total int
			var done bool
			body, want := partProg(&total, &done, nodes, nodes*2, 4)
			st := mk().Run(body)
			if total != want || !done {
				t.Errorf("%s: total=%d done=%v, want %d", name, total, done, want)
			}
			if w, fe, rj := st.TotalWrongVerdicts(), st.TotalFenced(), st.TotalRejoins(); w != 0 || fe != 0 || rj != 0 {
				t.Errorf("%s: partition below lease must be invisible, got wrong=%d fenced=%d rejoins=%d",
					name, w, fe, rj)
			}
		}
	})

	t.Run("above-lease", func(t *testing.T) {
		for name, mk := range partEngines(earth.Config{Nodes: nodes, Seed: 11, Faults: long}) {
			var total int
			var done bool
			body, _ := partProg(&total, &done, nodes, nodes*2, 4)
			st := mk().Run(body) // termination, not convergence: fenced work is lost
			if st.TotalWrongVerdicts() != 2 {
				t.Errorf("%s: wrong verdicts = %d, want 2 (one per minority node)",
					name, st.TotalWrongVerdicts())
			}
			if st.TotalRejoins() != 2 {
				t.Errorf("%s: rejoins = %d, want 2", name, st.TotalRejoins())
			}
			for i, ns := range st.Nodes {
				minority := i >= 2 // groups 0.1|2.3: the side without node 0 fences
				if minority && ns.WrongVerdicts != 0 {
					t.Errorf("%s: node %d is minority but issued %d wrong verdicts", name, i, ns.WrongVerdicts)
				}
				if !minority && ns.Rejoins != 0 {
					t.Errorf("%s: node %d is majority but rejoined %d times", name, i, ns.Rejoins)
				}
			}
		}
	})

	t.Run("stale-epochs-rejected-simrt", func(t *testing.T) {
		// Deterministic on the simulator: minority leaves issued before the
		// fence are held at the cut link and land after the epoch bump, so
		// some must be rejected. (livert's equivalent is timing-dependent
		// and covered by the counters being wired at all, above.)
		var total int
		var done bool
		body, _ := partProg(&total, &done, nodes, nodes*2, 4)
		st := simrt.New(earth.Config{Nodes: nodes, Seed: 11, Faults: long}).Run(body)
		if st.TotalFenced() == 0 {
			t.Error("simrt: no stale-epoch message was fenced across the long partition")
		}
	})
}

// FuzzPartitionRecovery: for any byte-derived program and any partition
// window over a byte-derived group split, the simulator must terminate,
// reproduce its own stats on a same-seed rerun, and fence if and only if
// the window outlives the lease.
func FuzzPartitionRecovery(f *testing.F) {
	f.Add(uint8(1), uint32(200_000), uint32(400_000), uint8(0), []byte{5, 3, 2, 40, 41, 42})
	f.Add(uint8(2), uint32(200_000), uint32(2_300_000), uint8(10), []byte{1, 2, 3})
	f.Add(uint8(5), uint32(0), uint32(3_000_000), uint8(40), []byte{255, 3, 255, 0, 7, 7, 99, 1})
	f.Fuzz(func(t *testing.T, split uint8, from, dur uint32, corrupt uint8, data []byte) {
		p := decodeFuzzProgram(data)
		if p.nodes < 3 {
			p.nodes = 3 // need a majority side worth adopting into
		}
		// A byte-derived two-group split: cut point in [1, nodes-1].
		cut := 1 + int(split)%(p.nodes-1)
		var groups [2][]int
		for n := 0; n < p.nodes; n++ {
			if n < cut {
				groups[0] = append(groups[0], n)
			} else {
				groups[1] = append(groups[1], n)
			}
		}
		plan := &faults.Plan{Seed: 1, Corrupt: float64(corrupt%50) / 100,
			Partition: []faults.Partition{{
				From:   sim.Time(from % 1_000_000),
				Groups: groups,
			}}}
		plan.Partition[0].To = plan.Partition[0].From + 1 + sim.Time(dur%3_000_000)
		if err := plan.Validate(); err != nil {
			t.Fatalf("constructed plan invalid: %v", err)
		}
		run := func() (*earth.Stats, int, bool) {
			return p.runStats(simrt.New(earth.Config{Nodes: p.nodes, Seed: 1, Faults: plan}))
		}
		st1, total1, done1 := run()
		st2, total2, done2 := run()
		j1, _ := json.Marshal(st1)
		j2, _ := json.Marshal(st2)
		if !bytes.Equal(j1, j2) {
			t.Errorf("stats diverge across same-seed runs:\n%s\n%s", j1, j2)
		}
		if total1 != total2 || done1 != done2 {
			t.Errorf("results diverge across same-seed runs: total %d/%d done %v/%v", total1, total2, done1, done2)
		}
		if st1.TotalWrongVerdicts() == 0 {
			// No fence fired (window below lease, or the run quiesced
			// first): the detector must have been transparent.
			if st1.TotalRejoins() != 0 || st1.TotalFenced() != 0 {
				t.Errorf("no wrong verdict but rejoins=%d fenced=%d",
					st1.TotalRejoins(), st1.TotalFenced())
			}
			if total1 != p.want || !done1 {
				t.Errorf("clean-detector run: total=%d done=%v, want %d", total1, done1, p.want)
			}
		} else if st1.TotalRejoins() > st1.TotalWrongVerdicts() {
			t.Errorf("rejoins=%d exceed wrong verdicts=%d",
				st1.TotalRejoins(), st1.TotalWrongVerdicts())
		}
	})
}
