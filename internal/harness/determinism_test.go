package harness

import (
	"encoding/json"
	"testing"
)

// TestParallelSweepDeterminism is the safety net for the host-parallel
// sweeps: for every figure and ablation, the Report text and the Series
// JSON produced with a multi-worker pool must be byte-identical to the
// Workers=1 output for the same seed. Run under -race this also checks
// the cells really are independent.
func TestParallelSweepDeterminism(t *testing.T) {
	serial := Config{Runs: 2, Nodes: []int{1, 2, 4}, Seed: 1, Workers: 1}
	pooled := serial
	pooled.Workers = 4

	experiments := []struct {
		name string
		run  func(cfg Config) *Report
	}{
		{"Table1", Table1},
		{"Figure2", func(cfg Config) *Report { r, _ := Figure2(cfg); return r }},
		{"Table2", Table2},
		{"Figure4", func(cfg Config) *Report { r, _ := Figure4(cfg); return r }},
		{"Figure5", func(cfg Config) *Report { r, _ := Figure5(cfg); return r }},
		{"Table3", Table3},
		{"Figure7", func(cfg Config) *Report { r, _ := Figure7(cfg); return r }},
		{"Figure8", func(cfg Config) *Report { r, _ := Figure8(cfg); return r }},
		{"AblationNNTree", AblationNNTree},
		{"AblationEigenPlacement", AblationEigenPlacement},
		{"AblationGroebnerScheduling", AblationGroebnerScheduling},
		{"AblationNNModes", AblationNNModes},
		{"AblationSearchApps", AblationSearchApps},
		{"AblationKnuthBendix", AblationKnuthBendix},
		{"AblationPortedMachines", AblationPortedMachines},
		{"Overhead", Overhead},
	}
	for _, e := range experiments {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			want := e.run(serial)
			got := e.run(pooled)
			if got.String() != want.String() {
				t.Errorf("report text diverges from Workers=1:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s",
					want.String(), got.String())
			}
			wantJSON, err := json.Marshal(want.Series)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(got.Series)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(wantJSON) {
				t.Errorf("series JSON diverges from Workers=1:\n%s\nvs\n%s", wantJSON, gotJSON)
			}
		})
	}
}
