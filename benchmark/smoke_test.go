package main

import (
	"testing"
)

// TestSmoke runs every workload at its shortest (one closed and one open
// segment, one kept window each) and looks only at the checks: it keeps the
// harness compiling and correct as the engine's exported API moves. It makes
// no statement about speed.
func TestSmoke(t *testing.T) {
	for _, w := range []string{"chain", "shard_zipf", "chain_durable", "replan"} {
		t.Run(w, func(t *testing.T) {
			o, err := run(runConfig{workload: w, seed: 1, seconds: 2, plan: "CL", dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, o, endToEnd, true)
		})
	}
}

// TestSmokeTraced runs the traced variant of the two workloads that between
// them reach every probe (WAL, restart, placement).
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("traced smoke takes ~20 s")
	}
	for _, w := range []string{"chain_durable", "shard_zipf", "replan"} {
		t.Run(w, func(t *testing.T) {
			o, err := run(runConfig{workload: w, seed: 1, seconds: 2, trace: true, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, o, perLayer, false)
			if o.flags["trace_spans"] == "" || o.flags["trace_file"] == "" {
				t.Errorf("traced run reported no trace file: %v", o.flags)
			}
		})
	}
}

// checkOutcome fails the test on a failed check or a missing metric; with
// positive set, every metric must also be above zero.
func checkOutcome(t *testing.T, o *outcome, defs []metricDef, positive bool) {
	t.Helper()
	if !o.Correct || o.Failed != 0 {
		t.Errorf("correct=%v failed=%d of %d: %v", o.Correct, o.Failed, o.Attempted, o.problems)
	}
	if o.Attempted < 1 {
		t.Errorf("attempted %d items", o.Attempted)
	}
	if len(o.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, %d defined", len(o.Metrics), len(defs))
	}
	if positive {
		for _, d := range defs {
			if o.Metrics[d.name].Value <= 0 {
				t.Errorf("metric %s = %g, must be positive", d.name, o.Metrics[d.name].Value)
			}
		}
	}
}

// TestManifestMatches keeps BENCHMARK.json and the metric tables in step.
func TestManifestMatches(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(dpSpecs)+1 {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(dpSpecs)+1)
	}
	for _, w := range m.Workloads {
		if _, ok := findSpec(w.Name); !ok && w.Name != "replan" {
			t.Errorf("BENCHMARK.json workload %q is unknown to the benchmark", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, the benchmark %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if m.EndToEnd[i].Name != d.name || m.EndToEnd[i].Unit != d.unit {
			t.Errorf("end_to_end[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", i, m.EndToEnd[i].Name, m.EndToEnd[i].Unit, d.name, d.unit)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, the benchmark %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if m.PerLayer[i].Name != d.name || m.PerLayer[i].Unit != d.unit {
			t.Errorf("per_layer[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", i, m.PerLayer[i].Name, m.PerLayer[i].Unit, d.name, d.unit)
		}
	}
}
