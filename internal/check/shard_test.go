package check

import (
	"reflect"
	"testing"

	"rodsp/internal/obs"
	"rodsp/internal/query"
	"rodsp/internal/workload"
)

// TestShardedPair runs the keyed-parallelism acceptance episode: the
// unsharded hot operator must shed, both k=4 sharded arms must settle at
// ledger residual 0 with zero shed (the skew-aware arm across one live
// repartition), and skew-aware slot packing must strictly beat uniform
// hashing's minimum node headroom under Zipf(1.1) keys.
func TestShardedPair(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded episode drives ~6s of wall-clock sources")
	}
	ev := obs.NewEventLog(0)
	pr, err := RunShardedPair(1, 0, ev)
	if err != nil {
		t.Fatalf("infrastructure: %v", err)
	}
	if pr.Violation != nil {
		t.Fatalf("violation: %v", pr.Violation)
	}
	t.Logf("unsharded: shed %d of %d", pr.Unsharded.Ledger.Shed, pr.Unsharded.Sources)
	t.Logf("uniform k=%d: residual %d, min headroom %.3f",
		pr.Scenario.K, pr.Uniform.Ledger.Residual(), pr.HeadroomUniform)
	t.Logf("skew-aware: residual %d, min headroom %.3f", pr.SkewAware.Ledger.Residual(), pr.HeadroomSkew)
}

// The generated sharded scenario is deterministic: the same seed yields the
// same planner decision, placement, and slot profile.
func TestGenerateShardedDeterministic(t *testing.T) {
	a, err := GenerateSharded(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateSharded(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.K != 4 || b.K != a.K {
		t.Fatalf("k = %d/%d, want the planner to land on 4", a.K, b.K)
	}
	if !reflect.DeepEqual(a.Uniform.Plan.NodeOf, b.Uniform.Plan.NodeOf) {
		t.Fatalf("plans diverge: %v vs %v", a.Uniform.Plan.NodeOf, b.Uniform.Plan.NodeOf)
	}
	if !reflect.DeepEqual(a.SkewAware.Schedule, b.SkewAware.Schedule) {
		t.Fatalf("live repartitions diverge: %+v vs %+v", a.SkewAware.Schedule, b.SkewAware.Schedule)
	}
	for i := range a.SlotRates {
		if a.SlotRates[i] != b.SlotRates[i] {
			t.Fatalf("slot profiles diverge at slot %d", i)
		}
	}
	// The skew-aware table must not do worse than uniform on the profile the
	// episode's headroom gate is judged against.
	skew := workload.AssignSkewAware(a.SlotRates, a.K)
	if got, want := workload.MaxShardLoad(skew, a.SlotRates, a.K),
		workload.MaxShardLoad(query.UniformSlots(a.K), a.SlotRates, a.K); got > want {
		t.Fatalf("skew-aware max shard load %.4f exceeds uniform's %.4f", got, want)
	}
}
