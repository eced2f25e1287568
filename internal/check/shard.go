package check

import (
	"fmt"
	"time"

	"rodsp/internal/core"
	"rodsp/internal/engine"
	"rodsp/internal/mat"
	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/trace"
	"rodsp/internal/workload"
)

// Sharded episodes exercise keyed operator parallelism end to end: a hot
// operator whose standalone load exceeds one node's capacity — the condition
// under which no whole-operator placement can be feasible — is driven
// through three arms:
//
//   - unsharded: the operator on one node must shed (the workload genuinely
//     exceeds a single node, or the sharded arms prove nothing);
//   - sharded, uniform hashing: the PlanShards transform splits it k ways,
//     replicas spread one per node, slots assigned i%k;
//   - sharded, skew-aware: the same split with the slot table bin-packed
//     against the observed Zipf slot profile, plus one live repartition
//     mid-traffic.
//
// Both sharded arms must settle with the conservation ledger at residual 0
// and zero shed, and under Zipf(1.1) keys the skew-aware arm's minimum node
// headroom must strictly beat uniform hashing's.

const (
	shardedEpisodeWall = 2 * time.Second
	shardedRate        = 1000.0 // tuples/s, const
	shardedHotCost     = 0.002  // hot-operator load = 2.0 nodes at the drive rate
	shardedZipfS       = 1.1
	shardedKeyDomain   = 1 << 16
	// shardedProfileN is how many keys the planner draws to estimate the
	// per-slot rate profile the skew-aware table packs.
	shardedProfileN = 200_000
)

// ShardedScenario is one seeded sharded episode: its three arms as
// ordinary scenarios of class Sharded, the shard group the planner split
// off, and the measured slot profile.
type ShardedScenario struct {
	Seed int64
	K    int

	Base      *Scenario // unsharded: 2 nodes, bounded ingress, must shed
	Uniform   *Scenario // PlanShards split, slots assigned i%k
	SkewAware *Scenario // the same split, skew-aware table, swapped live at Wall/2

	Group query.ShardGroup

	// SlotRates is the Zipf key profile over the partition table's slots
	// (fractions summing to 1), measured from the same seeded generator
	// that drives the sharded arms.
	SlotRates []float64
}

// GenerateSharded builds the deterministic sharded scenario for one seed.
// k is the shard count the planner must arrive at (0 = default 4); the
// hot-operator cost and target utilization are derived so PlanShards picks
// exactly that k, keeping the episode a true end-to-end planner exercise.
func GenerateSharded(seed int64, k int) (*ShardedScenario, error) {
	if k == 0 {
		k = 4
	}
	if k < 2 {
		return nil, fmt.Errorf("check: sharded episode needs k ≥ 2, got %d", k)
	}
	s := &ShardedScenario{Seed: seed, K: k}

	b := query.NewBuilder()
	in := b.Input("keys")
	hot := b.Delay("hot", shardedHotCost, 1, in)
	b.Delay("tail", 0.00005, 1, hot)
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("check: sharded graph: %w", err)
	}

	const dt = 0.05
	rates := make([]float64, int(shardedEpisodeWall.Seconds()/dt)+1)
	for i := range rates {
		rates[i] = shardedRate
	}
	traces := []*trace.Trace{trace.New("keys", dt, rates)}
	cfg := engine.NodeConfig{
		IngressCap:  512,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  150 * time.Millisecond,
	}

	// Unsharded base arm: hot on node 0, tail on node 1. Load 2.0 against
	// capacity 1 with a bounded ingress queue — it must shed.
	basePlan, err := placement.NewPlan([]int{0, 1}, 2)
	if err != nil {
		return nil, err
	}
	s.Base = &Scenario{
		Seed: seed, Class: Sharded, Nodes: 2,
		Graph: g, Plan: basePlan, Caps: []float64{1, 1},
		Traces: traces, Wall: shardedEpisodeWall, Config: cfg,
	}

	// Sharded graph: the planner must decide to split the hot operator into
	// exactly k shards at the forecast rate point. TargetUtil is derived
	// from the known load so ceil(load/(target·cap)) == k.
	sharded, decisions, err := core.PlanShards(g, mat.Vec{1}, mat.Vec{shardedRate}, core.ShardPlanConfig{
		MaxShards:  k,
		TargetUtil: shardedRate * shardedHotCost / float64(k),
	})
	if err != nil {
		return nil, fmt.Errorf("check: sharding planner: %w", err)
	}
	if len(decisions) != 1 || decisions[0].K != k {
		return nil, fmt.Errorf("check: planner decisions %+v, want one split at k=%d", decisions, k)
	}
	groups, err := query.ShardGroups(sharded)
	if err != nil {
		return nil, err
	}
	s.Group = groups[0]

	// Placement: splitter, merge and every unsharded operator on node 0;
	// replica i alone on node 1+i, so per-node load is that shard's slot
	// share times the hot load and the min-headroom comparison reads
	// directly off node utilizations.
	nodes := 1 + k
	nodeOf := make([]int, sharded.NumOps())
	for i, r := range s.Group.Replicas {
		nodeOf[r] = 1 + i
	}
	plan, err := placement.NewPlan(nodeOf, nodes)
	if err != nil {
		return nil, err
	}
	caps := make([]float64, nodes)
	for i := range caps {
		caps[i] = 1
	}

	// Slot profile from a twin of the driving key generator.
	keys := func() (func() uint64, error) { return workload.ZipfKeys(seed, shardedZipfS, shardedKeyDomain) }
	gen, err := keys()
	if err != nil {
		return nil, err
	}
	s.SlotRates = workload.SlotRates(gen, shardedProfileN)

	arm := func(slots []int) *Scenario {
		return &Scenario{
			Seed: seed, Class: Sharded, Nodes: nodes,
			Graph: sharded, Plan: plan, Caps: caps,
			Traces: traces, Wall: shardedEpisodeWall, Config: cfg,
			Partitions: map[query.StreamID][]int{s.Group.Stream: slots},
			Keys:       keys,
		}
	}
	s.Uniform = arm(query.UniformSlots(k))
	skew := workload.AssignSkewAware(s.SlotRates, k)
	s.SkewAware = arm(skew)
	// Swap shard labels 0 and 1 at half time: slots genuinely reassign
	// (tuples shift between two live replicas) while the load split stays
	// the same whenever those shards carry near-equal shares.
	swapped := make([]int, len(skew))
	for i, sh := range skew {
		switch sh {
		case 0:
			swapped[i] = 1
		case 1:
			swapped[i] = 0
		default:
			swapped[i] = sh
		}
	}
	s.SkewAware.Schedule = []FaultOp{{At: shardedEpisodeWall / 2, Kind: FaultRepartition, Stream: s.Group.Stream, Slots: swapped}}
	return s, nil
}

// minHeadroom is a run's minimum node headroom (1 − max node utilization).
func minHeadroom(stats []*engine.NodeStats) float64 {
	min := 1.0
	for _, s := range stats {
		if s != nil && 1-s.Utilization < min {
			min = 1 - s.Utilization
		}
	}
	return min
}

// ShardedPairResult reports the three arms of one sharded episode and the
// cross-arm gates.
type ShardedPairResult struct {
	Scenario *ShardedScenario

	Unsharded *EpisodeResult
	Uniform   *EpisodeResult
	SkewAware *EpisodeResult

	// Minimum node headroom (1 − max node utilization) per sharded arm.
	HeadroomUniform float64
	HeadroomSkew    float64

	Violation error
}

// RunShardedPair runs the seeded sharded episode's three arms and asserts
// the keyed-parallelism acceptance gate:
//
//   - the unsharded arm sheds (the hot operator genuinely exceeds one node);
//   - both sharded arms settle at ledger residual 0 with zero shed — the
//     skew-aware arm across one live repartition;
//   - the skew-aware arm's minimum node headroom strictly beats uniform
//     hashing's under the Zipf(1.1) key skew.
func RunShardedPair(seed int64, k int, ev *obs.EventLog) (*ShardedPairResult, error) {
	sc, err := GenerateSharded(seed, k)
	if err != nil {
		return nil, err
	}
	pr := &ShardedPairResult{Scenario: sc}

	if pr.Unsharded, err = episode(sc.Base, nil, open); err != nil {
		return nil, fmt.Errorf("check: unsharded arm: %w", err)
	}
	if pr.Uniform, err = episode(sc.Uniform, nil, open); err != nil {
		return nil, fmt.Errorf("check: uniform arm: %w", err)
	}
	skewEv := obs.NewEventLog(4096)
	if pr.SkewAware, err = episode(sc.SkewAware, skewEv, open); err != nil {
		return nil, fmt.Errorf("check: skew-aware arm: %w", err)
	}
	pr.HeadroomUniform = minHeadroom(pr.Uniform.Stats)
	pr.HeadroomSkew = minHeadroom(pr.SkewAware.Stats)

	fail := func(err error) (*ShardedPairResult, error) {
		pr.Violation = violation(ev, sc.Base, err)
		return pr, nil
	}
	if pr.Unsharded.Violation != nil {
		return fail(fmt.Errorf("check: unsharded arm: %w", pr.Unsharded.Violation))
	}
	if pr.Uniform.Violation != nil {
		return fail(fmt.Errorf("check: uniform arm: %w", pr.Uniform.Violation))
	}
	if pr.SkewAware.Violation != nil {
		return fail(fmt.Errorf("check: skew-aware arm: %w", pr.SkewAware.Violation))
	}
	if pr.Unsharded.Ledger.Shed == 0 {
		return fail(fmt.Errorf("check: unsharded arm never shed — the hot operator fits one node and the pair is vacuous"))
	}
	if pr.Uniform.Ledger.Shed != 0 {
		return fail(fmt.Errorf("check: uniform sharded arm shed %d tuples", pr.Uniform.Ledger.Shed))
	}
	if pr.SkewAware.Ledger.Shed != 0 {
		return fail(fmt.Errorf("check: skew-aware arm shed %d tuples across the live repartition", pr.SkewAware.Ledger.Shed))
	}
	// One repartition event installs the table before the start; the live
	// swap is the second.
	if n := skewEv.Count(obs.EventRepartition); n < 2 {
		return fail(fmt.Errorf("check: skew-aware arm recorded no live repartition"))
	}
	if pr.HeadroomSkew <= pr.HeadroomUniform {
		return fail(fmt.Errorf("check: skew-aware min headroom %.3f does not beat uniform's %.3f under Zipf(%.1f)",
			pr.HeadroomSkew, pr.HeadroomUniform, shardedZipfS))
	}
	return pr, nil
}
