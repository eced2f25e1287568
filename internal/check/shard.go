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

// ShardedScenario is one seeded sharded episode: the unsharded base
// scenario, the PlanShards-split graph, its placement (splitter, merge and
// tail on node 0; replica i on node 1+i), and the measured slot profile.
type ShardedScenario struct {
	Seed int64
	K    int

	Base *Scenario // unsharded arm: 2 nodes, bounded ingress, must shed

	Graph *query.Graph // sharded graph (PlanShards output)
	Group query.ShardGroup
	Plan  *placement.Plan
	Nodes int
	Caps  []float64

	Trace  *trace.Trace
	Wall   time.Duration
	Config engine.NodeConfig

	// SlotRates is the Zipf key profile over the partition table's slots
	// (fractions summing to 1), measured from the same seeded generator
	// that drives the episode.
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
	s := &ShardedScenario{Seed: seed, K: k, Wall: shardedEpisodeWall}

	build := func() (*query.Graph, error) {
		b := query.NewBuilder()
		in := b.Input("keys")
		hot := b.Delay("hot", shardedHotCost, 1, in)
		b.Delay("tail", 0.00005, 1, hot)
		return b.Build()
	}
	g, err := build()
	if err != nil {
		return nil, fmt.Errorf("check: sharded graph: %w", err)
	}

	const dt = 0.05
	bins := int(s.Wall.Seconds()/dt) + 1
	rates := make([]float64, bins)
	for i := range rates {
		rates[i] = shardedRate
	}
	s.Trace = trace.New("keys", dt, rates)
	s.Config = engine.NodeConfig{
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
		Traces: []*trace.Trace{s.Trace}, Wall: s.Wall,
		Config: s.Config,
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
	s.Graph = sharded
	groups, err := query.ShardGroups(sharded)
	if err != nil {
		return nil, err
	}
	s.Group = groups[0]

	// Placement: splitter, merge and every unsharded operator on node 0;
	// replica i alone on node 1+i, so per-node load is that shard's slot
	// share times the hot load and the min-headroom comparison reads
	// directly off node utilizations.
	s.Nodes = 1 + k
	nodeOf := make([]int, sharded.NumOps())
	for i, r := range s.Group.Replicas {
		nodeOf[r] = 1 + i
	}
	s.Plan, err = placement.NewPlan(nodeOf, s.Nodes)
	if err != nil {
		return nil, err
	}
	s.Caps = make([]float64, s.Nodes)
	for i := range s.Caps {
		s.Caps[i] = 1
	}

	// Slot profile from a twin of the driving key generator.
	gen, err := workload.ZipfKeys(seed, shardedZipfS, shardedKeyDomain)
	if err != nil {
		return nil, err
	}
	s.SlotRates = workload.SlotRates(gen, shardedProfileN)
	return s, nil
}

// runShardedArm drives the sharded graph once under the given slot table.
// When repart is true, the table's first two shard labels are swapped by a
// live repartition at half the drive time — a genuine slot reassignment
// under traffic. Returns the episode result and the arm's minimum node
// headroom (1 − max node utilization).
func runShardedArm(sc *ShardedScenario, ev *obs.EventLog, slots []int, repart bool) (*EpisodeResult, float64, error) {
	res := &EpisodeResult{Scenario: sc.Base}
	plan, err := placement.NewPlan(append([]int(nil), sc.Plan.NodeOf...), sc.Nodes)
	if err != nil {
		return nil, 0, err
	}
	cl, err := engine.StartClusterConfig(sc.Caps, sc.Config)
	if err != nil {
		return nil, 0, fmt.Errorf("check: starting cluster: %w", err)
	}
	defer cl.Close()
	if ev != nil {
		cl.SetEvents(ev)
	}
	if err := cl.Deploy(sc.Graph, plan, sc.Caps); err != nil {
		return nil, 0, err
	}
	if err := cl.Repartition(sc.Group.Stream, slots); err != nil {
		return nil, 0, fmt.Errorf("check: installing slot table: %w", err)
	}
	if err := cl.Start(); err != nil {
		return nil, 0, err
	}

	keys, err := workload.ZipfKeys(sc.Seed, shardedZipfS, shardedKeyDomain)
	if err != nil {
		return nil, 0, err
	}
	addrs := cl.Addrs()
	inputNodes := engine.InputNodes(sc.Graph, plan)
	in := sc.Graph.Inputs()[0]
	var dests []string
	for _, n := range inputNodes[in] {
		dests = append(dests, addrs[n])
	}
	drv := &engine.SourceDriver{
		Stream:  in,
		Trace:   sc.Trace,
		Addrs:   dests,
		MaxRate: 5000,
		Keys:    keys,
	}
	done := make(chan error, 1)
	go func() {
		n, err := drv.Run(sc.Wall, nil)
		res.Sources, res.SrcDropped = n, drv.Dropped
		done <- err
	}()

	if repart {
		time.Sleep(sc.Wall / 2)
		// Swap shard labels 0 and 1: slots genuinely reassign (tuples shift
		// between two live replicas) while the load split stays the same
		// whenever those shards carry near-equal shares.
		swapped := make([]int, len(slots))
		for i, sh := range slots {
			switch sh {
			case 0:
				swapped[i] = 1
			case 1:
				swapped[i] = 0
			default:
				swapped[i] = sh
			}
		}
		if err := cl.Repartition(sc.Group.Stream, swapped); err != nil {
			return nil, 0, fmt.Errorf("check: live repartition: %w", err)
		}
	}
	if err := <-done; err != nil {
		return nil, 0, fmt.Errorf("check: source: %w", err)
	}
	if err := cl.AwaitQuiescence(15*time.Second, 100*time.Millisecond); err != nil {
		res.Violation = violation(ev, sc.Base, fmt.Errorf("check: liveness: %w", err))
		return res, 0, nil
	}

	stats, _ := cl.Stats()
	delivered, _, _, _, _ := cl.Collector.LatencyStats()
	res.Delivered = delivered
	if s, ok := cl.Collector.LatencySummary(); ok {
		res.P50Ms, res.P99Ms = s.P50*1000, s.P99*1000
	}
	res.Ledger = Assemble(stats, delivered, res.Sources, res.SrcDropped)

	minHead := 1.0
	var partTotal int64
	for _, s := range stats {
		if s == nil {
			res.Violation = violation(ev, sc.Base, fmt.Errorf("check: node unreachable in a sharded episode"))
			return res, 0, nil
		}
		if h := 1 - s.Utilization; h < minHead {
			minHead = h
		}
		for _, counts := range s.PartCounts {
			for _, c := range counts {
				partTotal += c
			}
		}
	}
	if err := CheckOutboxes(stats); err != nil {
		res.Violation = violation(ev, sc.Base, err)
		return res, minHead, nil
	}
	if err := res.Ledger.Check(0); err != nil {
		res.Violation = violation(ev, sc.Base, err)
		return res, minHead, nil
	}
	if res.Delivered == 0 {
		res.Violation = violation(ev, sc.Base, fmt.Errorf("check: no tuple reached the sink (sources=%d)", res.Sources))
		return res, minHead, nil
	}
	// Partition-counter conservation: every keyed tuple crossed the
	// splitter's table exactly once.
	if keyedIn := res.Sources - res.SrcDropped; partTotal != keyedIn {
		res.Violation = violation(ev, sc.Base,
			fmt.Errorf("check: partition counters total %d, want %d keyed tuples", partTotal, keyedIn))
		return res, minHead, nil
	}
	return res, minHead, nil
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

	pr.Unsharded, err = RunEpisode(sc.Base, nil)
	if err != nil {
		return nil, fmt.Errorf("check: unsharded arm: %w", err)
	}
	pr.Uniform, pr.HeadroomUniform, err = runShardedArm(sc, nil, query.UniformSlots(sc.K), false)
	if err != nil {
		return nil, fmt.Errorf("check: uniform arm: %w", err)
	}
	skewEv := obs.NewEventLog(4096)
	skew := workload.AssignSkewAware(sc.SlotRates, sc.K)
	pr.SkewAware, pr.HeadroomSkew, err = runShardedArm(sc, skewEv, skew, true)
	if err != nil {
		return nil, fmt.Errorf("check: skew-aware arm: %w", err)
	}

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
	if n := skewEv.Count(obs.EventRepartition); n < 1 {
		return fail(fmt.Errorf("check: skew-aware arm recorded no live repartition"))
	}
	if pr.HeadroomSkew <= pr.HeadroomUniform {
		return fail(fmt.Errorf("check: skew-aware min headroom %.3f does not beat uniform's %.3f under Zipf(%.1f)",
			pr.HeadroomSkew, pr.HeadroomUniform, shardedZipfS))
	}
	return pr, nil
}
