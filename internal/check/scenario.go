package check

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"rodsp/internal/engine"
	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/trace"
)

// Class partitions scenarios by how much of the ledger can be asserted.
type Class int

const (
	// Strict scenarios keep every node alive, so the conservation ledger
	// holds exactly (up to the sever-fault write slack).
	Strict Class = iota
	// KillNode scenarios kill a node mid-episode: its counters become
	// unreachable and tuples flushed into its sockets are unaccounted, so
	// only the survivors' outbox identities and liveness are asserted.
	KillNode
	// Controller scenarios drive a flash-crowd + diurnal-wave workload with
	// the elastic placement controller closed over the cluster, and assert
	// that its autonomous migrations keep the conservation ledger at
	// residual 0 — and fire *before* the overload onset (see controller.go).
	Controller
	// Sharded scenarios drive a hot operator whose standalone load exceeds
	// one node's capacity through a keyed shard group, comparing the
	// unsharded, uniform-hash and skew-aware arms (see shard.go).
	Sharded
	// CorrSpike scenarios ramp two streams together — the correlated load
	// variation ROD's rate-space reasoning is built for — and hold the
	// strict conservation ledger across the simultaneous spike.
	CorrSpike
	// Recover scenarios kill an interior node mid-episode and restart it
	// from its WAL directory (see GenerateRecover): the ledger must close
	// at residual 0 with zero slack ACROSS the crash — retained-until-ack
	// outboxes cover tuples in flight to the victim, WAL replay covers
	// tuples the victim admitted but had not finished, and the sink dedup
	// filter proves no duplicate delivery survived either mechanism. It is
	// the one durable class: its runs get a WAL root and sink dedup.
	Recover
)

// ClassFor is the class of rodcheck's chaos episode for one seed: kill when
// seed%3 == 2, else corr-spike when seed%7 == 3, else strict. Deriving it
// from the seed rather than the episode's position in a loop is what lets
// a failure's "-seed S -episodes 1" repro replay the class that failed.
func ClassFor(seed int64) Class {
	switch {
	case seed%3 == 2:
		return KillNode
	case seed%7 == 3:
		return CorrSpike
	}
	return Strict
}

func (c Class) String() string {
	switch c {
	case KillNode:
		return "kill"
	case Controller:
		return "controller"
	case Sharded:
		return "sharded"
	case CorrSpike:
		return "corr-spike"
	case Recover:
		return "recover"
	}
	return "strict"
}

// FaultKind enumerates the timed operations of an episode's schedule.
type FaultKind int

const (
	FaultSever FaultKind = iota
	FaultDrop
	FaultDelay
	FaultHeal
	FaultMigrate
	FaultKill
	FaultRestart     // restart a killed node from its WAL directory
	FaultRepartition // install a new slot table on a keyed stream, live
	numFaultKinds
)

var faultNames = [numFaultKinds]string{
	FaultSever: "sever", FaultDrop: "drop", FaultDelay: "delay", FaultHeal: "heal",
	FaultMigrate: "migrate", FaultKill: "kill", FaultRestart: "restart",
	FaultRepartition: "repartition",
}

func (k FaultKind) String() string {
	if k < 0 || k >= numFaultKinds {
		return "?"
	}
	return faultNames[k]
}

// FaultOp is one timed operation within an episode. A schedule heals its
// own link faults before the sources stop, so the cluster can drain.
type FaultOp struct {
	At   time.Duration // offset from episode start
	Kind FaultKind

	Node int // acting node: link-fault source, kill and restart target
	Peer int // link-fault destination node

	Op    int           // migrated operator (FaultMigrate)
	To    int           // migration destination node
	Stall time.Duration // state-transfer stall charged to both homes

	Delay time.Duration // injected flush delay (FaultDelay)

	Stream query.StreamID // repartitioned keyed stream (FaultRepartition)
	Slots  []int          // its new slot table
}

// Scenario is the complete description of one conformance run: a
// unit-multiplicity query graph (selectivity-1 chains, merged at most by
// selectivity-1 unions, one consumer per stream — the shape under which
// tuple conservation is exact), a placement
// that forces cross-node hops, wall-clock traces, data-plane knobs, keyed
// routing, and the schedule of timed operations applied while the sources
// run.
type Scenario struct {
	Seed  int64
	Class Class
	Nodes int

	Graph  *query.Graph
	Plan   *placement.Plan // initial placement; episodes copy before mutating
	Caps   []float64
	Traces []*trace.Trace // per input stream, wall-clock tuples/second
	Wall   time.Duration  // source drive time

	Config engine.NodeConfig

	// Partitions is the initial slot table of each keyed stream, installed
	// before the cluster starts (the engine twin of sim.Config.Partitions).
	// Keys, when set, makes each run's key generator: every source stamps
	// partition keys from a fresh, identically seeded one.
	Partitions map[query.StreamID][]int
	Keys       func() (func() uint64, error)

	Schedule []FaultOp
	Severs   int // sever faults in Schedule (ledger slack derives from this)

	// Victim is the Recover class's interior node, the target of its
	// scheduled kill and restart.
	Victim int
}

// severWriteSlack bounds how many tuples one sever fault can double-count:
// a failed write is counted dropped although the peer may have received
// it, and one sever breaks at most one outbox write (engine.MaxWriteTuples)
// plus one concurrently broken batched source write (512 of headroom).
const severWriteSlack = engine.MaxWriteTuples + 512

// Slack is the allowed negative ledger residual for this scenario.
func (s *Scenario) Slack() int64 { return int64(s.Severs) * severWriteSlack }

// durable reports whether the scenario's runs log to a WAL and dedup at
// the sink.
func (s *Scenario) durable() bool { return s.Class == Recover }

// Generate builds the deterministic chaos scenario for (seed, nodes,
// class). Graphs are 2–4 selectivity-1 chains of 2–4 Delay operators placed
// round-robin with a per-chain offset, so consecutive operators land on
// different nodes and every chain exercises the wire. CorrSpike is
// GenerateCorrSpike's shape.
func Generate(seed int64, nodes int, class Class) (*Scenario, error) {
	if class == CorrSpike {
		return GenerateCorrSpike(seed, nodes)
	}
	return generate(seed, nodes, class, true)
}

// generate is Generate with the shed exercise controllable: the lockstep
// checker needs scenarios that stay feasible (the simulator's queues are
// unbounded and lossless, so a shedding engine could never track it).
func generate(seed int64, nodes int, class Class, allowShed bool) (*Scenario, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("check: need at least 2 nodes, got %d", nodes)
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Scenario{Seed: seed, Class: class, Nodes: nodes}

	chains := 2 + rng.Intn(3)
	shedExercise := allowShed && class == Strict && rng.Float64() < 0.35

	b := query.NewBuilder()
	var nodeOf []int
	for c := 0; c < chains; c++ {
		length := 2 + rng.Intn(3)
		in := b.Input(fmt.Sprintf("in%d", c))
		cur := in
		for o := 0; o < length; o++ {
			cost := 0.00003 + rng.Float64()*0.00005
			if shedExercise && c == 0 && o == 0 {
				// A deliberately expensive head operator so a rate spike
				// overruns the (shrunk) ingress queue and sheds.
				cost = 0.0015 + rng.Float64()*0.001
			}
			cur = b.Delay(fmt.Sprintf("c%d_op%d", c, o), cost, 1, cur)
			if rng.Float64() < 0.4 {
				b.SetXferCost(cur, 0.00001+rng.Float64()*0.00002)
			}
			nodeOf = append(nodeOf, (c+o)%nodes)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("check: scenario graph: %w", err)
	}
	s.Graph = g
	plan, err := placement.NewPlan(nodeOf, nodes)
	if err != nil {
		return nil, fmt.Errorf("check: scenario plan: %w", err)
	}
	s.Plan = plan
	s.Caps = make([]float64, nodes)
	for i := range s.Caps {
		s.Caps[i] = 1
	}

	// Wall-clock traces: 50 ms bins with ±50% jitter around a per-chain
	// base rate; the shed exercise adds an 8× mid-episode spike on chain 0.
	s.Wall = time.Duration(900+rng.Intn(400)) * time.Millisecond
	wallSec := s.Wall.Seconds()
	const dt = 0.05
	bins := int(wallSec/dt) + 1
	for c := 0; c < chains; c++ {
		base := 150 + rng.Float64()*250
		rates := make([]float64, bins)
		for i := range rates {
			rates[i] = base * (0.5 + rng.Float64())
		}
		if shedExercise && c == 0 {
			lo, hi := bins/3, 2*bins/3
			for i := lo; i < hi; i++ {
				rates[i] = 1500 + rng.Float64()*1000
			}
		}
		s.Traces = append(s.Traces, trace.New(fmt.Sprintf("chk%d", c), dt, rates))
	}

	// Data-plane knobs: shrink the ingress queue for shed exercises, keep
	// reconnect backoff small so healed links drain quickly at quiescence.
	cfg := engine.NodeConfig{
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  150 * time.Millisecond,
	}
	if shedExercise {
		cfg.IngressCap = 256
		if rng.Float64() < 0.5 {
			cfg.ShedPolicy = engine.DropOldest
		}
	}
	s.Config = cfg

	s.genSchedule(rng)
	return s, nil
}

// GenerateCorrSpike builds the deterministic correlated-spike scenario:
// two selectivity-1 chains whose input rates ramp up together over the same
// window — the correlated load variation ROD's rate-space reasoning targets
// (independent per-stream headroom overstates safety when streams move in
// lockstep). The spike is sized to stay feasible, so the strict conservation
// ledger holds exactly across it, and a mid-spike migration stresses the
// hand-over under the combined ramp.
func GenerateCorrSpike(seed int64, nodes int) (*Scenario, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("check: need at least 2 nodes, got %d", nodes)
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Scenario{Seed: seed, Class: CorrSpike, Nodes: nodes}

	b := query.NewBuilder()
	var nodeOf []int
	const chains = 2
	for c := 0; c < chains; c++ {
		length := 2 + rng.Intn(2)
		in := b.Input(fmt.Sprintf("corr%d", c))
		cur := in
		for o := 0; o < length; o++ {
			cost := 0.00004 + rng.Float64()*0.00004
			cur = b.Delay(fmt.Sprintf("s%d_op%d", c, o), cost, 1, cur)
			if rng.Float64() < 0.4 {
				b.SetXferCost(cur, 0.00001+rng.Float64()*0.00002)
			}
			nodeOf = append(nodeOf, (c+o)%nodes)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("check: corr-spike graph: %w", err)
	}
	s.Graph = g
	plan, err := placement.NewPlan(nodeOf, nodes)
	if err != nil {
		return nil, fmt.Errorf("check: corr-spike plan: %w", err)
	}
	s.Plan = plan
	s.Caps = make([]float64, nodes)
	for i := range s.Caps {
		s.Caps[i] = 1
	}

	// Both streams ramp 3× over the same mid-episode window: identical
	// timing, per-stream jitter only in the base rate.
	s.Wall = time.Duration(1100+rng.Intn(400)) * time.Millisecond
	const dt = 0.05
	bins := int(s.Wall.Seconds()/dt) + 1
	lo, hi := int(float64(bins)*0.35), int(float64(bins)*0.65)
	for c := 0; c < chains; c++ {
		base := 150 + rng.Float64()*150
		rates := make([]float64, bins)
		for i := range rates {
			rates[i] = base
			if i >= lo && i < hi {
				rates[i] = base * 3
			}
		}
		s.Traces = append(s.Traces, trace.New(fmt.Sprintf("corr%d", c), dt, rates))
	}

	s.Config = engine.NodeConfig{
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  150 * time.Millisecond,
	}

	// One migration inside the spike window, so the hand-over happens
	// under the correlated peak.
	migNodeOf := append([]int(nil), s.Plan.NodeOf...)
	if mv, ok := pickMigration(rng, s.Graph, migNodeOf, s.Nodes); ok {
		mv.At = time.Duration((0.4 + rng.Float64()*0.2) * float64(s.Wall))
		mv.Stall = time.Duration(rng.Intn(10)) * time.Millisecond
		s.Schedule = append(s.Schedule, mv)
	}
	return s, nil
}

// GenerateRecover builds the deterministic kill-and-recover scenario. Its
// graph alternates between two shapes by seed. Odd seeds build 2–3
// selectivity-1 chains of exactly 3 Delay operators, with every chain's
// MIDDLE operator placed on a dedicated victim node (the last index) and the
// heads/tails spread over the remaining nodes. Even seeds build the merge
// shape: two chains of 2 Delay operators whose second operators sit on the
// victim, merged by a selectivity-1 union on a non-victim node, so the
// sink hears one stream produced from two (the ledger identity still holds:
// one delivery per source tuple). Either way, sources feed only head nodes
// and the collector hears only tail nodes, so the victim sits strictly
// interior to the durable ack protocol: killing it exercises upstream
// retention (heads' unacked batches re-send on reconnect) and WAL replay
// (admitted-but-unprocessed tuples re-enter the lanes), while the ledger and
// the sink dedup filter must both close exactly — zero slack, zero
// duplicates. No link faults and no migrations: the crash is the only chaos.
func GenerateRecover(seed int64, nodes int) (*Scenario, error) {
	if nodes < 3 {
		return nil, fmt.Errorf("check: recover scenarios need at least 3 nodes, got %d", nodes)
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Scenario{Seed: seed, Class: Recover, Nodes: nodes, Victim: nodes - 1}

	merge := seed%2 == 0
	chains, depth := 2+rng.Intn(2), 3
	if merge {
		chains, depth = 2, 2
	}
	b := query.NewBuilder()
	var nodeOf []int
	var tails []query.StreamID
	for c := 0; c < chains; c++ {
		in := b.Input(fmt.Sprintf("rec%d", c))
		cur := in
		for o := 0; o < depth; o++ {
			cost := 0.00003 + rng.Float64()*0.00005
			cur = b.Delay(fmt.Sprintf("r%d_op%d", c, o), cost, 1, cur)
			if o == 1 {
				nodeOf = append(nodeOf, s.Victim)
			} else {
				nodeOf = append(nodeOf, (c+o)%(nodes-1))
			}
		}
		tails = append(tails, cur)
	}
	if merge {
		b.Union("rec_merge", 0.00003+rng.Float64()*0.00005, tails...)
		nodeOf = append(nodeOf, rng.Intn(nodes-1))
	}
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("check: recover graph: %w", err)
	}
	s.Graph = g
	plan, err := placement.NewPlan(nodeOf, nodes)
	if err != nil {
		return nil, fmt.Errorf("check: recover plan: %w", err)
	}
	s.Plan = plan
	s.Caps = make([]float64, nodes)
	for i := range s.Caps {
		s.Caps[i] = 1
	}

	// Moderate steady rates with jitter: the point is surviving the crash,
	// not saturating the pipeline (shed must stay 0 for the exact ledger).
	s.Wall = time.Duration(1200+rng.Intn(400)) * time.Millisecond
	const dt = 0.05
	bins := int(s.Wall.Seconds()/dt) + 1
	for c := 0; c < chains; c++ {
		base := 100 + rng.Float64()*150
		rates := make([]float64, bins)
		for i := range rates {
			rates[i] = base * (0.7 + 0.6*rng.Float64())
		}
		s.Traces = append(s.Traces, trace.New(fmt.Sprintf("rec%d", c), dt, rates))
	}

	s.Config = engine.NodeConfig{
		BackoffBase:     10 * time.Millisecond,
		BackoffMax:      150 * time.Millisecond,
		CheckpointEvery: time.Duration(50+rng.Intn(100)) * time.Millisecond,
		// WALDir is filled per run with a fresh temp root.
	}

	// The crash: kill the victim mid-stream, restart it from its WAL
	// directory after a downtime window.
	killAt := time.Duration((0.35 + rng.Float64()*0.15) * float64(s.Wall))
	downtime := time.Duration(150+rng.Intn(100)) * time.Millisecond
	s.Schedule = []FaultOp{
		{At: killAt, Kind: FaultKill, Node: s.Victim},
		{At: killAt + downtime, Kind: FaultRestart, Node: s.Victim},
	}
	return s, nil
}

// genSchedule builds the chaos schedule. Link faults always heal before the
// sources stop so the cluster can drain; migrations may land on any other
// node (see pickMigration); kill scenarios end with one node kill.
func (s *Scenario) genSchedule(rng *rand.Rand) {
	wall := s.Wall
	frac := func(lo, hi float64) time.Duration {
		return time.Duration((lo + rng.Float64()*(hi-lo)) * float64(wall))
	}

	nLink := 1 + rng.Intn(3)
	for i := 0; i < nLink; i++ {
		src := rng.Intn(s.Nodes)
		dst := rng.Intn(s.Nodes - 1)
		if dst >= src {
			dst++
		}
		kind := []FaultKind{FaultSever, FaultDrop, FaultDelay}[rng.Intn(3)]
		at := frac(0.2, 0.5)
		op := FaultOp{At: at, Kind: kind, Node: src, Peer: dst}
		if kind == FaultDelay {
			op.Delay = time.Duration(2+rng.Intn(15)) * time.Millisecond
		}
		if kind == FaultSever {
			s.Severs++
		}
		s.Schedule = append(s.Schedule, op)
		heal := at + frac(0.1, 0.25)
		if max := time.Duration(0.75 * float64(wall)); heal > max {
			heal = max
		}
		s.Schedule = append(s.Schedule, FaultOp{At: heal, Kind: FaultHeal, Node: src, Peer: dst})
	}

	switch s.Class {
	case Strict:
		// The ledger is exact here, so a hand-over that delivered a tuple
		// twice or not at all fails the episode, wherever the operator
		// lands: on a node that carries its streams for other consumers,
		// or back on one it left.
		nodeOf := append([]int(nil), s.Plan.NodeOf...)
		nMig := 1 + rng.Intn(2)
		for i := 0; i < nMig; i++ {
			mv, ok := pickMigration(rng, s.Graph, nodeOf, s.Nodes)
			if !ok {
				break
			}
			mv.At = frac(0.3, 0.6)
			mv.Stall = time.Duration(rng.Intn(20)) * time.Millisecond
			s.Schedule = append(s.Schedule, mv)
		}
	case KillNode:
		s.Schedule = append(s.Schedule, FaultOp{At: frac(0.45, 0.6), Kind: FaultKill, Node: rng.Intn(s.Nodes)})
	}

	sortSchedule(s.Schedule)
}

// pickMigration draws a random (operator, destination) pair whose
// destination is not the operator's current node, then updates nodeOf as
// if the move ran.
func pickMigration(rng *rand.Rand, g *query.Graph, nodeOf []int, nodes int) (FaultOp, bool) {
	for attempt := 0; attempt < 32; attempt++ {
		op := g.Op(query.OpID(rng.Intn(g.NumOps())))
		dst := rng.Intn(nodes)
		if dst == nodeOf[op.ID] {
			continue
		}
		from := nodeOf[op.ID]
		nodeOf[op.ID] = dst
		return FaultOp{Kind: FaultMigrate, Node: from, Op: int(op.ID), To: dst}, true
	}
	return FaultOp{}, false
}

// sortSchedule orders by time (stable for equal times, insertion order).
func sortSchedule(ops []FaultOp) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
}
