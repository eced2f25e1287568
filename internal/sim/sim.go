// Package sim is the custom-built distributed stream-processing simulator
// of Section 7: a discrete-event model in which each node is a single CPU
// serving a FIFO queue of per-tuple work, sources replay rate traces, and
// end-to-end latency, node utilization and backlog are measured. A system
// driven at a feasible rate point keeps bounded queues and low latency; an
// overloaded one grows its backlog without bound — the behavioural ground
// truth the feasible-set machinery predicts analytically.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"rodsp/internal/mat"
	"rodsp/internal/obs"
	"rodsp/internal/query"
	"rodsp/internal/trace"
)

// Arrivals selects how source tuples are spaced inside each trace bin.
type Arrivals int

const (
	// DeterministicArrivals spaces tuples evenly at the bin's rate — exact
	// and convenient for tests.
	DeterministicArrivals Arrivals = iota
	// PoissonArrivals draws exponential gaps at the bin's rate.
	PoissonArrivals
)

// Config describes one simulation run.
type Config struct {
	Graph      *query.Graph
	NodeOf     []int   // operator → node (a placement plan)
	Capacities mat.Vec // CPU seconds of work each node completes per second

	// Sources maps each system input stream to its driving trace (rates in
	// tuples/second). Every input stream must be covered.
	Sources map[query.StreamID]*trace.Trace

	Duration float64 // simulated seconds
	WarmUp   float64 // latencies recorded only after this time
	Arrivals Arrivals
	Seed     int64

	// NetworkDelay is added to tuples hopping between nodes (seconds).
	NetworkDelay float64
	// ChargeTransfer also charges each stream's XferCost as CPU work on
	// both the sending and the receiving node for cross-node hops
	// (Section 6.3's communication CPU cost).
	ChargeTransfer bool

	// MaxEvents aborts runaway simulations (default 10M).
	MaxEvents int
	// LatencyReservoir caps the retained latency samples (default 100k,
	// reservoir-sampled beyond that).
	LatencyReservoir int

	// Rebalance enables dynamic operator redistribution (nil = static
	// placement, the paper's setting for ROD).
	Rebalance *RebalanceConfig

	// Moves schedules explicit operator migrations at fixed virtual times,
	// independent of any rebalancing policy — the hook the conformance
	// harness (internal/check) uses to drive the simulator through the
	// exact fault schedule applied to the live engine. Each move relocates
	// one operator and, when Stall > 0, freezes both nodes for the
	// state-transfer time, mirroring engine Cluster.MoveOperator.
	Moves []ScheduledMove

	// Partitions overrides the slot table of keyed (sharded) streams; any
	// keyed stream not listed defaults to query.UniformSlots(k). Keys must
	// be keyed streams, tables must have query.ShardSlots entries in
	// [0, k). Keyed streams route each tuple to exactly one replica — a
	// deterministic per-stream counter stands in for the engine's tuple
	// key, spread by the same query.SlotOfKey hash.
	Partitions map[query.StreamID][]int

	// Repartitions schedules slot-table swaps at fixed virtual times,
	// mirroring engine Cluster.Repartition (the shard scale actuator's
	// effect) for lockstep cross-validation.
	Repartitions []ScheduledRepartition

	// Obs enables in-run observability: virtual-time sampling of the same
	// metric schema the engine monitor emits, plus overload and migration
	// events (nil = disabled).
	Obs *ObsConfig
}

// Result summarizes a run.
type Result struct {
	// Latency statistics over sink tuples (seconds), post-warm-up.
	LatencyMean, LatencyP50, LatencyP95, LatencyP99, LatencyMax float64
	LatencySamples                                              int64

	// Utilization is busy-time/duration per node (capped at 1).
	Utilization mat.Vec
	// Backlog is the number of queued work items per node at the end.
	Backlog []int
	// PeakQueue is the maximum queue length observed per node.
	PeakQueue []int

	TuplesIn, TuplesOut int64
	Events              int64

	// Rebalance reports what the dynamic mechanism did (zero when static).
	Rebalance RebalanceStats
	// FinalNodeOf is the operator→node map at the end of the run (differs
	// from the initial plan only under rebalancing).
	FinalNodeOf []int
	// OpUtilization is each operator's CPU-seconds of work per simulated
	// second (its measured load — the quantity the load model predicts as
	// L^o_j·R).
	OpUtilization mat.Vec

	// Series and EventLog carry the sampled time series and events when
	// Config.Obs was set (nil otherwise).
	Series   *obs.SeriesSet
	EventLog *obs.EventLog
}

// Overloaded reports whether any node ended the run effectively saturated:
// utilization at or above util with at least backlog items still queued.
func (r *Result) Overloaded(util float64, backlog int) bool {
	for i := range r.Utilization {
		if r.Utilization[i] >= util && r.Backlog[i] >= backlog {
			return true
		}
	}
	return false
}

// MaxUtilization returns the highest per-node utilization.
func (r *Result) MaxUtilization() float64 {
	if len(r.Utilization) == 0 {
		return 0
	}
	return r.Utilization.Max()
}

type eventKind int

const (
	evArrival eventKind = iota
	evCompletion
	evSource
	evRebalance
	evSample
	evMove
	evRepart
)

// overheadOp marks a work item that burns CPU (network send/receive cost)
// without producing output.
const overheadOp query.OpID = -1

// ScheduledMove is one scripted operator migration (Config.Moves): at
// virtual time Time, operator Op relocates to node To, charging Stall
// seconds of state-transfer freeze to both the old and the new home.
type ScheduledMove struct {
	Time  float64
	Op    int
	To    int
	Stall float64
}

// ScheduledRepartition is one scripted slot-table swap (Config.Repartitions):
// at virtual time Time, keyed stream Stream adopts the Slots assignment.
type ScheduledRepartition struct {
	Time   float64
	Stream query.StreamID
	Slots  []int
}

// keyedStream is the simulator's partition table for one sharded stream.
type keyedStream struct {
	slots    []int
	replicas []query.OpID
	next     uint64 // deterministic synthetic key (the engine's Seq fallback)
}

type workItem struct {
	op    query.OpID
	ts    float64 // origin timestamp of the tuple lineage
	enq   float64 // when the item joined its node's queue (stage decomposition)
	side  int8    // which join input the tuple arrived on
	extra float64 // additional CPU seconds (transfer overhead)
}

type event struct {
	time float64
	kind eventKind
	node int
	item workItem
	src  int // source index for evSource
	seq  int64
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq // deterministic FIFO tie-break
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// opState holds per-operator runtime state.
type opState struct {
	selAcc float64 // fractional-selectivity accumulator
	// join window state: timestamps seen per input side, pruned to the
	// window on each service.
	window [2][]float64
	// pendingPairs carries the pair count from service start to completion
	// (safe: an operator lives on one node whose server is sequential).
	pendingPairs int
}

type nodeState struct {
	queue    []workItem
	head     int
	busy     bool
	busyTime float64
	peak     int
}

func (ns *nodeState) qlen() int { return len(ns.queue) - ns.head }

func (ns *nodeState) push(w workItem) {
	ns.queue = append(ns.queue, w)
	if ns.qlen() > ns.peak {
		ns.peak = ns.qlen()
	}
}

func (ns *nodeState) pop() workItem {
	w := ns.queue[ns.head]
	ns.head++
	if ns.head > 1024 && ns.head*2 > len(ns.queue) {
		ns.queue = append(ns.queue[:0], ns.queue[ns.head:]...)
		ns.head = 0
	}
	return w
}

// Run executes the simulation.
func Run(cfg Config) (*Result, error) {
	g := cfg.Graph
	if g == nil {
		return nil, fmt.Errorf("sim: nil graph")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.NodeOf) != g.NumOps() {
		return nil, fmt.Errorf("sim: plan covers %d of %d operators", len(cfg.NodeOf), g.NumOps())
	}
	n := len(cfg.Capacities)
	if n == 0 {
		return nil, fmt.Errorf("sim: no nodes")
	}
	for i, c := range cfg.Capacities {
		if c <= 0 {
			return nil, fmt.Errorf("sim: node %d capacity %g must be positive", i, c)
		}
	}
	for j, node := range cfg.NodeOf {
		if node < 0 || node >= n {
			return nil, fmt.Errorf("sim: operator %d on node %d outside [0,%d)", j, node, n)
		}
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("sim: duration %g must be positive", cfg.Duration)
	}
	inputs := g.Inputs()
	for _, in := range inputs {
		if cfg.Sources[in] == nil {
			return nil, fmt.Errorf("sim: input stream %q has no source trace", g.Stream(in).Name)
		}
	}
	maxEvents := cfg.MaxEvents
	if maxEvents == 0 {
		maxEvents = 10_000_000
	}
	reservoirCap := cfg.LatencyReservoir
	if reservoirCap == 0 {
		reservoirCap = 100_000
	}

	if cfg.Rebalance != nil {
		if err := cfg.Rebalance.validate(); err != nil {
			return nil, err
		}
	}
	for i, mv := range cfg.Moves {
		if mv.Op < 0 || mv.Op >= g.NumOps() {
			return nil, fmt.Errorf("sim: scheduled move %d targets unknown operator %d", i, mv.Op)
		}
		if mv.To < 0 || mv.To >= n {
			return nil, fmt.Errorf("sim: scheduled move %d targets node %d outside [0,%d)", i, mv.To, n)
		}
		if mv.Time < 0 || mv.Stall < 0 {
			return nil, fmt.Errorf("sim: scheduled move %d has negative time or stall", i)
		}
	}

	// Keyed (sharded) streams route 1-of-k through a partition table
	// instead of broadcasting to every replica.
	groups, err := query.ShardGroups(g)
	if err != nil {
		return nil, err
	}
	keyed := map[query.StreamID]*keyedStream{}
	validSlots := func(slots []int, k int) error {
		if len(slots) != query.ShardSlots {
			return fmt.Errorf("%d slots, want %d", len(slots), query.ShardSlots)
		}
		for i, s := range slots {
			if s < 0 || s >= k {
				return fmt.Errorf("slot %d assigned to shard %d outside [0,%d)", i, s, k)
			}
		}
		return nil
	}
	for _, grp := range groups {
		slots := cfg.Partitions[grp.Stream]
		if slots == nil {
			slots = query.UniformSlots(grp.K)
		} else if err := validSlots(slots, grp.K); err != nil {
			return nil, fmt.Errorf("sim: partition table for stream %d: %w", grp.Stream, err)
		}
		keyed[grp.Stream] = &keyedStream{
			slots:    append([]int(nil), slots...),
			replicas: grp.Replicas,
		}
	}
	for sid := range cfg.Partitions {
		if keyed[sid] == nil {
			return nil, fmt.Errorf("sim: partition table for stream %d, which is not keyed", sid)
		}
	}
	for i, rp := range cfg.Repartitions {
		ks := keyed[rp.Stream]
		if ks == nil {
			return nil, fmt.Errorf("sim: scheduled repartition %d targets stream %d, which is not keyed", i, rp.Stream)
		}
		if err := validSlots(rp.Slots, len(ks.replicas)); err != nil {
			return nil, fmt.Errorf("sim: scheduled repartition %d: %w", i, err)
		}
		if rp.Time < 0 {
			return nil, fmt.Errorf("sim: scheduled repartition %d has negative time", i)
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	nodes := make([]nodeState, n)
	ops := make([]opState, g.NumOps())
	// Mutable operator→node map (changes only under rebalancing).
	nodeOf := make([]int, len(cfg.NodeOf))
	copy(nodeOf, cfg.NodeOf)
	// Per-operator busy time within the current rebalance window, plus the
	// cumulative total for Result.OpUtilization.
	opBusy := make([]float64, g.NumOps())
	opBusyTotal := make([]float64, g.NumOps())

	// joinSide[op][stream] tells which window side a stream feeds.
	joinSide := map[query.OpID]map[query.StreamID]int8{}
	for _, op := range g.Ops() {
		if op.Kind == query.Join {
			joinSide[op.ID] = map[query.StreamID]int8{op.Inputs[0]: 0, op.Inputs[1]: 1}
		}
	}

	var (
		h         eventHeap
		seq       int64
		result    = &Result{Utilization: make(mat.Vec, n), Backlog: make([]int, n), PeakQueue: make([]int, n)}
		latencies []float64
		obsv      *observer
	)
	if cfg.Obs != nil {
		obsv = newObserver(&cfg, g, inputs, n)
		result.Series = obsv.core.Series()
		result.EventLog = obsv.ev
		perNode := make([]int, n)
		for _, node := range nodeOf {
			perNode[node]++
		}
		for i, ops := range perNode {
			obsv.ev.EmitAt(0, obs.LevelInfo, obs.EventDeploy, "node", i, "ops", ops)
		}
	}
	sched := func(e event) {
		e.seq = seq
		seq++
		heap.Push(&h, e)
	}

	// nextArrival returns the time of the next source tuple strictly after t,
	// or -1 past the horizon.
	nextArrival := func(srcIdx int, t float64) float64 {
		tr := cfg.Sources[inputs[srcIdx]]
		for t < cfg.Duration {
			rate := tr.RateAt(t)
			if rate <= 0 {
				// Skip to the start of the next bin.
				bin := int(t/tr.Dt) + 1
				t = float64(bin) * tr.Dt
				continue
			}
			var gap float64
			if cfg.Arrivals == PoissonArrivals {
				gap = rng.ExpFloat64() / rate
			} else {
				gap = 1 / rate
			}
			next := t + gap
			// If the gap crosses the bin boundary into a different rate,
			// restart the draw from the boundary instead of committing to
			// the stale rate.
			binEnd := (float64(int(t/tr.Dt)) + 1) * tr.Dt
			if next > binEnd && tr.RateAt(binEnd) != rate {
				t = binEnd
				continue
			}
			return next
		}
		return -1
	}

	// routeTo enqueues a tuple at a consumer operator, adding network delay
	// and (optionally) transfer CPU overhead when it crosses nodes.
	routeTo := func(consumer query.OpID, via query.StreamID, fromNode int, ts, now float64) {
		dst := nodeOf[consumer]
		at := now
		var extra float64
		if fromNode >= 0 && dst != fromNode {
			at += cfg.NetworkDelay
			if obsv != nil && cfg.NetworkDelay > 0 {
				// Cross-node hop: the same transit stage the engine's traced
				// tuples record between outbox ship and remote ingress.
				obsv.onStage(obs.StageTransit, cfg.NetworkDelay)
			}
			if cfg.ChargeTransfer {
				xfer := g.Stream(via).XferCost
				if xfer > 0 {
					// Send cost occupies the sender's CPU as an overhead item.
					sched(event{time: now, kind: evArrival, node: fromNode,
						item: workItem{op: overheadOp, ts: ts, extra: xfer}})
					extra = xfer // receive cost rides on the tuple itself
				}
			}
		}
		var side int8
		if m, ok := joinSide[consumer]; ok {
			side = m[via]
		}
		sched(event{time: at, kind: evArrival, node: dst,
			item: workItem{op: consumer, ts: ts, side: side, extra: extra}})
	}

	// Seed one source event per input stream.
	for s := range inputs {
		if t0 := nextArrival(s, 0); t0 >= 0 {
			sched(event{time: t0, kind: evSource, src: s})
		}
	}
	if cfg.Rebalance != nil {
		sched(event{time: cfg.Rebalance.Period, kind: evRebalance})
	}
	for i := range cfg.Moves {
		sched(event{time: cfg.Moves[i].Time, kind: evMove, src: i})
	}
	for i := range cfg.Repartitions {
		sched(event{time: cfg.Repartitions[i].Time, kind: evRepart, src: i})
	}
	if obsv != nil {
		sched(event{time: obsv.interval, kind: evSample})
	}

	// rebalance collects one window's statistics, asks the policy for moves
	// and applies them, freezing source and destination for the migration
	// time each (the state-transfer stall the paper measures in the
	// hundreds of milliseconds).
	rebalance := func(now float64) {
		rc := cfg.Rebalance
		result.Rebalance.Rounds++
		opLoads := make([]float64, len(opBusy))
		for op := range opBusy {
			opLoads[op] = opBusy[op] / rc.Period
			opBusy[op] = 0
		}
		if cp, ok := rc.Policy.(*CorrelationPolicy); ok {
			cp.observe(opLoads)
		}
		moves := rc.Policy.Plan(opLoads, nodeOf, cfg.Capacities)
		sortMovesDeterministic(moves)
		if rc.MaxMovesPerRound > 0 && len(moves) > rc.MaxMovesPerRound {
			moves = moves[:rc.MaxMovesPerRound]
		}
		for _, mv := range moves {
			if mv.Op < 0 || mv.Op >= len(nodeOf) || mv.To < 0 || mv.To >= n {
				continue // defensive: ignore out-of-range policy output
			}
			from := nodeOf[mv.Op]
			if from == mv.To {
				continue
			}
			nodeOf[mv.Op] = mv.To
			result.Rebalance.Moves++
			if obsv != nil {
				obsv.ev.EmitAt(now, obs.LevelInfo, obs.EventMigrateInstall, "op", mv.Op, "from", from, "to", mv.To)
				obsv.ev.EmitAt(now, obs.LevelInfo, obs.EventMigrateRemove, "op", mv.Op, "from", from, "to", mv.To)
			}
			if rc.MigrationTime > 0 {
				// Freeze both ends: an overhead item occupying exactly
				// MigrationTime of wall time on each node.
				for _, node := range []int{from, mv.To} {
					sched(event{time: now, kind: evArrival, node: node,
						item: workItem{op: overheadOp, ts: now, extra: rc.MigrationTime * cfg.Capacities[node]}})
				}
				result.Rebalance.StallSeconds += 2 * rc.MigrationTime
				if obsv != nil {
					obsv.ev.EmitAt(now, obs.LevelInfo, obs.EventMigrateStall, "op", mv.Op, "sec", rc.MigrationTime)
				}
			}
		}
	}

	// serviceTime computes the CPU seconds a work item needs, updating join
	// windows as the side effect of "processing" the tuple.
	serviceTime := func(w workItem, now float64) float64 {
		if w.op == overheadOp {
			return w.extra
		}
		op := g.Op(w.op)
		if op.Kind != query.Join {
			return op.Cost + w.extra
		}
		st := &ops[w.op]
		st.window[w.side] = append(st.window[w.side], now)
		// Each arrival probes the opposite window of width Window/2; with
		// both sides probing, the expected pair throughput is exactly the
		// paper's load-model value w·r_u·r_v pairs per second.
		for s := range st.window {
			win := st.window[s]
			lo := 0
			for lo < len(win) && win[lo] < now-op.Window/2 {
				lo++
			}
			st.window[s] = win[lo:]
		}
		st.pendingPairs = len(st.window[1-w.side])
		return op.Cost*float64(st.pendingPairs) + w.extra
	}

	// emitted returns how many output tuples the completed item produces.
	emitted := func(w workItem) int {
		if w.op == overheadOp {
			return 0
		}
		op := g.Op(w.op)
		st := &ops[w.op]
		produced := op.Selectivity
		if op.Kind == query.Join {
			produced = op.Selectivity * float64(st.pendingPairs)
		}
		st.selAcc += produced
		k := int(st.selAcc)
		st.selAcc -= float64(k)
		return k
	}

	startService := func(node int, now float64) {
		ns := &nodes[node]
		w := ns.pop()
		ns.busy = true
		svc := serviceTime(w, now) / cfg.Capacities[node]
		ns.busyTime += svc
		if w.op >= 0 {
			work := svc * cfg.Capacities[node]
			opBusy[w.op] += work
			opBusyTotal[w.op] += work
			if obsv != nil {
				// Stage decomposition: queue wait since enqueue, then the
				// service time itself (overhead items are not tuples and are
				// excluded, matching the engine's per-tuple tracing).
				obsv.onStage(obs.StageQueue, now-w.enq)
				obsv.onStage(obs.StageService, svc)
			}
		}
		sched(event{time: now + svc, kind: evCompletion, node: node, item: w})
	}

	recordLatency := func(lat, now float64) {
		if obsv != nil {
			obsv.onSink(lat) // histogram mirrors every sink tuple, like the engine collector
		}
		if now < cfg.WarmUp {
			return
		}
		result.LatencySamples++
		if len(latencies) < reservoirCap {
			latencies = append(latencies, lat)
		} else if idx := rng.Int63n(result.LatencySamples); idx < int64(reservoirCap) {
			latencies[idx] = lat
		}
	}

	for h.Len() > 0 {
		e := heap.Pop(&h).(event)
		if e.time > cfg.Duration {
			break
		}
		result.Events++
		if result.Events > int64(maxEvents) {
			return nil, fmt.Errorf("sim: exceeded %d events at t=%.3f (system badly overloaded? shorten Duration or raise MaxEvents)", maxEvents, e.time)
		}
		switch e.kind {
		case evSource:
			result.TuplesIn++
			if obsv != nil {
				obsv.onSource(e.src)
			}
			for _, consumer := range g.Consumers(inputs[e.src]) {
				routeTo(consumer, inputs[e.src], -1, e.time, e.time)
			}
			if t := nextArrival(e.src, e.time); t >= 0 {
				sched(event{time: t, kind: evSource, src: e.src})
			}
		case evRebalance:
			rebalance(e.time)
			if next := e.time + cfg.Rebalance.Period; next <= cfg.Duration {
				sched(event{time: next, kind: evRebalance})
			}
		case evMove:
			mv := cfg.Moves[e.src]
			from := nodeOf[mv.Op]
			if from == mv.To {
				break
			}
			nodeOf[mv.Op] = mv.To
			result.Rebalance.Moves++
			if obsv != nil {
				obsv.ev.EmitAt(e.time, obs.LevelInfo, obs.EventMigrateInstall, "op", mv.Op, "from", from, "to", mv.To)
				obsv.ev.EmitAt(e.time, obs.LevelInfo, obs.EventMigrateRemove, "op", mv.Op, "from", from, "to", mv.To)
				obsv.onMove(e.time, mv.Op, from, mv.To)
			}
			if mv.Stall > 0 {
				for _, node := range []int{from, mv.To} {
					sched(event{time: e.time, kind: evArrival, node: node,
						item: workItem{op: overheadOp, ts: e.time, extra: mv.Stall * cfg.Capacities[node]}})
				}
				result.Rebalance.StallSeconds += 2 * mv.Stall
				if obsv != nil {
					obsv.ev.EmitAt(e.time, obs.LevelInfo, obs.EventMigrateStall, "op", mv.Op, "sec", mv.Stall)
				}
			}
		case evRepart:
			rp := cfg.Repartitions[e.src]
			ks := keyed[rp.Stream]
			ks.slots = append(ks.slots[:0], rp.Slots...)
			if obsv != nil {
				obsv.onRepart(e.time, int(rp.Stream), len(ks.replicas))
			}
		case evSample:
			obsv.sample(e.time, nodes, nodeOf)
			if next := e.time + obsv.interval; next <= cfg.Duration {
				sched(event{time: next, kind: evSample})
			}
		case evArrival:
			ns := &nodes[e.node]
			e.item.enq = e.time
			ns.push(e.item)
			if obsv != nil {
				obsv.core.Node(e.node).Injected.Inc()
			}
			if !ns.busy {
				startService(e.node, e.time)
			}
		case evCompletion:
			k := emitted(e.item)
			if k > 0 && obsv != nil {
				obsv.core.Node(e.node).Emitted.Add(int64(k))
			}
			if k > 0 {
				op := g.Op(e.item.op)
				consumers := g.Consumers(op.Out)
				ks := keyed[op.Out]
				for c := 0; c < k; c++ {
					if len(consumers) == 0 {
						result.TuplesOut++
						recordLatency(e.time-e.item.ts, e.time)
						continue
					}
					if ks != nil {
						// Keyed stream: exactly one replica per tuple, chosen
						// by the partition table.
						ks.next++
						r := ks.replicas[ks.slots[query.SlotOfKey(ks.next)]]
						routeTo(r, op.Out, e.node, e.item.ts, e.time)
						continue
					}
					for _, consumer := range consumers {
						routeTo(consumer, op.Out, e.node, e.item.ts, e.time)
					}
				}
			}
			ns := &nodes[e.node]
			ns.busy = false
			if ns.qlen() > 0 {
				startService(e.node, e.time)
			}
		}
	}

	for i := range nodes {
		result.Utilization[i] = nodes[i].busyTime / cfg.Duration
		if result.Utilization[i] > 1 {
			result.Utilization[i] = 1
		}
		result.Backlog[i] = nodes[i].qlen()
		result.PeakQueue[i] = nodes[i].peak
	}
	// Shared latency digest (obs.Summarize never panics on an empty set,
	// unlike the stats percentile helpers).
	if sum, ok := obs.Summarize(latencies); ok {
		result.LatencyP50, result.LatencyP95, result.LatencyP99, result.LatencyMax = sum.P50, sum.P95, sum.P99, sum.Max
		result.LatencyMean = sum.Mean
	}
	result.FinalNodeOf = nodeOf
	result.OpUtilization = make(mat.Vec, len(opBusyTotal))
	for op, busy := range opBusyTotal {
		result.OpUtilization[op] = busy / cfg.Duration
	}
	return result, nil
}
