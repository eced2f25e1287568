// Package rodsp is a Go implementation of Resilient Operator Distribution
// (ROD) — the static operator-placement algorithm of Xing, Hwang,
// Çetintemel and Zdonik, "Providing Resiliency to Load Variations in
// Distributed Stream Processing" (VLDB 2006) — together with everything
// needed to use and evaluate it: a query-graph model with nonlinear-load
// linearization, feasible-set geometry and Quasi-Monte-Carlo measurement,
// the paper's four baseline load distributors, operator clustering, a
// discrete-event simulator, and a small TCP-based distributed stream engine.
//
// The core idea: model every operator's CPU load as a linear function of
// the system input stream rates; a placement then makes each node a
// half-space constraint on the rate space, and the intersection — the
// feasible set — is the set of input-rate combinations the cluster can
// sustain. ROD places operators to maximize the feasible set's size rather
// than to balance one observed load point, making the system resilient to
// unpredictable and bursty load without operator migration.
//
// Quick start:
//
//	b := rodsp.NewBuilder()
//	in := b.Input("packets")
//	f := b.Filter("syn", 0.0002, 0.3, in)
//	b.Aggregate("count", 0.0004, 0.05, 5, f)
//	g, err := b.Build()
//	// place on 4 unit-capacity nodes
//	plan, report, lm, err := rodsp.Place(g, []float64{1, 1, 1, 1}, rodsp.Config{})
//	ratio, err := rodsp.FeasibleRatio(plan, lm, []float64{1, 1, 1, 1}, 4000)
package rodsp

import (
	"math/rand"

	"rodsp/internal/cluster"
	"rodsp/internal/core"
	"rodsp/internal/engine"
	"rodsp/internal/feasible"
	"rodsp/internal/mat"
	"rodsp/internal/obs"
	"rodsp/internal/par"
	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/sim"
	"rodsp/internal/trace"
)

// Graph building (see the Builder methods: Input, Filter, Map, Union,
// Aggregate, Join, Delay).
type (
	// Graph is an acyclic continuous-query data-flow graph.
	Graph = query.Graph
	// Builder assembles Graphs; obtain one with NewBuilder.
	Builder = query.Builder
	// Operator is one continuous-query operator (the allocation unit).
	Operator = query.Operator
	// Stream is a data arc between operators or from a system input.
	Stream = query.Stream
	// StreamID identifies a stream within its graph.
	StreamID = query.StreamID
	// OpID identifies an operator within its graph.
	OpID = query.OpID
	// LoadModel is the linearized load model L^o of a graph.
	LoadModel = query.LoadModel

	// Plan assigns every operator to a node.
	Plan = placement.Plan
	// Config tunes a ROD run (lower bounds, Class-I selector, seed).
	Config = core.Config
	// Report describes the decisions and final geometry of a ROD run.
	Report = core.Report
	// Selector picks among Class I candidate nodes.
	Selector = core.Selector
	// Ordering selects the phase-1 operator order (ablation support).
	Ordering = core.Ordering

	// Trace is an input-rate time series driving simulations and the engine.
	Trace = trace.Trace

	// SimConfig configures the discrete-event simulator.
	SimConfig = sim.Config
	// SimResult reports simulator latency/utilization measurements.
	SimResult = sim.Result

	// EngineCluster is an in-process distributed engine: real nodes on
	// localhost TCP with virtual CPU capacities, plus a latency collector.
	// Its MoveOperator method performs live migration with a configurable
	// state-transfer stall.
	EngineCluster = engine.Cluster
	// EngineSource injects tuples for one input stream at trace-driven rates.
	EngineSource = engine.SourceDriver
	// EngineNodeStats is a node's metrics snapshot.
	EngineNodeStats = engine.NodeStats
	// EngineNodeConfig tunes a node's data plane: ingress queue bound,
	// per-peer outbox capacity, reconnect backoff and timeouts.
	EngineNodeConfig = engine.NodeConfig
	// EngineLinkFault describes an injected outbound-link fault (sever,
	// drop, or delay) for resilience testing.
	EngineLinkFault = engine.LinkFault
	// EngineFaultSpec is the control-plane fault-injection command: link
	// faults by peer address, or killing the node outright.
	EngineFaultSpec = engine.FaultSpec

	// RebalanceConfig turns the simulator into a dynamic-redistribution
	// system (the paper's contrast case): periodic statistics windows, a
	// move policy, and a per-move migration stall.
	RebalanceConfig = sim.RebalanceConfig
	// RebalancePolicy decides the moves of one rebalancing round.
	RebalancePolicy = sim.Policy
	// LLFRebalancePolicy reactively moves load from the hottest node to the
	// coldest.
	LLFRebalancePolicy = sim.LLFPolicy
	// CorrelationRebalancePolicy prefers moving operators whose load history
	// correlates with their node's.
	CorrelationRebalancePolicy = sim.CorrelationPolicy

	// MetricsRegistry is the concurrency-safe counter/gauge/histogram
	// registry shared by the engine monitor and the simulator observer.
	MetricsRegistry = obs.Registry
	// SeriesSet holds the ring-buffered time series the sampler fills.
	SeriesSet = obs.SeriesSet
	// EventLog records structured engine/simulator events (deploys,
	// migrations, overload onset and clearance, control errors).
	EventLog = obs.EventLog
	// MonitorConfig configures the engine's live observability loop,
	// including the load model used for feasibility headroom.
	MonitorConfig = engine.MonitorConfig
	// Monitor is the running engine observability loop; see
	// EngineCluster.StartMonitor.
	Monitor = engine.Monitor
	// ControllerConfig tunes the elastic placement controller (decision
	// interval, forecast horizon, migration budget, hysteresis, cooldown).
	ControllerConfig = engine.ControllerConfig
	// Controller is the running closed-loop elastic placement controller;
	// see EngineCluster.StartController.
	Controller = engine.Controller
	// SimObsConfig enables the simulator's virtual-time observer, which
	// feeds the engine monitor's per-window observer and so emits its
	// schema.
	SimObsConfig = sim.ObsConfig
	// LatencySummary is the shared latency digest (count, mean, quantiles).
	LatencySummary = obs.LatencySummary
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEventLog returns an event log retaining up to capacity events
// (0 = default retention).
func NewEventLog(capacity int) *EventLog { return obs.NewEventLog(capacity) }

// ServeObservability serves /metrics (Prometheus text), /series (JSON),
// /series.csv and /events on addr. Any of reg, set, ev may be nil; the
// returned close function shuts the server down.
func ServeObservability(addr string, reg *MetricsRegistry, set *SeriesSet, ev *EventLog) (bound string, closeFn func() error, err error) {
	return obs.ServeHTTP(addr, reg, set, ev)
}

// Class-I selectors (Config.Selector).
const (
	// SelectRandom is the paper's formulation: a random Class I node.
	SelectRandom = core.SelectRandom
	// SelectMaxPlaneDistance is the deterministic paper-faithful choice.
	SelectMaxPlaneDistance = core.SelectMaxPlaneDistance
	// SelectMinConnections minimizes new inter-node streams (needs Config.Graph).
	SelectMinConnections = core.SelectMinConnections
	// SelectAxisBalance is this repository's overshoot-penalized refinement.
	SelectAxisBalance = core.SelectAxisBalance

	// OrderNormDescending is the paper's phase-1 order (the default).
	OrderNormDescending = core.OrderNormDescending
	// OrderNormAscending and OrderRandom exist for the ordering ablation.
	OrderNormAscending = core.OrderNormAscending
	// OrderRandom shuffles the phase-1 order (seeded).
	OrderRandom = core.OrderRandom
)

// SetWorkers sets the process-wide worker count of the placement/evaluation
// compute plane — chunked QMC integration, the concurrent PlaceBest
// portfolio, and the bench trial-runner all fan out through it. n <= 0
// resets to the default (GOMAXPROCS). Every parallel path is deterministic:
// results are bit-identical for any worker count.
func SetWorkers(n int) { par.SetWorkers(n) }

// Workers returns the effective compute-plane worker count.
func Workers() int { return par.Workers() }

// NewBuilder returns an empty query-graph builder.
func NewBuilder() *Builder { return query.NewBuilder() }

// Place runs ROD over a query graph: it builds the (linearized) load model
// and greedily assigns operators to the given nodes (capacities are CPU
// seconds of work per second).
func Place(g *Graph, capacities []float64, cfg Config) (*Plan, *Report, *LoadModel, error) {
	return core.PlaceGraph(g, mat.Vec(capacities), cfg)
}

// PlaceBest runs the two-variant ROD portfolio (the paper's Class II rule
// and the axis-balance refinement) and keeps the plan with the larger
// QMC-estimated feasible set. samples <= 0 uses a sensible default.
func PlaceBest(g *Graph, capacities []float64, cfg Config, samples int) (*Plan, *Report, *LoadModel, error) {
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		return nil, nil, nil, err
	}
	if cfg.Graph == nil {
		cfg.Graph = g
	}
	plan, report, err := core.PlaceBest(lm.Coef, mat.Vec(capacities), cfg, samples)
	if err != nil {
		return nil, nil, nil, err
	}
	return plan, report, lm, nil
}

// FeasibleRatio measures a plan's feasible-set size as a fraction of the
// ideal feasible set (Theorem 1) by Quasi-Monte-Carlo integration (exactly
// when the model has two or three variables).
func FeasibleRatio(plan *Plan, lm *LoadModel, capacities []float64, samples int) (float64, error) {
	return placement.Evaluate(plan, lm.Coef, mat.Vec(capacities), samples)
}

// FeasibleRatioFrom is FeasibleRatio over the restricted workload set
// {R ≥ lowerBound} (Section 6.1).
func FeasibleRatioFrom(plan *Plan, lm *LoadModel, capacities, lowerBound []float64, samples int) (float64, error) {
	return placement.EvaluateFrom(plan, lm.Coef, mat.Vec(capacities), mat.Vec(lowerBound), samples)
}

// FeasibleAt reports whether the system is feasible (no node overloaded) at
// the given input rates under a plan.
func FeasibleAt(plan *Plan, lm *LoadModel, capacities, rates []float64) (bool, error) {
	x, err := lm.ResolveVars(mat.Vec(rates))
	if err != nil {
		return false, err
	}
	sys := feasible.System{Ln: plan.NodeCoef(lm.Coef), C: mat.Vec(capacities)}
	return sys.FeasibleAt(x), nil
}

// Simulate runs the discrete-event simulator.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// Baselines from the paper's evaluation (Section 7.2), exposed for
// comparisons.

// PlaceLLF is Largest-Load-First load balancing at the given average rates.
func PlaceLLF(lm *LoadModel, capacities, avgRates []float64) (*Plan, error) {
	return placement.LLF(lm.Coef, mat.Vec(capacities), mat.Vec(avgRates))
}

// PlaceConnected is the Connected-Load-Balancing baseline.
func PlaceConnected(g *Graph, lm *LoadModel, capacities, avgRates []float64) (*Plan, error) {
	return placement.Connected(g, lm.Coef, mat.Vec(capacities), mat.Vec(avgRates))
}

// PlaceRandom places operators uniformly with equal per-node counts.
func PlaceRandom(lm *LoadModel, n int, seed int64) *Plan {
	return placement.Random(lm.Coef.Rows, n, rand.New(rand.NewSource(seed)))
}

// ClusterResult describes the winning Section 6.3 clustering+placement
// combination chosen by PlaceClustered.
type ClusterResult = cluster.SweepResult

// PlaceClustered handles graphs whose streams carry per-tuple network
// transfer costs (Stream.XferCost): it sweeps the Section 6.3 clustering
// strategies and thresholds, places every clustering with ROD, and returns
// the combination with the maximum plane distance in the common
// (transfer-free) normalization. With no transfer costs it degenerates to
// plain ROD. A nil thresholds slice uses {0.5, 1, 2, 4}.
func PlaceClustered(g *Graph, capacities []float64, cfg Config, thresholds []float64) (*ClusterResult, *LoadModel, error) {
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		return nil, nil, err
	}
	if thresholds == nil {
		thresholds = []float64{0.5, 1, 2, 4}
	}
	if cfg.Selector == SelectRandom {
		cfg.Selector = SelectMaxPlaneDistance // deterministic sweep comparisons
	}
	res, err := cluster.Sweep(lm, mat.Vec(capacities), cfg, thresholds)
	if err != nil {
		return nil, nil, err
	}
	return res, lm, nil
}

// NetworkCostAt returns the per-second CPU cost of cross-node communication
// under a plan at the given input rates (Section 6.3's cost model).
func NetworkCostAt(lm *LoadModel, plan *Plan, rates []float64) (float64, error) {
	x, err := lm.ResolveVars(mat.Vec(rates))
	if err != nil {
		return 0, err
	}
	return cluster.NetworkCostAt(lm, plan.NodeOf, x), nil
}

// Traces.

// NewTrace wraps a rate series (tuples/second per bin of dt seconds).
func NewTrace(name string, dt float64, rates []float64) *Trace {
	return trace.New(name, dt, rates)
}

// PresetTraces returns the bursty, self-similar PKT/TCP/HTTP stand-in
// traces (mean-1 normalized; scale with Trace.ScaleToMean).
func PresetTraces(seed int64) []*Trace { return trace.Presets(seed) }

// Engine.

// StartEngine launches an in-process distributed engine cluster: one TCP
// node per capacity entry plus a latency collector. Close it when done.
func StartEngine(capacities []float64) (*EngineCluster, error) {
	return engine.StartCluster(capacities)
}

// StartEngineConfig is StartEngine with explicit per-node data-plane
// settings (queue bounds, shed policy, outbox capacity, backoff).
func StartEngineConfig(capacities []float64, cfg EngineNodeConfig) (*EngineCluster, error) {
	return engine.StartClusterConfig(capacities, cfg)
}

// EngineInputNodes returns, per input stream, the nodes that must receive
// injected source tuples under a plan.
func EngineInputNodes(g *Graph, plan *Plan) map[StreamID][]int {
	return engine.InputNodes(g, plan)
}
