package obs

import (
	"strconv"
	"sync"
)

// The overload latch's one definition: a node latches overloaded once its
// windowed utilization reaches OverloadUtil with at least OverloadQueue
// tuples queued, and clears once utilization drops below OverloadUtil and
// the queue drains to a quarter of OverloadQueue. The queue hysteresis
// keeps a saturated-but-draining node latched.
const (
	OverloadUtil  = 0.95
	OverloadQueue = 100
	// DefaultRateAlpha is the EWMA smoothing factor for source rates.
	DefaultRateAlpha = 0.4
)

// ObserverConfig sizes the per-window observer both runtimes share.
type ObserverConfig struct {
	// Nodes is the number of nodes observed.
	Nodes int
	// Caps are the node capacities C_i of the headroom 1 − load_i/C_i; a
	// missing or non-positive entry counts as 1.
	Caps []float64
	// RateAlpha is the source-rate EWMA smoothing factor in (0, 1]
	// (default DefaultRateAlpha).
	RateAlpha float64
	// VirtualClock stamps overload events with Window.T (the simulator's
	// virtual time) instead of the event log's own clock.
	VirtualClock bool
}

// NodeInstruments are one node's registered per-node series. The observer
// sets the three gauges; the runtime feeds the counters.
type NodeInstruments struct {
	Util, Queue, Headroom                                       *Gauge
	Injected, Emitted, Shed, OutboxDropped, Reconnects, NoRoute *Counter
}

// ControllerInstruments are the elastic controller's series.
type ControllerInstruments struct {
	Decisions, Moves, MoveFailures *Counter
	ForecastHeadroom               *Gauge
}

// Window is one sample window's runtime-specific input to Observe.
type Window struct {
	// T stamps the window's series points (seconds since the runtime's
	// epoch: wall time for the engine, virtual time for the simulator).
	T float64
	// Dt is the window length in seconds, over which source-counter deltas
	// become rates.
	Dt float64
	// Util is each node's raw windowed utilization, clamped into [0, 1] in
	// place; Queue each node's queued tuples.
	Util  []float64
	Queue []int
	// Loads, when set, maps the smoothed source rates (in Source
	// registration order) to per-node loads; a nil result leaves the
	// headroom gauges as they were.
	Loads func(rates []float64) []float64
}

// ObserverState is a point-in-time copy of the observer's per-node view.
type ObserverState struct {
	Utils, Queues, Headrooms []float64
	// Overloaded is the overload latch; Stale marks nodes SetStale took
	// out of observation.
	Overloaded, Stale []bool
	// Rates are the smoothed source rates in Source registration order.
	Rates []float64
}

// Observer is the per-window observer the engine monitor and the simulator
// share: it registers the common series schema once and, per window,
// clamps utilization, smooths source rates, sets the feasibility headroom,
// refreshes the latency quantiles, runs the overload latch and samples
// every probe.
//
// Observe and SetStale must be called from one goroutine; State, Source
// and the instruments are safe from any goroutine.
type Observer struct {
	cfg     ObserverConfig
	reg     *Registry
	ev      *EventLog
	sampler *Sampler

	nodes   []NodeInstruments
	ctrl    *ControllerInstruments
	sinkLat *Histogram
	sinkC   *Counter
	sinkQ   [3]*Gauge // p50, p95, p99
	stages  *StageSet
	stageQ  [NumStages][2]*Gauge // p50, p99

	// mu guards the latch, the stale marks and the sources, which Observe
	// writes and State copies.
	mu     sync.Mutex
	over   []bool
	stale  []bool
	srcs   []source
	srcIdx map[string]int
	rates  []float64
}

type source struct {
	count *Counter
	rate  *EWMA
	gauge *Gauge
	last  int64
}

var sinkQuantiles = [3]float64{50, 95, 99}

// NewObserver registers the common schema in reg, sampling into set and
// logging to ev; a nil reg, set or ev is replaced by a fresh one.
func NewObserver(reg *Registry, set *SeriesSet, ev *EventLog, cfg ObserverConfig) *Observer {
	if reg == nil {
		reg = NewRegistry()
	}
	if ev == nil {
		ev = NewEventLog(0)
	}
	if cfg.RateAlpha <= 0 || cfg.RateAlpha > 1 {
		cfg.RateAlpha = DefaultRateAlpha
	}
	o := &Observer{
		cfg:     cfg,
		reg:     reg,
		ev:      ev,
		sampler: NewSampler(set),
		nodes:   make([]NodeInstruments, cfg.Nodes),
		over:    make([]bool, cfg.Nodes),
		stale:   make([]bool, cfg.Nodes),
		srcIdx:  map[string]int{},
	}
	gauge, counter := o.Gauge, o.Counter
	for i := range o.nodes {
		node := strconv.Itoa(i)
		o.nodes[i] = NodeInstruments{
			Util:          gauge(MetricNodeUtilization, "node", node),
			Queue:         gauge(MetricNodeQueueDepth, "node", node),
			Headroom:      gauge(MetricNodeHeadroom, "node", node),
			Injected:      counter(MetricNodeInjected, "node", node),
			Emitted:       counter(MetricNodeEmitted, "node", node),
			Shed:          counter(MetricNodeShed, "node", node),
			OutboxDropped: counter(MetricNodeOutboxDrop, "node", node),
			Reconnects:    counter(MetricNodePeerReconnects, "node", node),
			NoRoute:       counter(MetricNodeNoRoute, "node", node),
		}
		o.nodes[i].Headroom.Set(1) // no observed load yet
	}
	o.sinkLat = reg.Histogram(MetricSinkLatency, nil)
	o.sinkC = counter(MetricSinkTuples)
	for k, p := range sinkQuantiles {
		o.sinkQ[k] = gauge(MetricSinkLatencyQuantile, "quantile", "p"+strconv.FormatFloat(p, 'g', -1, 64))
	}
	// Every stage is registered, whether or not the runtime populates it
	// (the simulator has no outbox or deliver stage), so the schema does
	// not depend on the runtime or the trace sampling rate.
	o.stages = NewStageSet(reg)
	for st := 0; st < NumStages; st++ {
		name := StageName(st)
		o.stageQ[st][0] = gauge(MetricStageLatencyQuantile, "stage", name, "quantile", "p50")
		o.stageQ[st][1] = gauge(MetricStageLatencyQuantile, "stage", name, "quantile", "p99")
		counter(MetricStageTuples, "stage", name)
	}
	return o
}

// Registry returns the metrics registry.
func (o *Observer) Registry() *Registry { return o.reg }

// Series returns the sampled time-series set.
func (o *Observer) Series() *SeriesSet { return o.sampler.Set() }

// Events returns the event log.
func (o *Observer) Events() *EventLog { return o.ev }

// Stages returns the per-stage latency decomposition.
func (o *Observer) Stages() *StageSet { return o.stages }

// SinkLatency returns the end-to-end sink latency histogram.
func (o *Observer) SinkLatency() *Histogram { return o.sinkLat }

// SinkTuples returns the sink tuple counter.
func (o *Observer) SinkTuples() *Counter { return o.sinkC }

// RateAlpha returns the source-rate smoothing factor in force.
func (o *Observer) RateAlpha() float64 { return o.cfg.RateAlpha }

// Gauge registers a gauge and samples it on every window.
func (o *Observer) Gauge(name string, labels ...string) *Gauge {
	g := o.reg.Gauge(name, labels...)
	o.sampler.ProbeGauge(name, g, labels...)
	return g
}

// Counter registers a counter and samples it on every window.
func (o *Observer) Counter(name string, labels ...string) *Counter {
	c := o.reg.Counter(name, labels...)
	o.sampler.ProbeCounter(name, c, labels...)
	return c
}

// Node returns node i's instruments.
func (o *Observer) Node(i int) *NodeInstruments { return &o.nodes[i] }

// Source returns the injection counter of the source stream labelled
// label, registering the counter and its smoothed-rate gauge on first use.
// Rates follow registration order.
func (o *Observer) Source(label string) *Counter {
	o.mu.Lock()
	defer o.mu.Unlock()
	if k, ok := o.srcIdx[label]; ok {
		return o.srcs[k].count
	}
	s := source{
		count: o.reg.Counter(MetricSourceTuples, "stream", label),
		rate:  NewEWMA(o.cfg.RateAlpha),
		gauge: o.Gauge(MetricSourceRate, "stream", label),
	}
	o.srcIdx[label] = len(o.srcs)
	o.srcs = append(o.srcs, s)
	return s.count
}

// Controller registers (once) and returns the elastic controller's series.
func (o *Observer) Controller() *ControllerInstruments {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.ctrl == nil {
		o.ctrl = &ControllerInstruments{
			Decisions:        o.Counter(MetricControllerDecisions),
			Moves:            o.Counter(MetricControllerMoves),
			MoveFailures:     o.Counter(MetricControllerMoveFailures),
			ForecastHeadroom: o.Gauge(MetricControllerForecastHeadroom),
		}
		o.ctrl.ForecastHeadroom.Set(1)
	}
	return o.ctrl
}

// SetStale takes node i out of observation (its stats are unreachable) or
// puts it back. Going stale zeroes its utilization, queue and headroom
// gauges and clears its overload latch, so nothing keeps reacting to frozen
// values. It reports whether the mark changed and whether the node was
// latched overloaded.
func (o *Observer) SetStale(i int, stale bool) (changed, wasOver bool) {
	o.mu.Lock()
	changed, wasOver = o.stale[i] != stale, o.over[i]
	o.stale[i] = stale
	if stale {
		o.over[i] = false
	}
	o.mu.Unlock()
	if changed && stale {
		n := &o.nodes[i]
		n.Util.Set(0)
		n.Queue.Set(0)
		n.Headroom.Set(0)
	}
	return changed, wasOver
}

// State copies the observer's current per-node view and source rates.
func (o *Observer) State() ObserverState {
	s := ObserverState{
		Utils:     make([]float64, len(o.nodes)),
		Queues:    make([]float64, len(o.nodes)),
		Headrooms: make([]float64, len(o.nodes)),
	}
	for i := range o.nodes {
		s.Utils[i] = o.nodes[i].Util.Value()
		s.Queues[i] = o.nodes[i].Queue.Value()
		s.Headrooms[i] = o.nodes[i].Headroom.Value()
	}
	o.mu.Lock()
	s.Overloaded = append([]bool(nil), o.over...)
	s.Stale = append([]bool(nil), o.stale...)
	s.Rates = make([]float64, len(o.srcs))
	for k := range o.srcs {
		s.Rates[k] = o.srcs[k].rate.Value()
	}
	o.mu.Unlock()
	return s
}

// Observe folds one sample window: it sets every fresh node's clamped
// utilization and queue gauges, turns source-counter deltas over w.Dt into
// EWMA rates, sets the fresh nodes' headroom from w.Loads, refreshes the
// sink and stage quantiles, runs the overload latch (emitting
// overload_onset and overload_clear) and samples every probe at w.T.
func (o *Observer) Observe(w Window) {
	for i := range o.nodes {
		if o.stale[i] {
			continue
		}
		w.Util[i] = min(max(w.Util[i], 0), 1)
		o.nodes[i].Util.Set(w.Util[i])
		o.nodes[i].Queue.Set(float64(w.Queue[i]))
	}

	o.mu.Lock()
	o.rates = o.rates[:0]
	for k := range o.srcs {
		s := &o.srcs[k]
		cur := s.count.Value()
		s.rate.Observe(float64(cur-s.last) / w.Dt)
		s.last = cur
		s.gauge.Set(s.rate.Value())
		o.rates = append(o.rates, s.rate.Value())
	}
	o.mu.Unlock()

	// Feasibility headroom 1 − L^n_i·R̂/C_i at the smoothed rate point.
	if w.Loads != nil {
		for i, l := range w.Loads(o.rates) {
			if i < len(o.nodes) && !o.stale[i] {
				o.nodes[i].Headroom.Set(headroom(l, o.cfg.Caps, i))
			}
		}
	}

	// Latency quantiles from the cumulative histograms.
	for k, p := range sinkQuantiles {
		if v, ok := o.sinkLat.Quantile(p); ok {
			o.sinkQ[k].Set(v)
		}
	}
	for st := 0; st < NumStages; st++ {
		h := o.stages.Hist(st)
		for k, p := range [2]float64{50, 99} {
			if v, ok := h.Quantile(p); ok {
				o.stageQ[st][k].Set(v)
			}
		}
	}

	// Overload onset/clearance with queue hysteresis.
	for i := range o.nodes {
		if o.stale[i] {
			continue
		}
		u, q := w.Util[i], w.Queue[i]
		o.mu.Lock()
		onset := !o.over[i] && u >= OverloadUtil && q >= OverloadQueue
		cleared := o.over[i] && u < OverloadUtil && q <= OverloadQueue/4
		if onset || cleared {
			o.over[i] = onset
		}
		o.mu.Unlock()
		switch {
		case onset:
			o.emit(w.T, LevelWarn, EventOverloadOnset, i, u, q)
		case cleared:
			o.emit(w.T, LevelInfo, EventOverloadClear, i, u, q)
		}
	}

	o.sampler.Sample(w.T)
}

func (o *Observer) emit(t float64, level, typ string, node int, util float64, queue int) {
	kv := []any{"node", node, "util", util, "queue", queue, "headroom", o.nodes[node].Headroom.Value()}
	if o.cfg.VirtualClock {
		o.ev.EmitAt(t, level, typ, kv...)
	} else {
		o.ev.Emit(level, typ, kv...)
	}
}

// NodeLoads sums per-operator loads onto the nodes nodeOf places them on,
// into dst (zeroed first; its length is the node count), and returns dst.
// Operators placed off the node range, or without a load, are skipped.
func NodeLoads(dst, opLoads []float64, nodeOf []int) []float64 {
	clear(dst)
	for op, node := range nodeOf {
		if op < len(opLoads) && node >= 0 && node < len(dst) {
			dst[node] += opLoads[op]
		}
	}
	return dst
}

// MinHeadroom returns the minimum headroom 1 − loads_i/caps_i over the
// nodes not marked stale and the node attaining it (−1, with headroom 1,
// when every node is stale).
func MinHeadroom(loads, caps []float64, stale []bool) (float64, int) {
	best, arg := 1.0, -1
	for i, l := range loads {
		if i < len(stale) && stale[i] {
			continue
		}
		if h := headroom(l, caps, i); arg < 0 || h < best {
			best, arg = h, i
		}
	}
	return best, arg
}

// headroom is node i's feasibility headroom 1 − load/C_i; a missing or
// non-positive capacity counts as 1.
func headroom(load float64, caps []float64, i int) float64 {
	c := 1.0
	if i < len(caps) && caps[i] > 0 {
		c = caps[i]
	}
	return 1 - load/c
}
