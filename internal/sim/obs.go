package sim

import (
	"strconv"

	"rodsp/internal/mat"
	"rodsp/internal/obs"
	"rodsp/internal/query"
)

// ObsConfig enables observability inside a simulation run: the engine
// monitor's per-window observer (obs.Observer: per-node utilization, queue
// depth, feasibility headroom, tuple counts, source rates, sink and stage
// latency, the overload latch) fed once per virtual-time interval, with
// every event stamped with simulation time.
type ObsConfig struct {
	// Interval is the virtual-time sampling period (simulated seconds).
	// Default Duration/100.
	Interval float64

	// Events receives the events; a fresh log is created when nil.
	Events *obs.EventLog

	// OverloadQueue is the backlog an overload onset needs (default
	// obs.DefaultOverloadQueue).
	OverloadQueue int

	// RateAlpha is the EWMA smoothing for source rates (default
	// obs.DefaultRateAlpha).
	RateAlpha float64

	// Controller mirrors the engine's elastic-controller observability:
	// the rodsp_controller_* series are registered (so a controller-mode
	// engine run and a sim replay of its recorded decisions keep identical
	// series schemas for the lockstep cross-validation), scheduled moves
	// emit controller_migrate events and feed the decision/move counters,
	// and the forecast-headroom gauge tracks the minimum node headroom.
	Controller bool
}

// observer adapts the shared obs.Observer to the event loop; nil when
// observability is disabled.
type observer struct {
	core     *obs.Observer
	ev       *obs.EventLog
	interval float64

	lm   *query.LoadModel // nil when the graph has no valid load model
	caps mat.Vec
	src  []*obs.Counter // injection counter per input stream index

	// ctrl mirrors the controller series; nil unless ObsConfig.Controller.
	// Each sample window counts as one decision and its forecast headroom
	// is the observed minimum; scheduled moves feed the move counter and
	// the failure counter stays at zero (the simulator cannot abort a
	// migration).
	ctrl *obs.ControllerInstruments

	lastBusy []float64
	util     []float64
	queue    []int
	scratch  mat.Scratch // per-sample vectors; sample() runs on one goroutine
}

// newObserver builds the observer for one run; cfg.Obs must be non-nil.
func newObserver(cfg *Config, g *query.Graph, inputs []query.StreamID, n int) *observer {
	oc := *cfg.Obs
	if oc.Interval <= 0 {
		oc.Interval = cfg.Duration / 100
	}
	core := obs.NewObserver(nil, nil, oc.Events, obs.ObserverConfig{
		Nodes:         n,
		Caps:          cfg.Capacities,
		OverloadQueue: oc.OverloadQueue,
		RateAlpha:     oc.RateAlpha,
		VirtualClock:  true,
	})
	o := &observer{
		core:     core,
		ev:       core.Events(),
		interval: oc.Interval,
		caps:     cfg.Capacities,
		src:      make([]*obs.Counter, len(inputs)),
		lastBusy: make([]float64, n),
		util:     make([]float64, n),
		queue:    make([]int, n),
	}
	if lm, err := query.BuildLoadModel(g); err == nil {
		o.lm = lm
	}
	for s, in := range inputs {
		label := strconv.Itoa(int(in))
		if st := g.Stream(in); st != nil && st.Name != "" {
			label = st.Name
		}
		o.src[s] = core.Source(label)
	}
	if oc.Controller {
		o.ctrl = core.Controller()
	}
	return o
}

// onMove mirrors one applied scheduled move into the controller series
// (no-op unless ObsConfig.Controller).
func (o *observer) onMove(now float64, op, from, to int) {
	if o.ctrl == nil {
		return
	}
	o.ctrl.Moves.Inc()
	o.ev.EmitAt(now, obs.LevelInfo, obs.EventControllerMigrate,
		"op", op, "from", from, "to", to, "ok", true)
}

// onRepart mirrors one applied scheduled repartition: always an event,
// plus the controller scale counter when ObsConfig.Controller (the engine
// increments it from the shard scale actuator).
func (o *observer) onRepart(now float64, stream, k int) {
	o.ev.EmitAt(now, obs.LevelInfo, obs.EventRepartition, "stream", stream, "k", k)
	if o.ctrl != nil {
		o.ctrl.Scales.Inc()
		o.ev.EmitAt(now, obs.LevelInfo, obs.EventControllerScale,
			"stream", stream, "k", k, "ok", true)
	}
}

// onStage records one stage crossing (seconds of sim time).
func (o *observer) onStage(stage int, sec float64) {
	o.core.Stages().Observe(stage, sec)
}

// onSource records one source arrival on input stream index s.
func (o *observer) onSource(s int) {
	o.src[s].Inc()
}

// onSink records one sink tuple's end-to-end latency.
func (o *observer) onSink(lat float64) {
	o.core.SinkLatency().Observe(lat)
	o.core.SinkTuples().Inc()
}

// sample feeds one virtual-time window ending at now, reading node and
// placement state owned by the (single-threaded) event loop.
func (o *observer) sample(now float64, nodes []nodeState, nodeOf []int) {
	// Windowed utilization from busy-time deltas. Service time is charged
	// up front at service start, so a window's delta can exceed the
	// interval; the observer caps it at 1.
	for i := range nodes {
		o.util[i] = (nodes[i].busyTime - o.lastBusy[i]) / o.interval
		o.lastBusy[i] = nodes[i].busyTime
		o.queue[i] = nodes[i].qlen()
	}
	o.scratch.Reset()
	if o.ctrl != nil {
		o.ctrl.Decisions.Inc() // one mirrored decision per sample window
	}
	o.core.Observe(obs.Window{
		T: now, Dt: o.interval, Util: o.util, Queue: o.queue,
		// Headroom against the live operator→node map (rebalancing
		// mutates it mid-run).
		Loads: func(rates []float64) []float64 {
			if o.lm == nil {
				return nil
			}
			x, err := o.lm.ResolveVars(rates)
			if err != nil {
				return nil
			}
			opLoads := o.scratch.Vec(o.lm.Coef.Rows)
			o.lm.Coef.MulVecTo(opLoads, x)
			loads := obs.NodeLoads(o.scratch.Vec(len(nodes)), opLoads, nodeOf)
			if o.ctrl != nil {
				minHead, _ := obs.MinHeadroom(loads, o.caps, nil)
				o.ctrl.ForecastHeadroom.Set(minHead)
			}
			return loads
		},
	})
}
