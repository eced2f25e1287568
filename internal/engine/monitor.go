package engine

import (
	"strconv"
	"sync"
	"time"

	"rodsp/internal/mat"
	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
)

// MonitorConfig configures the coordinator-side observability monitor, a
// wall-clock adapter around the per-window observer the simulator shares
// (obs.Observer): the thresholds, defaults and series schema live there.
type MonitorConfig struct {
	// Interval between samples. Default 200ms.
	Interval time.Duration

	// Registry, Series and Events receive the metrics, sampled time series
	// and structured events; fresh instances are created for any left nil.
	Registry *obs.Registry
	Series   *obs.SeriesSet
	Events   *obs.EventLog

	// LM, Plan and Caps enable the live feasibility headroom
	// 1 − L^n_i·R̂/C_i: node coefficients L^n follow the plan (updated on
	// migrations), R̂ is the EWMA of the observed input rates. Leave LM nil
	// to monitor without headroom. Caps defaults to the in-process node
	// capacities (or 1 per node when attached to remote nodes).
	LM   *query.LoadModel
	Plan *placement.Plan
	Caps mat.Vec

	// RateAlpha is the EWMA smoothing factor for source rates (default
	// obs.DefaultRateAlpha).
	RateAlpha float64

	// LaneSeries enables per-worker-lane series (queue depth, processed
	// count, utilization, labeled node+lane) for multi-lane nodes. Off by
	// default: the simulator has no lane concept, and the lockstep
	// cross-validation requires an identical series schema from both
	// runtimes.
	LaneSeries bool

	// TraceEvery enables causal tracing: 1 in TraceEvery tuples per stream
	// (rotating per-stream offsets, so every stream is sampled) carries
	// trace context through the data plane, emitting correlated span events
	// at each hop and feeding the per-stage latency decomposition
	// histograms. 0 disables tracing; the stage series are registered
	// either way so the schema does not depend on the sampling rate.
	TraceEvery int64
}

// Monitor polls a running cluster and feeds each window to the shared
// observer (obs.Observer): per-node windowed utilization, queue depth,
// tuple counts, EWMA-smoothed source rates, sink latency quantiles, and —
// when a load model is attached — the live feasibility headroom per node,
// with overload onset/clearance events derived from the samples. The
// monitor itself adds what only the engine has: stats polling, stale
// nodes, WAL, lane, per-stream-shed and shard-rate series.
type Monitor struct {
	cl   *Cluster
	cfg  MonitorConfig
	core *obs.Observer

	// Per-victim-stream shed counters, created lazily when a node first
	// reports shedding on that stream (key "node/stream"). Touched only by
	// the sampling goroutine.
	shedStreamC map[string]*obs.Counter

	// WAL/recovery counters (key: node index), created lazily when a node
	// first reports an active WAL, so the default schema stays identical
	// between the simulator (no WAL) and a non-durable engine run. Touched
	// only by the sampling goroutine.
	walC map[int]*walCounters

	// Per-worker-lane series (key "node/lane"), created lazily when a
	// multi-lane node first reports lane stats and cfg.LaneSeries is set.
	// Touched only by the sampling goroutine.
	laneQ    map[string]*obs.Gauge
	laneU    map[string]*obs.Gauge
	laneP    map[string]*obs.Counter
	laneBusy map[string]float64

	lastBusy []float64
	lastElap []float64
	havePrev bool

	inputs []query.StreamID // rate-vector order = LM.G.Inputs()

	planMu sync.Mutex
	nodeOf []int
	caps   mat.Vec

	// Per-slot routed rates of keyed streams, EWMA-smoothed from the
	// cumulative PartCounts the splitter homes report; only the sampling
	// loop touches them.
	partLast map[int][]int64
	partRate map[int][]float64
	// shardG exposes each keyed stream's per-shard routed rate (slot rates
	// summed per the live partition table) as rodsp_shard_rate gauges,
	// labeled with the sharded parent operator's name and the replica index.
	shardG map[int][]*obs.Gauge

	start    time.Time
	lastTick time.Time
	stop     chan struct{}
	done     chan struct{}
}

// StartMonitor attaches a monitor to the cluster and starts its sampling
// loop. It wires the cluster's collector (latency histogram, sink counter,
// trace spans) and any in-process nodes (relay-error events, trace spans)
// to the monitor's event log, and registers itself so MoveOperator keeps
// the headroom computation tracking the live placement. Close the monitor
// before closing the cluster.
func (cl *Cluster) StartMonitor(cfg MonitorConfig) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = 200 * time.Millisecond
	}
	n := len(cl.Controls)
	caps := cfg.Caps
	if caps == nil {
		caps = mat.NewVec(n)
		for i := range caps {
			caps[i] = 1
			if i < len(cl.Nodes) && cl.Nodes[i] != nil {
				caps[i] = cl.Nodes[i].capacity
			}
		}
	}
	core := obs.NewObserver(cfg.Registry, cfg.Series, cfg.Events, obs.ObserverConfig{
		Nodes:     n,
		Caps:      caps,
		RateAlpha: cfg.RateAlpha,
	})
	cfg.Registry, cfg.Series, cfg.Events = core.Registry(), core.Series(), core.Events()
	m := &Monitor{
		cl:          cl,
		cfg:         cfg,
		core:        core,
		shedStreamC: map[string]*obs.Counter{},
		walC:        map[int]*walCounters{},
		laneQ:       map[string]*obs.Gauge{},
		laneU:       map[string]*obs.Gauge{},
		laneP:       map[string]*obs.Counter{},
		laneBusy:    map[string]float64{},
		lastBusy:    make([]float64, n),
		lastElap:    make([]float64, n),
		caps:        caps,
		partLast:    map[int][]int64{},
		partRate:    map[int][]float64{},
		start:       time.Now(),
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	m.lastTick = m.start

	if cfg.LM != nil {
		// The inputs register first, so the observer's rates open with
		// the load model's rate vector.
		m.inputs = cfg.LM.G.Inputs()
		for _, in := range m.inputs {
			m.SourceCounter(in)
		}
		// Per-shard routed-rate gauges for every keyed shard group, so a
		// viewer can group replicas under the operator that was sharded.
		if groups, err := query.ShardGroups(cfg.LM.G); err == nil && len(groups) > 0 {
			m.shardG = map[int][]*obs.Gauge{}
			for _, grp := range groups {
				parent := cfg.LM.G.Op(grp.Replicas[0]).ShardParent
				gs := make([]*obs.Gauge, len(grp.Replicas))
				for i := range gs {
					shard := strconv.Itoa(i)
					gs[i] = core.Gauge(obs.MetricShardRate, "op", parent, "shard", shard)
				}
				m.shardG[int(grp.Stream)] = gs
			}
		}
	}
	if cfg.Plan != nil {
		m.nodeOf = make([]int, len(cfg.Plan.NodeOf))
		copy(m.nodeOf, cfg.Plan.NodeOf)
	}

	if cl.Collector != nil {
		cl.Collector.SetObserver(core.SinkLatency(), core.SinkTuples(), core.Stages(), cfg.Events, cfg.TraceEvery)
	}
	for _, nd := range cl.Nodes {
		if nd != nil {
			nd.SetObserver(cfg.Events, core.Stages(), cfg.TraceEvery)
		}
	}
	cl.SetEvents(cfg.Events)
	cl.monitor = m

	go m.run()
	return m
}

// Registry returns the metrics registry the monitor feeds.
func (m *Monitor) Registry() *obs.Registry { return m.cfg.Registry }

// Series returns the sampled time-series set.
func (m *Monitor) Series() *obs.SeriesSet { return m.cfg.Series }

// Events returns the event log.
func (m *Monitor) Events() *obs.EventLog { return m.cfg.Events }

// Stages returns the per-stage latency decomposition traced tuples feed.
func (m *Monitor) Stages() *obs.StageSet { return m.core.Stages() }

// SourceCounter returns the injection counter for one input stream; wire it
// to the matching SourceDriver.Count so the monitor can estimate R̂. The
// counter (and its rate series) is created on first use.
func (m *Monitor) SourceCounter(sid query.StreamID) *obs.Counter {
	label := strconv.Itoa(int(sid))
	if m.cfg.LM != nil {
		if st := m.cfg.LM.G.Stream(sid); st != nil && st.Name != "" {
			label = st.Name
		}
	}
	return m.core.Source(label)
}

// setOp tracks a migration: MoveOperator calls it after updating the plan
// so headroom follows the live placement without racing plan mutations.
func (m *Monitor) setOp(opID query.OpID, node int) {
	m.planMu.Lock()
	if int(opID) < len(m.nodeOf) {
		m.nodeOf[opID] = node
	}
	m.planMu.Unlock()
}

// MonitorSnapshot is a point-in-time copy of the monitor's view of the
// cluster, consumed by the elastic controller's decision cycle.
type MonitorSnapshot struct {
	// Utils, Queues and Headrooms are the per-node windowed utilization,
	// queue depth and live feasibility headroom gauges.
	Utils     []float64
	Queues    []float64
	Headrooms []float64
	// Overloaded is the hysteresis overload latch; Stale marks nodes whose
	// stats went unreachable (gauges zeroed, latch cleared).
	Overloaded []bool
	Stale      []bool
	// Inputs is the load model's rate-vector order and Rates the matching
	// EWMA-smoothed source rates R̂ (nil without an attached load model).
	Inputs []query.StreamID
	Rates  mat.Vec
	// NodeOf is the live operator placement as tracked across migrations;
	// Caps the node capacities used in the headroom computation.
	NodeOf []int
	Caps   mat.Vec
}

// Snapshot copies the monitor's current view of the cluster. Safe to call
// from any goroutine.
func (m *Monitor) Snapshot() MonitorSnapshot {
	st := m.core.State()
	s := MonitorSnapshot{
		Utils:      st.Utils,
		Queues:     st.Queues,
		Headrooms:  st.Headrooms,
		Overloaded: st.Overloaded,
		Stale:      st.Stale,
	}
	if len(m.inputs) > 0 {
		s.Inputs = append([]query.StreamID(nil), m.inputs...)
		s.Rates = st.Rates[:len(m.inputs)]
	}
	m.planMu.Lock()
	s.NodeOf = append([]int(nil), m.nodeOf...)
	m.planMu.Unlock()
	s.Caps = append(mat.Vec(nil), m.caps...)
	return s
}

// Close stops the sampling loop and waits for it to exit.
func (m *Monitor) Close() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
}

func (m *Monitor) run() {
	defer close(m.done)
	tick := time.NewTicker(m.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-tick.C:
			m.tick(now)
		}
	}
}

// walCounters bundles one durable node's WAL/recovery series.
type walCounters struct {
	records, syncs, bytes, checkpoints *obs.Counter
	replayed, dedupDropped             *obs.Counter
}

// walTick feeds one durable node's WAL/recovery counters, registering the
// series on the node's first WAL-active report.
func (m *Monitor) walTick(node int, s *NodeStats) {
	wc, ok := m.walC[node]
	if !ok {
		lbl := strconv.Itoa(node)
		wc = &walCounters{
			records:      m.core.Counter(obs.MetricWALRecords, "node", lbl),
			syncs:        m.core.Counter(obs.MetricWALSyncs, "node", lbl),
			bytes:        m.core.Counter(obs.MetricWALBytes, "node", lbl),
			checkpoints:  m.core.Counter(obs.MetricWALCheckpoints, "node", lbl),
			replayed:     m.core.Counter(obs.MetricRecoveryReplayed, "node", lbl),
			dedupDropped: m.core.Counter(obs.MetricRecoveryDedupDropped, "node", lbl),
		}
		m.walC[node] = wc
	}
	wc.records.Store(s.WALRecords)
	wc.syncs.Store(s.WALSyncs)
	wc.bytes.Store(s.WALBytes)
	wc.checkpoints.Store(s.Checkpoints)
	wc.replayed.Store(s.Replayed)
	wc.dedupDropped.Store(s.DedupDropped)
}

// laneTick feeds the per-worker-lane series of one multi-lane node: queue
// depth (queued + in-flight), cumulative processed count, and windowed
// utilization from the lane's busy-seconds delta over the node's elapsed
// delta. prevElap is the node's elapsed seconds at the previous tick (0 on
// the first, making the first window the whole run so far).
func (m *Monitor) laneTick(node int, s *NodeStats, prevElap float64) {
	nodeLbl := strconv.Itoa(node)
	dElap := s.ElapsedSec - prevElap
	for _, ls := range s.Lanes {
		laneLbl := strconv.Itoa(ls.Lane)
		key := nodeLbl + "/" + laneLbl
		qg, ok := m.laneQ[key]
		if !ok {
			qg = m.core.Gauge(obs.MetricLaneQueueDepth, "node", nodeLbl, "lane", laneLbl)
			m.laneQ[key] = qg
			m.laneU[key] = m.core.Gauge(obs.MetricLaneUtilization, "node", nodeLbl, "lane", laneLbl)
			m.laneP[key] = m.core.Counter(obs.MetricLaneProcessed, "node", nodeLbl, "lane", laneLbl)
		}
		qg.Set(float64(ls.Queue + ls.InFlight))
		m.laneP[key].Store(ls.Processed)
		util := 0.0
		if dElap > 0 {
			util = min(max((ls.BusySec-m.laneBusy[key])/dElap, 0), 1)
		}
		m.laneBusy[key] = ls.BusySec
		m.laneU[key].Set(util)
	}
}

func (m *Monitor) tick(now time.Time) {
	ev := m.cfg.Events
	dt := now.Sub(m.lastTick).Seconds()
	m.lastTick = now
	if dt <= 0 {
		return
	}

	sts, err := m.cl.Stats()
	if err != nil {
		ev.Emit(obs.LevelWarn, obs.EventControlError, "op", "stats", "err", err.Error())
		return
	}

	// Per-node windowed utilization from busy-time deltas (the control
	// plane reports cumulative busy/elapsed), queue depth and counts.
	// Unreachable nodes report nil stats (Cluster.Stats is partial); they
	// are marked stale — gauges zeroed, overload latch cleared — so
	// nothing, the controller included, keeps reacting to frozen
	// last-observed values or chases a dead node.
	w := obs.Window{
		T:     now.Sub(m.start).Seconds(),
		Dt:    dt,
		Util:  make([]float64, len(sts)),
		Queue: make([]int, len(sts)),
	}
	for i, s := range sts {
		if s == nil {
			if changed, wasOver := m.core.SetStale(i, true); changed {
				ev.Emit(obs.LevelWarn, obs.EventNodeStale,
					"node", i, "state", "stale", "was_overloaded", wasOver)
			}
			continue
		}
		if changed, _ := m.core.SetStale(i, false); changed {
			ev.Emit(obs.LevelInfo, obs.EventNodeStale, "node", i, "state", "fresh")
		}
		busy := s.Utilization * s.ElapsedSec
		w.Util[i] = s.Utilization // the first window is the run so far
		if m.havePrev && s.ElapsedSec > m.lastElap[i] {
			w.Util[i] = (busy - m.lastBusy[i]) / (s.ElapsedSec - m.lastElap[i])
		}
		w.Queue[i] = s.QueueLen
		if m.cfg.LaneSeries && len(s.Lanes) > 0 {
			m.laneTick(i, s, m.lastElap[i])
		}
		if s.WALActive {
			m.walTick(i, s)
		}
		m.lastBusy[i], m.lastElap[i] = busy, s.ElapsedSec
		nd := m.core.Node(i)
		nd.Injected.Store(s.Injected)
		nd.Emitted.Store(s.Emitted)
		nd.Shed.Store(s.Shed)
		nd.OutboxDropped.Store(s.OutboxDropped)
		nd.Reconnects.Store(s.PeerReconnects)
		nd.NoRoute.Store(s.DroppedNoRoute)
		for sid, cnt := range s.ShedByStream {
			node, stream := strconv.Itoa(i), strconv.Itoa(sid)
			key := node + "/" + stream
			c, ok := m.shedStreamC[key]
			if !ok {
				c = m.core.Counter(obs.MetricStreamShed, "node", node, "stream", stream)
				m.shedStreamC[key] = c
			}
			c.Store(cnt)
		}
	}
	m.havePrev = true
	m.partTick(sts, dt)

	// Feasibility headroom at the smoothed rate point, against the live
	// placement.
	if m.cfg.LM != nil && m.nodeOf != nil {
		w.Loads = func(rates []float64) []float64 {
			x, err := m.cfg.LM.ResolveVars(rates[:len(m.inputs)])
			if err != nil {
				return nil
			}
			opLoads := m.cfg.LM.Loads(x)
			m.planMu.Lock()
			defer m.planMu.Unlock()
			return obs.NodeLoads(make([]float64, len(sts)), opLoads, m.nodeOf)
		}
	}
	m.core.Observe(w)
}

// partTick folds one window of keyed-stream slot counts: PartCounts deltas
// over dt, EWMA-smoothed per slot, then summed per shard through the live
// partition table into the rodsp_shard_rate gauges. Summing over nodes is
// safe — only a splitter's home accumulates counts for its stream.
func (m *Monitor) partTick(sts []*NodeStats, dt float64) {
	partTotals := map[int][]int64{}
	for _, s := range sts {
		if s == nil {
			continue
		}
		for sid, counts := range s.PartCounts {
			tot := partTotals[sid]
			if len(tot) < len(counts) {
				tot = append(tot, make([]int64, len(counts)-len(tot))...)
			}
			for j, c := range counts {
				tot[j] += c
			}
			partTotals[sid] = tot
		}
	}
	alpha := m.core.RateAlpha()
	for sid, tot := range partTotals {
		last := m.partLast[sid]
		rate := m.partRate[sid]
		if len(last) != len(tot) {
			last = make([]int64, len(tot))
			rate = make([]float64, len(tot))
		}
		for j := range tot {
			obsRate := float64(tot[j]-last[j]) / dt
			if obsRate < 0 {
				obsRate = 0 // counter reset (redeploy)
			}
			rate[j] += alpha * (obsRate - rate[j])
			last[j] = tot[j]
		}
		m.partLast[sid] = last
		m.partRate[sid] = rate
	}
	for sid, rate := range m.partRate {
		gs := m.shardG[sid]
		if gs == nil {
			continue
		}
		slots := m.cl.ShardSlotsOf(query.StreamID(sid))
		sums := make([]float64, len(gs))
		for j, sh := range slots {
			if j < len(rate) && sh >= 0 && sh < len(sums) {
				sums[sh] += rate[j]
			}
		}
		for i, g := range gs {
			g.Set(sums[i])
		}
	}
}
