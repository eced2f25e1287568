package engine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"rodsp/internal/core"
	"rodsp/internal/mat"
	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
)

// The elastic placement controller closes the paper's loop: resilient
// static placement (ROD) buys time under load variation, but surviving
// sustained shifts requires dynamic operator movement. The controller
// watches the Monitor's live feasibility headroom and overload latches,
// forecasts each source rate a short horizon ahead (Holt/Holt-Winters, see
// forecast.go), and when the *forecast* rate point erodes the minimum
// headroom below a threshold it re-runs ROD placement against that point
// and executes the smallest admissible set of MoveOperator calls — so
// migration completes before the overload onset rather than after it.
//
// Guard rails, in decision order:
//
//   - warmup: no actuation until every stream's forecaster has seen a
//     minimum number of samples (a trend fitted to one point is noise);
//   - cooldown: a minimum wall-clock gap between actuations, so one hot
//     window cannot thrash operators back and forth;
//   - reachability: a move whose source or destination node is stale is
//     skipped. Any other destination is admissible — one that already
//     carries the operator's streams, or its old home: relay entries name
//     the consumer they serve, so no node delivers a tuple twice (see
//     migrate.go);
//   - budget: at most MaxMoves migrations per actuation;
//   - hysteresis: the post-budget candidate must improve the forecast
//     minimum headroom by at least HysteresisGain, or the controller holds.
//
// An aborted migration (MoveOperator rolled the destination back) counts as
// actuation failure: the failure counter increments and controller_migrate
// is emitted with ok=false.

// ControllerConfig tunes the elastic placement controller.
type ControllerConfig struct {
	// Interval between decision cycles. Default 500ms.
	Interval time.Duration
	// Horizon is how far ahead the rate forecast is projected; migrations
	// should complete within it. Default 3×Interval.
	Horizon time.Duration
	// Cooldown is the minimum gap between actuations. Default 2s.
	Cooldown time.Duration
	// MaxMoves caps migrations per actuation. Default 1.
	MaxMoves int
	// HeadroomLow triggers re-placement when the forecast minimum headroom
	// drops below it (or a node is already overloaded). Default 0.1.
	HeadroomLow float64
	// HysteresisGain is the minimum forecast-headroom improvement the
	// budgeted move set must deliver for the controller to act. Default 0.02.
	HysteresisGain float64
	// Samples drives PlaceBest's feasible-set estimation. Default 400.
	Samples int
	// Stall is the state-transfer pause charged per migration. Default 0.
	Stall time.Duration
	// Seed drives the ROD re-placement.
	Seed int64

	// Forecaster smoothing: Alpha (level), Beta (trend), Gamma (seasonal);
	// defaults 0.5/0.3/0.2. SeasonPeriod is the seasonal cycle length in
	// decision ticks (0 disables the seasonal term). Warmup is the minimum
	// samples per stream before the controller may act; default 3.
	Alpha, Beta, Gamma float64
	SeasonPeriod       int
	Warmup             int

	// LoadCeiling clamps the forecast rate point so the total resolved load
	// stays at or under this fraction of the live capacity sum before it is
	// fed to placement as a lower bound (an infeasible floor would distort
	// every Class II decision). Default 0.9.
	LoadCeiling float64

	// ShardRebalance, when set, arms the shard scale actuator: given a
	// keyed stream's observed per-slot rates and shard count it returns a
	// fresh slot assignment (wire workload.AssignSkewAware here; the engine
	// deliberately does not import the generator package). The actuator
	// shares the migration cooldown, acts on at most one stream per cycle,
	// and only when the assignment cuts the maximum per-shard load share by
	// at least RebalanceGain. nil disables scaling.
	ShardRebalance func(rates []float64, k int) []int
	// RebalanceGain is the minimum relative reduction of the maximum
	// per-shard load share a reassignment must deliver. Default 0.1.
	RebalanceGain float64
	// RebalanceMinRate is the minimum total observed keyed-stream rate
	// (tuples/second) before the actuator considers it. Default 10.
	RebalanceMinRate float64
}

func (cfg *ControllerConfig) applyDefaults() {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 3 * cfg.Interval
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Second
	}
	if cfg.MaxMoves <= 0 {
		cfg.MaxMoves = 1
	}
	if cfg.HeadroomLow <= 0 {
		cfg.HeadroomLow = 0.1
	}
	if cfg.HysteresisGain <= 0 {
		cfg.HysteresisGain = 0.02
	}
	if cfg.Samples <= 0 {
		cfg.Samples = 400
	}
	if cfg.Warmup <= 0 {
		cfg.Warmup = 3
	}
	if cfg.LoadCeiling <= 0 || cfg.LoadCeiling > 1 {
		cfg.LoadCeiling = 0.9
	}
	if cfg.RebalanceGain <= 0 {
		cfg.RebalanceGain = 0.1
	}
	if cfg.RebalanceMinRate <= 0 {
		cfg.RebalanceMinRate = 10
	}
}

// ControllerMove records one controller-initiated migration attempt.
type ControllerMove struct {
	T        float64 // seconds since controller start
	Op       int
	From, To int
	OK       bool
	Err      string
}

// ControllerStats is a point-in-time summary of the controller's activity.
type ControllerStats struct {
	Decisions        int64
	Moves            int64
	MoveFailures     int64
	Scales           int64
	ForecastHeadroom float64
	LastAction       string // "hold:<reason>", "migrate:<n>" or "scale:<stream>"
}

// Controller is the closed-loop elastic placement controller. Start it with
// Cluster.StartController after StartMonitor; it is the only actuator that
// should call MoveOperator while running.
type Controller struct {
	cl  *Cluster
	m   *Monitor
	cfg ControllerConfig
	lm  *query.LoadModel

	ins *obs.ControllerInstruments

	fc map[query.StreamID]*forecaster

	mu            sync.Mutex
	log           []ControllerMove
	lastAction    string
	cooldownUntil time.Time

	start time.Time
	stop  chan struct{}
	done  chan struct{}
}

// StartController attaches the elastic controller to a cluster whose
// monitor was started with a load model and plan (the headroom inputs) and
// starts its decision loop. Close the controller before the monitor.
func (cl *Cluster) StartController(cfg ControllerConfig) (*Controller, error) {
	cfg.applyDefaults()
	m := cl.monitor
	if m == nil {
		return nil, fmt.Errorf("engine: StartController requires StartMonitor first")
	}
	if m.cfg.LM == nil || m.cfg.Plan == nil {
		return nil, fmt.Errorf("engine: StartController requires a monitor with LM and Plan (headroom inputs)")
	}
	c := &Controller{
		cl:    cl,
		m:     m,
		cfg:   cfg,
		lm:    m.cfg.LM,
		ins:   m.core.Controller(),
		fc:    map[query.StreamID]*forecaster{},
		start: time.Now(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	for _, in := range m.Snapshot().Inputs {
		c.fc[in] = newForecaster(cfg.Alpha, cfg.Beta, cfg.Gamma, cfg.SeasonPeriod)
	}

	go c.run()
	return c, nil
}

// Close stops the decision loop and waits for it to exit.
func (c *Controller) Close() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}

// Stats summarizes the controller's activity so far.
func (c *Controller) Stats() ControllerStats {
	c.mu.Lock()
	last := c.lastAction
	c.mu.Unlock()
	return ControllerStats{
		Decisions:        c.ins.Decisions.Value(),
		Moves:            c.ins.Moves.Value(),
		MoveFailures:     c.ins.MoveFailures.Value(),
		Scales:           c.ins.Scales.Value(),
		ForecastHeadroom: c.ins.ForecastHeadroom.Value(),
		LastAction:       last,
	}
}

// Moves returns the executed-migration log (successes and aborts) in
// decision order.
func (c *Controller) Moves() []ControllerMove {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ControllerMove(nil), c.log...)
}

func (c *Controller) run() {
	defer close(c.done)
	tick := time.NewTicker(c.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-tick.C:
			c.decide(now)
		}
	}
}

// decide runs one decision cycle: observe, forecast, evaluate, and — when
// the guard rails allow — re-place and migrate.
func (c *Controller) decide(now time.Time) {
	ev := c.m.cfg.Events
	c.ins.Decisions.Inc()
	snap := c.m.Snapshot()

	// Feed this cycle's smoothed rates into the per-stream forecasters and
	// project the rate point Horizon ahead.
	h := int((c.cfg.Horizon + c.cfg.Interval - 1) / c.cfg.Interval)
	warm := true
	fRates := mat.NewVec(len(snap.Inputs))
	for k, in := range snap.Inputs {
		f := c.fc[in]
		if f == nil {
			f = newForecaster(c.cfg.Alpha, c.cfg.Beta, c.cfg.Gamma, c.cfg.SeasonPeriod)
			c.fc[in] = f
		}
		f.Observe(snap.Rates[k])
		if f.seen < c.cfg.Warmup {
			warm = false
		}
		fRates[k] = f.Forecast(h)
	}

	opLoads, fRates, err := c.resolveClamped(fRates, snap)
	if err != nil {
		ev.Emit(obs.LevelWarn, obs.EventControlError, "op", "controller_resolve", "err", err.Error())
		return
	}
	loads := obs.NodeLoads(make([]float64, len(snap.Caps)), opLoads, snap.NodeOf)
	minHead, hotNode := obs.MinHeadroom(loads, snap.Caps, snap.Stale)
	c.ins.ForecastHeadroom.Set(minHead)

	overloaded := false
	for i, ov := range snap.Overloaded {
		if ov && !snap.Stale[i] {
			overloaded = true
			break
		}
	}

	hold := func(reason string) {
		c.setAction("hold:" + reason)
		ev.Emit(obs.LevelInfo, obs.EventControllerDecide,
			"action", "hold", "reason", reason,
			"forecast_headroom", minHead, "hot_node", hotNode)
	}

	c.mu.Lock()
	cooling := now.Before(c.cooldownUntil)
	c.mu.Unlock()

	// Shard scale actuator first: it acts on observed per-slot skew, which
	// the model headroom cannot see (the load model assumes each replica
	// carries a uniform 1/k of the keyed stream). Shares the cooldown and
	// actuates at most one stream per cycle.
	if !cooling && c.maybeRebalance(snap) {
		c.mu.Lock()
		c.cooldownUntil = now.Add(c.cfg.Cooldown)
		c.mu.Unlock()
		return
	}

	if minHead >= c.cfg.HeadroomLow && !overloaded {
		hold("headroom_ok")
		return
	}
	if !warm {
		hold("warmup")
		return
	}
	if cooling {
		hold("cooldown")
		return
	}

	// Re-place against the forecast rate point. Stale nodes keep their
	// pinned operators and a vanishing capacity so the placer routes load
	// away from them.
	caps := append(mat.Vec(nil), snap.Caps...)
	pinned := map[int]int{}
	for i, st := range snap.Stale {
		if st {
			caps[i] = 1e-6
			for op, node := range snap.NodeOf {
				if node == i {
					pinned[op] = i
				}
			}
		}
	}
	cand, _, err := core.PlaceBest(c.lm.Coef, caps, core.Config{
		Graph:      c.lm.G,
		LowerBound: fRates,
		Seed:       c.cfg.Seed,
		Pinned:     pinned,
	}, c.cfg.Samples)
	if err != nil {
		ev.Emit(obs.LevelWarn, obs.EventControlError, "op", "controller_place", "err", err.Error())
		hold("place_error")
		return
	}

	moves := planMoves(snap.NodeOf, cand.NodeOf, opLoads, snap.Stale, c.cfg.MaxMoves)
	if len(moves) == 0 {
		hold("no_admissible_moves")
		return
	}

	// Hysteresis: the budgeted subset must actually buy headroom at the
	// forecast point.
	next := append([]int(nil), snap.NodeOf...)
	for _, mv := range moves {
		next[mv.Op] = mv.To
	}
	newHead, _ := obs.MinHeadroom(obs.NodeLoads(make([]float64, len(snap.Caps)), opLoads, next), snap.Caps, snap.Stale)
	if newHead < minHead+c.cfg.HysteresisGain {
		hold("insufficient_gain")
		return
	}

	c.setAction(fmt.Sprintf("migrate:%d", len(moves)))
	ev.Emit(obs.LevelInfo, obs.EventControllerDecide,
		"action", "migrate", "moves", len(moves),
		"forecast_headroom", minHead, "projected_headroom", newHead,
		"hot_node", hotNode)
	c.execute(moves, snap)

	c.mu.Lock()
	c.cooldownUntil = now.Add(c.cfg.Cooldown)
	c.mu.Unlock()
}

// execute runs the budgeted move set against the live cluster, recording
// each outcome in the migration log.
func (c *Controller) execute(moves []ctrlMove, snap MonitorSnapshot) {
	ev := c.m.cfg.Events
	plan := &placement.Plan{NodeOf: append([]int(nil), snap.NodeOf...), N: len(snap.Caps)}
	for _, mv := range moves {
		from := plan.NodeOf[mv.Op]
		err := c.cl.MoveOperator(c.lm.G, plan, query.OpID(mv.Op), mv.To, c.cfg.Stall)
		rec := ControllerMove{
			T:    time.Since(c.start).Seconds(),
			Op:   mv.Op,
			From: from,
			To:   mv.To,
			OK:   err == nil,
		}
		if err == nil {
			c.ins.Moves.Inc()
			ev.Emit(obs.LevelInfo, obs.EventControllerMigrate,
				"op", mv.Op, "from", from, "to", mv.To, "ok", true)
		} else {
			rec.Err = err.Error()
			c.ins.MoveFailures.Inc()
			ev.Emit(obs.LevelWarn, obs.EventControllerMigrate,
				"op", mv.Op, "from", from, "to", mv.To, "ok", false, "err", err.Error())
		}
		c.mu.Lock()
		c.log = append(c.log, rec)
		c.mu.Unlock()
	}
}

func (c *Controller) setAction(a string) {
	c.mu.Lock()
	c.lastAction = a
	c.mu.Unlock()
}

// maybeRebalance runs the shard scale actuator over the observed per-slot
// rates: for the first keyed stream (ascending id) whose reassignment cuts
// the maximum per-shard load share by at least RebalanceGain, it pushes
// the new slot table via Repartition. Returns whether it actuated (success
// or failure — either way the caller applies the cooldown).
func (c *Controller) maybeRebalance(snap MonitorSnapshot) bool {
	if c.cfg.ShardRebalance == nil || len(snap.SlotRates) == 0 {
		return false
	}
	ev := c.m.cfg.Events
	sids := make([]int, 0, len(snap.SlotRates))
	for sid := range snap.SlotRates {
		sids = append(sids, sid)
	}
	sort.Ints(sids)
	for _, sid := range sids {
		k := c.cl.ShardK(query.StreamID(sid))
		if k < 2 {
			continue
		}
		rates := snap.SlotRates[sid]
		total := 0.0
		for _, r := range rates {
			total += r
		}
		if total < c.cfg.RebalanceMinRate {
			continue
		}
		cur := c.cl.ShardSlotsOf(query.StreamID(sid))
		if len(cur) != len(rates) {
			continue
		}
		next := c.cfg.ShardRebalance(rates, k)
		if len(next) != len(rates) {
			continue
		}
		curMax := maxShardShare(cur, rates, k)
		nextMax := maxShardShare(next, rates, k)
		// Hysteresis: the reassignment must cut the hottest shard's share
		// by the configured relative gain, or the actuator holds.
		if curMax <= 0 || nextMax >= curMax*(1-c.cfg.RebalanceGain) {
			continue
		}
		same := true
		for i := range cur {
			if cur[i] != next[i] {
				same = false
				break
			}
		}
		if same {
			continue
		}
		err := c.cl.Repartition(query.StreamID(sid), next)
		c.setAction(fmt.Sprintf("scale:%d", sid))
		if err == nil {
			c.ins.Scales.Inc()
			ev.Emit(obs.LevelInfo, obs.EventControllerScale,
				"stream", sid, "k", k, "ok", true,
				"max_share_before", curMax/total, "max_share_after", nextMax/total)
		} else {
			c.ins.MoveFailures.Inc()
			ev.Emit(obs.LevelWarn, obs.EventControllerScale,
				"stream", sid, "k", k, "ok", false, "err", err.Error())
		}
		return true
	}
	return false
}

// maxShardShare is the largest per-shard rate sum under the assignment.
func maxShardShare(assign []int, rates []float64, k int) float64 {
	loads := make([]float64, k)
	for i, s := range assign {
		if s >= 0 && s < k && i < len(rates) {
			loads[s] += rates[i]
		}
	}
	max := 0.0
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	return max
}

// resolveClamped resolves per-operator loads at the forecast rate point,
// scaling the rates down if the total load exceeds LoadCeiling × the live
// (non-stale) capacity sum — an infeasible lower bound would distort the
// re-placement rather than inform it.
func (c *Controller) resolveClamped(fRates mat.Vec, snap MonitorSnapshot) ([]float64, mat.Vec, error) {
	x, err := c.lm.ResolveVars(fRates)
	if err != nil {
		return nil, nil, err
	}
	opLoads := c.lm.Loads(x)
	total := 0.0
	for _, l := range opLoads {
		total += l
	}
	capSum := 0.0
	for i, cp := range snap.Caps {
		if i < len(snap.Stale) && snap.Stale[i] {
			continue
		}
		capSum += cp
	}
	if ceil := c.cfg.LoadCeiling * capSum; total > ceil && total > 0 {
		scale := ceil / total
		scaled := append(mat.Vec(nil), fRates...)
		for k := range scaled {
			scaled[k] *= scale
		}
		x, err = c.lm.ResolveVars(scaled)
		if err != nil {
			return nil, nil, err
		}
		return c.lm.Loads(x), scaled, nil
	}
	return opLoads, fRates, nil
}

// ctrlMove is one (operator, destination) migration the controller plans.
type ctrlMove struct {
	Op   int
	To   int
	Load float64
}

// planMoves diffs the candidate plan against the current placement and
// returns the moves whose endpoints are both live, highest forecast load
// first, capped at maxMoves.
func planMoves(cur, cand []int, opLoads []float64, stale []bool, maxMoves int) []ctrlMove {
	var diff []ctrlMove
	for op := range cur {
		if cand[op] == cur[op] {
			continue
		}
		load := 0.0
		if op < len(opLoads) {
			load = opLoads[op]
		}
		diff = append(diff, ctrlMove{Op: op, To: cand[op], Load: load})
	}
	// Highest-load operators first: moving them buys the most headroom per
	// migration, and the budget truncates the tail. Stable insertion sort —
	// the diff is small and ties keep operator order deterministic.
	for i := 1; i < len(diff); i++ {
		for j := i; j > 0 && diff[j].Load > diff[j-1].Load; j-- {
			diff[j], diff[j-1] = diff[j-1], diff[j]
		}
	}
	var moves []ctrlMove
	for _, mv := range diff {
		if len(moves) >= maxMoves {
			break
		}
		if src := cur[mv.Op]; src < len(stale) && stale[src] {
			continue // source control plane unreachable
		}
		if mv.To < len(stale) && stale[mv.To] {
			continue
		}
		moves = append(moves, mv)
	}
	return moves
}
