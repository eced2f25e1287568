package engine

import (
	"fmt"
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
//     minimum headroom by at least ctrlHysteresisGain, or the controller
//     holds.
//
// An aborted migration (MoveOperator rolled the destination back) counts as
// actuation failure: the failure counter increments and controller_migrate
// is emitted with ok=false.

// Controller constants: the forecaster's smoothing (level, trend, seasonal;
// see forecast.go), the samples a stream's forecaster must see before the
// controller may act, the fraction of live capacity the forecast rate
// point's load is clamped to before it becomes placement's lower bound (an
// infeasible floor would distort every Class II decision), the minimum
// forecast-headroom improvement a budgeted move set must deliver, and the
// QMC samples behind PlaceBest's feasible-set estimate.
const (
	ctrlAlpha, ctrlBeta, ctrlGamma = 0.5, 0.3, 0.2
	ctrlWarmup                     = 3
	ctrlLoadCeiling                = 0.9
	ctrlHysteresisGain             = 0.02
	ctrlSamples                    = 400
)

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
	// Stall is the state-transfer pause charged per migration. Default 0.
	Stall time.Duration
	// Seed drives the ROD re-placement.
	Seed int64
	// SeasonPeriod is the forecaster's seasonal cycle length in decision
	// ticks (0 disables the seasonal term).
	SeasonPeriod int
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
	ForecastHeadroom float64
	LastAction       string // "hold:<reason>" or "migrate:<n>"
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
		c.fc[in] = newForecaster(ctrlAlpha, ctrlBeta, ctrlGamma, cfg.SeasonPeriod)
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
			f = newForecaster(ctrlAlpha, ctrlBeta, ctrlGamma, c.cfg.SeasonPeriod)
			c.fc[in] = f
		}
		f.Observe(snap.Rates[k])
		if f.seen < ctrlWarmup {
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
	}, ctrlSamples)
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
	if newHead < minHead+ctrlHysteresisGain {
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

// resolveClamped resolves per-operator loads at the forecast rate point,
// scaling the rates down if the total load exceeds ctrlLoadCeiling × the live
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
	if ceil := ctrlLoadCeiling * capSum; total > ceil && total > 0 {
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
