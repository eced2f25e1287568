package check

import (
	"fmt"
	"math"
	"time"

	"rodsp/internal/engine"
	"rodsp/internal/mat"
	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/trace"
)

// Controller episodes close the paper's loop end to end: a flash-crowd
// ramp on one chain plus a diurnal sine on another, everything initially
// packed onto node 0 of a three-node cluster. With the elastic controller
// enabled the episode must (a) migrate the hot operator autonomously,
// (b) do so *before* any overload onset — the proactive path, driven by
// the trend forecast, not the overload latch — and (c) settle with the
// conservation ledger at residual 0 and zero shed across the autonomous
// migrations. The same episode with the controller disabled must shed or
// overload, or the workload never stressed the cluster and the pass is
// vacuous.

// controllerEpisodeWall is the source drive time of a controller episode.
const controllerEpisodeWall = 3 * time.Second

// GenerateController builds the deterministic controller scenario for one
// seed: the shape is fixed (the assertions depend on it); the seed drives
// the controller's re-placement and trace jitter stays at zero so the
// flash-crowd timing is exact.
func GenerateController(seed int64) (*Scenario, error) {
	s := &Scenario{Seed: seed, Class: Controller, Nodes: 3}

	b := query.NewBuilder()
	in0 := b.Input("flash")
	hot := b.Delay("hot", 0.0004, 1, in0)
	b.Delay("hot_tail", 0.00005, 1, hot)
	in1 := b.Input("wave")
	warm := b.Delay("warm", 0.0009, 1, in1)
	b.Delay("warm_tail", 0.00005, 1, warm)
	g, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("check: controller graph: %w", err)
	}
	s.Graph = g

	// Everything starts on node 0 — feasible at the base rates (≈0.7 load),
	// infeasible once the flash crowd peaks (≈1.5 sustained; the node's
	// virtual CPU banks idle credit from the quiet first second, so the
	// overload must outlast that credit), and each chain fits a node alone,
	// so the controller can restore feasibility by spreading the chains.
	plan, err := placement.NewPlan(make([]int, g.NumOps()), s.Nodes)
	if err != nil {
		return nil, fmt.Errorf("check: controller plan: %w", err)
	}
	s.Plan = plan
	s.Caps = []float64{1, 1, 1}
	s.Wall = controllerEpisodeWall

	// flash: 250/s base, ramping linearly to 2000/s over [1.0s, 1.6s] and
	// holding — the flash crowd (peak chain load 0.9). wave: a 600/s
	// diurnal sine (period 1s, ±50%, peak chain load ≈0.86) that the
	// seasonal forecaster must absorb without tripping on its slopes.
	const dt = 0.05
	bins := int(s.Wall.Seconds()/dt) + 1
	flash := make([]float64, bins)
	wave := make([]float64, bins)
	for i := 0; i < bins; i++ {
		t := float64(i) * dt
		switch {
		case t < 1.0:
			flash[i] = 250
		case t < 1.6:
			flash[i] = 250 + (2000-250)*(t-1.0)/0.6
		default:
			flash[i] = 2000
		}
		wave[i] = 600 * (1 + 0.5*math.Sin(2*math.Pi*t))
	}
	s.Traces = append(s.Traces,
		trace.New("flash", dt, flash), trace.New("wave", dt, wave))

	s.Config = engine.NodeConfig{
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  150 * time.Millisecond,
	}
	return s, nil
}

// controllerConfigFor is the per-episode controller tuning: a 50ms decision
// cadence with a 600ms forecast horizon (12 ticks of lead), so the ramp's
// trend trips re-placement several hundred milliseconds before the load
// point actually leaves the feasible region. SeasonPeriod matches the
// wave's 1s cycle (20 ticks) so the sine feeds the seasonal term instead
// of masquerading as trend.
func controllerConfigFor(seed int64) engine.ControllerConfig {
	return engine.ControllerConfig{
		Interval:       50 * time.Millisecond,
		Horizon:        600 * time.Millisecond,
		Cooldown:       time.Second,
		MaxMoves:       2,
		HeadroomLow:    0.15,
		HysteresisGain: 0.02,
		Samples:        400,
		Stall:          10 * time.Millisecond,
		Seed:           seed,
		SeasonPeriod:   20,
	}
}

// RunControllerEpisode drives the controller scenario once, with the
// elastic controller enabled or disabled, asserting the class's per-arm
// invariants (outbox identities, residual-0 ledger, delivery, coefficient
// conservation across autonomous moves). ev receives the monitor's events;
// the caller inspects it for the cross-arm proactive gate.
func RunControllerEpisode(sc *Scenario, ev *obs.EventLog, enabled bool) (*EpisodeResult, error) {
	if ev == nil {
		ev = obs.NewEventLog(8192)
	}
	res := &EpisodeResult{Scenario: sc}
	plan, err := placement.NewPlan(append([]int(nil), sc.Plan.NodeOf...), sc.Nodes)
	if err != nil {
		return nil, err
	}
	lm, err := query.BuildLoadModel(sc.Graph)
	if err != nil {
		return nil, fmt.Errorf("check: controller load model: %w", err)
	}

	cl, err := engine.StartClusterConfig(sc.Caps, sc.Config)
	if err != nil {
		return nil, fmt.Errorf("check: starting cluster: %w", err)
	}
	defer cl.Close()
	if err := cl.Deploy(sc.Graph, plan, sc.Caps); err != nil {
		return nil, err
	}
	if err := cl.Start(); err != nil {
		return nil, err
	}
	mon := cl.StartMonitor(engine.MonitorConfig{
		Interval:  50 * time.Millisecond,
		Events:    ev,
		LM:        lm,
		Plan:      plan,
		Caps:      mat.Vec(sc.Caps),
		RateAlpha: 0.6,
	})
	defer mon.Close()

	var ctrl *engine.Controller
	if enabled {
		ctrl, err = cl.StartController(controllerConfigFor(sc.Seed))
		if err != nil {
			return nil, fmt.Errorf("check: starting controller: %w", err)
		}
	}

	addrs := cl.Addrs()
	inputNodes := engine.InputNodes(sc.Graph, plan)
	inputs := sc.Graph.Inputs()
	type srcOut struct {
		injected int64
		dropped  int64
		err      error
	}
	outs := make([]srcOut, len(inputs))
	done := make(chan int, len(inputs))
	for i, in := range inputs {
		var dests []string
		for _, n := range inputNodes[in] {
			dests = append(dests, addrs[n])
		}
		drv := &engine.SourceDriver{
			Stream:  in,
			Trace:   sc.Traces[i],
			Addrs:   dests,
			MaxRate: 5000,
			Count:   mon.SourceCounter(in),
		}
		go func(slot int) {
			n, err := drv.Run(sc.Wall, nil)
			outs[slot] = srcOut{injected: n, dropped: drv.Dropped, err: err}
			done <- slot
		}(i)
	}
	for range inputs {
		<-done
	}
	// Stop deciding before the drain: the workload is over, and the final
	// placement must be stable for the conservation checks below.
	if ctrl != nil {
		ctrl.Close()
	}
	for i := range outs {
		res.Sources += outs[i].injected
		res.SrcDropped += outs[i].dropped
		if outs[i].err != nil {
			return nil, fmt.Errorf("check: source %d: %w", i, outs[i].err)
		}
	}

	if err := cl.AwaitQuiescence(15*time.Second, 100*time.Millisecond); err != nil {
		res.Violation = violation(ev, sc, fmt.Errorf("check: liveness: %w", err))
		return res, nil
	}

	stats, _ := cl.Stats()
	delivered, _, _, _, _ := cl.Collector.LatencyStats()
	res.Delivered = delivered
	if s, ok := cl.Collector.LatencySummary(); ok {
		res.P50Ms, res.P99Ms = s.P50*1000, s.P99*1000
	}
	res.Ledger = Assemble(stats, delivered, res.Sources, res.SrcDropped)

	if err := CheckOutboxes(stats); err != nil {
		res.Violation = violation(ev, sc, err)
		return res, nil
	}
	if err := res.Ledger.Check(0); err != nil {
		res.Violation = violation(ev, sc, err)
		return res, nil
	}
	if res.Delivered == 0 {
		res.Violation = violation(ev, sc, fmt.Errorf("check: no tuple reached the sink (sources=%d)", res.Sources))
		return res, nil
	}
	if ctrl != nil {
		for _, mv := range ctrl.Moves() {
			if mv.OK {
				plan.NodeOf[mv.Op] = mv.To
				res.Migrations++
			}
		}
		if res.Migrations > 0 {
			if err := checkCoefSums(sc.Graph, plan); err != nil {
				res.Violation = violation(ev, sc, err)
				return res, nil
			}
		}
	}
	return res, nil
}

// ControllerPairResult reports the two arms of one controller episode and
// the cross-arm proactive/baseline gate.
type ControllerPairResult struct {
	Scenario *Scenario
	On, Off  *EpisodeResult

	// FirstMoveT is the first successful autonomous migration's event time
	// (seconds); FirstOnsetT the controller arm's first overload onset
	// (0 when the controller kept the cluster out of overload entirely).
	FirstMoveT  float64
	FirstOnsetT float64

	Violation error
}

// RunControllerPair runs the seeded controller episode twice — controller
// on, controller off — and asserts the closed-loop acceptance gate:
//
//   - on-arm: ≥1 autonomous migration, residual-0 ledger, zero shed, and
//     every migration strictly precedes any overload onset (proactive);
//   - off-arm: sheds or overloads, proving the workload genuinely exceeds
//     the static placement (otherwise the on-arm pass is vacuous).
//
// ev (optional) receives an invariant_violation event on failure.
func RunControllerPair(seed int64, ev *obs.EventLog) (*ControllerPairResult, error) {
	sc, err := GenerateController(seed)
	if err != nil {
		return nil, err
	}
	pr := &ControllerPairResult{Scenario: sc}

	onEv := obs.NewEventLog(8192)
	pr.On, err = RunControllerEpisode(sc, onEv, true)
	if err != nil {
		return nil, err
	}
	offEv := obs.NewEventLog(8192)
	pr.Off, err = RunControllerEpisode(sc, offEv, false)
	if err != nil {
		return nil, err
	}

	for _, e := range onEv.Events() {
		switch e.Type {
		case obs.EventControllerMigrate:
			if ok, _ := e.Fields["ok"].(bool); ok && pr.FirstMoveT == 0 {
				pr.FirstMoveT = e.T
			}
		case obs.EventOverloadOnset:
			if pr.FirstOnsetT == 0 {
				pr.FirstOnsetT = e.T
			}
		}
	}

	fail := func(err error) (*ControllerPairResult, error) {
		pr.Violation = violation(ev, sc, err)
		return pr, nil
	}
	if pr.On.Violation != nil {
		return fail(fmt.Errorf("check: controller arm: %w", pr.On.Violation))
	}
	if pr.Off.Violation != nil {
		return fail(fmt.Errorf("check: baseline arm: %w", pr.Off.Violation))
	}
	if pr.On.Migrations == 0 {
		return fail(fmt.Errorf("check: controller never migrated under the flash crowd"))
	}
	if pr.On.Ledger.Shed != 0 {
		return fail(fmt.Errorf("check: controller arm shed %d tuples — migration came too late", pr.On.Ledger.Shed))
	}
	if pr.FirstOnsetT > 0 && pr.FirstOnsetT <= pr.FirstMoveT {
		return fail(fmt.Errorf("check: reactive, not proactive: first onset %.3fs ≤ first migration %.3fs",
			pr.FirstOnsetT, pr.FirstMoveT))
	}
	offOnsets := offEv.Count(obs.EventOverloadOnset)
	if pr.Off.Ledger.Shed == 0 && offOnsets == 0 {
		return fail(fmt.Errorf("check: baseline neither shed nor overloaded — workload too weak to prove anything"))
	}
	return pr, nil
}
