package check

import (
	"fmt"
	"math"
	"time"

	"rodsp/internal/engine"
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

// Controller scenarios smooth source rates with this EWMA factor (the
// default is obs.DefaultRateAlpha), and their controller charges each
// migration this state-transfer stall — which lockstep replays into the
// simulator.
const (
	controllerRateAlpha = 0.6
	controllerStall     = 10 * time.Millisecond
)

// rateAlphaFor is the source-rate EWMA factor of a class's scenarios, the
// one value both the engine monitor and the lockstep simulator run with.
func rateAlphaFor(c Class) float64 {
	if c == Controller {
		return controllerRateAlpha
	}
	return obs.DefaultRateAlpha
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
		Stall:          controllerStall,
		Seed:           seed,
		SeasonPeriod:   20,
	}
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
	if pr.On, err = episode(sc, onEv, controlled); err != nil {
		return nil, err
	}
	offEv := obs.NewEventLog(8192)
	if pr.Off, err = episode(sc, offEv, monitored); err != nil {
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
