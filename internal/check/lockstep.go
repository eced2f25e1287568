package check

import (
	"fmt"
	"math"
	"strconv"

	"rodsp/internal/obs"
	"rodsp/internal/query"
	"rodsp/internal/sim"
	"rodsp/internal/trace"
)

// Tolerances are the lockstep gates: how far the engine may diverge from
// the simulator on the same seeded scenario before the cross-validation
// fails. Zero fields take the defaults (chosen loose enough for a loaded
// CI machine, tight enough to catch systematic modeling errors).
type Tolerances struct {
	UtilAbs      float64 // per-node mean utilization |sim − engine| (default 0.20)
	HeadroomAbs  float64 // per-node mean feasibility headroom |sim − engine| (default 0.25)
	DeliveredRel float64 // relative delivered-count gap (default 0.15)
	ShedMax      int64   // tuples the engine may shed at feasible load (default 0)
}

func (t *Tolerances) defaults() {
	if t.UtilAbs <= 0 {
		t.UtilAbs = 0.20
	}
	if t.HeadroomAbs <= 0 {
		t.HeadroomAbs = 0.25
	}
	if t.DeliveredRel <= 0 {
		t.DeliveredRel = 0.15
	}
}

// LockstepConfig drives one sim↔engine cross-validation: the same seeded
// graph, placement, traces and migration schedule run through the
// discrete-event simulator (virtual time) and a loopback engine cluster
// (wall time), and the per-series summaries are gated by Tol.
type LockstepConfig struct {
	Seed  int64
	Nodes int
	Tol   Tolerances
}

// LockstepResult carries both runs' summaries for reporting.
type LockstepResult struct {
	Scenario *Scenario
	// Moves are the migrations the engine run executed — scheduled, or
	// decided by its controller — replayed verbatim in the simulator.
	Moves        []sim.ScheduledMove
	SimUtil      []float64 // per-node mean utilization
	EngUtil      []float64
	SimHeadroom  []float64 // per-node mean feasibility headroom
	EngHeadroom  []float64
	SimDelivered int64
	EngDelivered int64
	EngShed      int64
	Violation    error
}

// ControllerLockstepResult is the closed-loop cross-validation's report.
type ControllerLockstepResult = LockstepResult

// RunLockstep executes the cross-validation. Scenarios are generated with
// the shed exercise disabled and only the migration portion of the chaos
// schedule applied — link faults have no simulator counterpart, while
// migrations map exactly onto sim.Config.Moves (engine wall seconds =
// simulator virtual seconds).
func RunLockstep(cfg LockstepConfig) (*LockstepResult, error) {
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	sc, err := generate(cfg.Seed, cfg.Nodes, Strict, false)
	if err != nil {
		return nil, err
	}
	var moves []FaultOp
	for _, op := range sc.Schedule {
		if op.Kind == FaultMigrate {
			moves = append(moves, op)
		}
	}
	sc.Schedule, sc.Severs = moves, 0
	return lockstep(sc, monitored, cfg.Tol)
}

// RunControllerLockstep cross-validates the closed loop itself: the seeded
// controller scenario runs live on the engine with the elastic controller
// deciding, then the migrations it actually executed are replayed into the
// discrete-event simulator as a scheduled-move script with the simulator's
// controller schema mirror enabled. Both runtimes must emit the identical
// obs metric schema — including the five controller instruments — and
// agree on per-node utilization, feasibility headroom, and delivery within
// tolerances. A systematic gap here means the controller's view of the
// cluster (the monitor it steers by) has drifted from the model the
// placement math assumes.
func RunControllerLockstep(seed int64, tol Tolerances) (*ControllerLockstepResult, error) {
	sc, err := GenerateController(seed)
	if err != nil {
		return nil, err
	}
	return lockstep(sc, controlled, tol)
}

// lockstep runs sc on the engine under loop l, gated like any episode,
// replays the migrations that run executed in the simulator, and compares
// the two under tol.
func lockstep(sc *Scenario, l loop, tol Tolerances) (*LockstepResult, error) {
	tol.defaults()
	res := &LockstepResult{Scenario: sc}
	eng, err := episode(sc, nil, l)
	if err != nil {
		return nil, fmt.Errorf("check: lockstep engine: %w", err)
	}
	if eng.Violation != nil {
		res.Violation = eng.Violation
		return res, nil
	}
	for _, op := range sc.Schedule {
		if op.Kind == FaultMigrate {
			res.Moves = append(res.Moves, sim.ScheduledMove{Time: op.At.Seconds(), Op: op.Op, To: op.To, Stall: op.Stall.Seconds()})
		}
	}
	for _, mv := range eng.moves {
		res.Moves = append(res.Moves, sim.ScheduledMove{Time: mv.T, Op: mv.Op, To: mv.To, Stall: controllerStall.Seconds()})
	}
	sources := map[query.StreamID]*trace.Trace{}
	for i, in := range sc.Graph.Inputs() {
		sources[in] = sc.Traces[i]
	}
	simRes, err := sim.Run(sim.Config{
		Graph:          sc.Graph,
		NodeOf:         sc.Plan.NodeOf,
		Capacities:     sc.Caps,
		Sources:        sources,
		Duration:       sc.Wall.Seconds(),
		Seed:           sc.Seed,
		ChargeTransfer: true,
		MaxEvents:      20_000_000,
		Moves:          res.Moves,
		// The controller schema mirror, so both runtimes expose the same
		// instrument set, and the engine monitor's rate smoothing, so the
		// compared headroom series share one EWMA.
		Obs: &sim.ObsConfig{Controller: sc.Class == Controller, RateAlpha: rateAlphaFor(sc.Class)},
	})
	if err != nil {
		return nil, fmt.Errorf("check: lockstep sim: %w", err)
	}
	res.Violation = res.compare(simRes, eng, tol)
	return res, nil
}

// compare fills in both runtimes' figures and gates them: identical series
// schemas, per-node mean utilization and headroom, delivered counts, and
// the engine's shed.
func (res *LockstepResult) compare(simRes *sim.Result, eng *EpisodeResult, tol Tolerances) error {
	if err := obs.SameSchema(simRes.Series, eng.series); err != nil {
		return fmt.Errorf("check: lockstep: sim vs engine: %w", err)
	}
	res.SimDelivered, res.EngDelivered, res.EngShed = simRes.TuplesOut, eng.Delivered, eng.Ledger.Shed
	for i := 0; i < res.Scenario.Nodes; i++ {
		node := strconv.Itoa(i)
		mean := func(set *obs.SeriesSet, metric string) float64 { return set.Series(metric, "node", node).Mean() }
		res.SimUtil = append(res.SimUtil, mean(simRes.Series, obs.MetricNodeUtilization))
		res.EngUtil = append(res.EngUtil, mean(eng.series, obs.MetricNodeUtilization))
		res.SimHeadroom = append(res.SimHeadroom, mean(simRes.Series, obs.MetricNodeHeadroom))
		res.EngHeadroom = append(res.EngHeadroom, mean(eng.series, obs.MetricNodeHeadroom))
	}

	for i := range res.SimUtil {
		if d := math.Abs(res.SimUtil[i] - res.EngUtil[i]); d > tol.UtilAbs {
			return fmt.Errorf("check: lockstep: node %d mean utilization diverged by %.3f (sim %.3f vs engine %.3f, tol %.3f)",
				i, d, res.SimUtil[i], res.EngUtil[i], tol.UtilAbs)
		}
		if d := math.Abs(res.SimHeadroom[i] - res.EngHeadroom[i]); d > tol.HeadroomAbs {
			return fmt.Errorf("check: lockstep: node %d mean headroom diverged by %.3f (sim %.3f vs engine %.3f, tol %.3f)",
				i, d, res.SimHeadroom[i], res.EngHeadroom[i], tol.HeadroomAbs)
		}
	}
	if res.SimDelivered > 0 {
		gap := math.Abs(float64(res.EngDelivered-res.SimDelivered)) / float64(res.SimDelivered)
		if gap > tol.DeliveredRel {
			return fmt.Errorf("check: lockstep: delivered counts diverged by %.1f%% (sim %d vs engine %d, tol %.0f%%)",
				gap*100, res.SimDelivered, res.EngDelivered, tol.DeliveredRel*100)
		}
	}
	if res.EngShed > tol.ShedMax {
		return fmt.Errorf("check: lockstep: engine shed %d tuples (tol %d)", res.EngShed, tol.ShedMax)
	}
	return nil
}
