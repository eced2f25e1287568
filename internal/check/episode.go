package check

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"rodsp/internal/engine"
	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
)

// EpisodeResult reports one executed scenario. Violation carries the first
// invariant failure (nil = the episode passed); infrastructure errors —
// a cluster that would not start, a driver that could not dial — surface
// through RunEpisode's error instead.
type EpisodeResult struct {
	Scenario   *Scenario
	Ledger     Ledger
	Sources    int64
	SrcDropped int64
	Delivered  int64
	Migrations int
	Violation  error

	// End-to-end sink latency quantiles (milliseconds) from the collector's
	// reservoir at episode end; zero when nothing reached the sink. Feeds
	// rodcheck's SLO grading.
	P50Ms float64
	P99Ms float64

	// Recover-class fields (see RunRecoverEpisode): duplicate deliveries the
	// sink dedup filter dropped (must be 0), the victim's restart latency in
	// milliseconds (rebind + WAL replay), and the WAL root — cleaned up on
	// success, retained on failure so the failing log can be inspected.
	Duplicates    int64
	RecoverMillis float64
	WALDir        string
}

// RunEpisode drives one scenario through a loopback engine cluster:
// deploy, start sources, apply the chaos schedule, heal, reach quiescence,
// snapshot, and assert the class's invariants. ev (optional) receives the
// cluster's control-plane events plus an invariant_violation event on
// failure.
func RunEpisode(sc *Scenario, ev *obs.EventLog) (*EpisodeResult, error) {
	res := &EpisodeResult{Scenario: sc}
	plan, err := placement.NewPlan(append([]int(nil), sc.Plan.NodeOf...), sc.Nodes)
	if err != nil {
		return nil, err
	}

	cl, err := engine.StartClusterConfig(sc.Caps, sc.Config)
	if err != nil {
		return nil, fmt.Errorf("check: starting cluster: %w", err)
	}
	defer cl.Close()
	if ev != nil {
		cl.SetEvents(ev)
	}
	if err := cl.Deploy(sc.Graph, plan, sc.Caps); err != nil {
		return nil, err
	}
	if err := cl.Start(); err != nil {
		return nil, err
	}

	addrs := cl.Addrs()
	inputNodes := engine.InputNodes(sc.Graph, plan)

	// Sources: one driver per input stream, snapshot of consumer addresses
	// taken now (migrations leave relays behind, so these stay valid).
	type srcOut struct {
		injected int64
		dropped  int64
		err      error
	}
	inputs := sc.Graph.Inputs()
	outs := make([]srcOut, len(inputs))
	var wg sync.WaitGroup
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
		}
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			n, err := drv.Run(sc.Wall, nil)
			outs[slot] = srcOut{injected: n, dropped: drv.Dropped, err: err}
		}(i)
	}

	// Chaos schedule, applied on the episode's own clock. Un-healed link
	// faults are tracked for the heal-all pass; control errors against a
	// node killed earlier in the schedule are expected and skipped.
	start := time.Now()
	faulted := map[[2]int]bool{}
	killed := -1
	var applyErr error
	for _, op := range sc.Schedule {
		if d := op.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		switch op.Kind {
		case FaultSever, FaultDrop, FaultDelay:
			if op.Node == killed {
				continue
			}
			spec := engine.FaultSpec{Addr: addrs[op.Peer]}
			switch op.Kind {
			case FaultSever:
				spec.Sever = true
			case FaultDrop:
				spec.Drop = true
			case FaultDelay:
				spec.DelayMs = float64(op.Delay) / float64(time.Millisecond)
			}
			if err := cl.Controls[op.Node].Fault(spec); err != nil && applyErr == nil {
				applyErr = fmt.Errorf("check: fault %s on node %d: %w", op.Kind, op.Node, err)
			}
			faulted[[2]int{op.Node, op.Peer}] = true
		case FaultHeal:
			if op.Node == killed {
				continue
			}
			if err := cl.Controls[op.Node].Fault(engine.FaultSpec{Addr: addrs[op.Peer], Clear: true}); err != nil && applyErr == nil {
				applyErr = fmt.Errorf("check: heal on node %d: %w", op.Node, err)
			}
			delete(faulted, [2]int{op.Node, op.Peer})
		case FaultMigrate:
			if err := cl.MoveOperator(sc.Graph, plan, query.OpID(op.Op), op.To, op.Stall); err != nil {
				if applyErr == nil {
					applyErr = fmt.Errorf("check: migrating op %d to node %d: %w", op.Op, op.To, err)
				}
			} else {
				res.Migrations++
			}
		case FaultKill:
			if err := cl.Controls[op.Node].Fault(engine.FaultSpec{Kill: true}); err != nil && applyErr == nil {
				applyErr = fmt.Errorf("check: killing node %d: %w", op.Node, err)
			}
			killed = op.Node
		}
	}

	wg.Wait()
	for i := range outs {
		res.Sources += outs[i].injected
		res.SrcDropped += outs[i].dropped
		if outs[i].err != nil && (sc.Class == Strict || sc.Class == CorrSpike) {
			return nil, fmt.Errorf("check: source %d: %w", i, outs[i].err)
		}
	}
	if applyErr != nil && (sc.Class == Strict || sc.Class == CorrSpike) {
		return nil, applyErr
	}

	// Heal every remaining link fault so the cluster can drain.
	for key := range faulted {
		if key[0] == killed {
			continue
		}
		cl.Controls[key[0]].Fault(engine.FaultSpec{Addr: addrs[key[1]], Clear: true}) //nolint:errcheck
	}

	// Quiescence: strict episodes must fully drain; kill episodes only
	// settle (survivors' outboxes toward the dead peer never flush).
	quiesce := cl.AwaitQuiescence
	if sc.Class == KillNode {
		quiesce = cl.AwaitSettled
	}
	if err := quiesce(15*time.Second, 100*time.Millisecond); err != nil {
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
	// CHECKDEBUG=1 dumps the raw per-node snapshots for failing-seed triage.
	if os.Getenv("CHECKDEBUG") != "" {
		for i, s := range stats {
			fmt.Fprintf(os.Stderr, "check: node %d: %+v\n", i, s)
		}
	}

	// Invariants common to both classes: the outbox identity on every
	// reachable node.
	if err := CheckOutboxes(stats); err != nil {
		res.Violation = violation(ev, sc, err)
		return res, nil
	}

	switch sc.Class {
	case Strict, CorrSpike:
		for i, s := range stats {
			if s == nil {
				res.Violation = violation(ev, sc, fmt.Errorf("check: node %d unreachable in a %s episode", i, sc.Class))
				return res, nil
			}
		}
		if err := res.Ledger.Check(sc.Slack()); err != nil {
			res.Violation = violation(ev, sc, err)
			return res, nil
		}
		if res.Delivered == 0 {
			res.Violation = violation(ev, sc, fmt.Errorf("check: no tuple reached the sink (sources=%d)", res.Sources))
			return res, nil
		}
		if res.Migrations > 0 {
			if err := checkCoefSums(sc.Graph, plan); err != nil {
				res.Violation = violation(ev, sc, err)
				return res, nil
			}
		}
	case KillNode:
		reachable := 0
		for _, s := range stats {
			if s != nil {
				reachable++
			}
		}
		if reachable == 0 {
			res.Violation = violation(ev, sc, fmt.Errorf("check: every node unreachable after killing one"))
			return res, nil
		}
	}
	return res, nil
}

// violation records the failure as an invariant_violation event and passes
// the error through.
func violation(ev *obs.EventLog, sc *Scenario, err error) error {
	if ev != nil {
		ev.Emit(obs.LevelWarn, obs.EventInvariantViolation,
			"seed", sc.Seed, "class", sc.Class.String(), "err", err.Error())
	}
	return err
}

// checkCoefSums asserts the migration-invariance of the load model: the
// per-node aggregation of operator coefficient rows under the (mutated)
// plan must still column-sum to the model's totals — migrations move load
// between nodes but never create or destroy it.
func checkCoefSums(g *query.Graph, plan *placement.Plan) error {
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		return fmt.Errorf("check: load model: %w", err)
	}
	d := lm.D()
	nodes := 0
	for _, n := range plan.NodeOf {
		if n < 0 {
			return fmt.Errorf("check: operator unassigned after migration")
		}
		if n+1 > nodes {
			nodes = n + 1
		}
	}
	agg := make([]float64, nodes*d)
	for op := 0; op < lm.Coef.Rows; op++ {
		row := lm.Coef.Row(op)
		base := plan.NodeOf[op] * d
		for j := 0; j < d; j++ {
			agg[base+j] += row[j]
		}
	}
	want := lm.CoefSums()
	for j := 0; j < d; j++ {
		var got float64
		for n := 0; n < nodes; n++ {
			got += agg[n*d+j]
		}
		if math.Abs(got-want[j]) > 1e-9 {
			return fmt.Errorf("check: coefficient sum for var %d changed under migration: %g vs %g", j, got, want[j])
		}
	}
	return nil
}
