package check

import (
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"rodsp/internal/engine"
	"rodsp/internal/mat"
	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
)

// EpisodeResult reports one executed scenario: the snapshot its run took at
// quiescence and the verdict of its class's gate. Violation carries the
// first invariant failure (nil = the run passed); infrastructure errors — a
// cluster that would not start, a driver that could not dial — surface
// through the entry point's error instead.
type EpisodeResult struct {
	Scenario   *Scenario
	Ledger     Ledger
	Sources    int64
	SrcDropped int64
	Delivered  int64
	Migrations int // successful scheduled and controller migrations
	Violation  error

	// End-to-end sink latency quantiles (milliseconds) from the collector's
	// reservoir at episode end; zero when nothing reached the sink. Feeds
	// rodcheck's SLO grading.
	P50Ms float64
	P99Ms float64

	// Durable runs: duplicate deliveries the sink dedup filter dropped (must
	// be 0), the scheduled restart's latency in milliseconds (rebind + WAL
	// replay), and the WAL root — removed when the run passes, kept when it
	// fails so the failing log can be inspected.
	Duplicates    int64
	RecoverMillis float64
	WALDir        string

	// Stats is the per-node snapshot the gate judged (nil for a node that
	// did not answer); rodcheck writes a failing run's into -fail-out.
	Stats []*engine.NodeStats

	series *obs.SeriesSet          // the monitor's samples (monitored runs)
	moves  []engine.ControllerMove // the controller's successful migrations
	plan   *placement.Plan         // the placement after every migration
}

// loop says what watches and steers a run beside its sources and schedule.
type loop int

const (
	open       loop = iota // sources and schedule only
	monitored              // a monitor samples the series lockstep compares
	controlled             // the monitor also feeds the elastic controller
)

// livenessTimeout bounds the wait for quiescence; only a failing run
// reaches it.
const livenessTimeout = 20 * time.Second

// episode runs sc and gates it. A failure is recorded as an
// invariant_violation event on ev (optional); a durable run's WAL root is
// removed when it passes, and kept with its path in the error when it fails.
func episode(sc *Scenario, ev *obs.EventLog, l loop) (*EpisodeResult, error) {
	res, err := run(sc, ev, l)
	if err != nil {
		return nil, err
	}
	if res.Violation == nil {
		res.Violation = gate(sc, res)
	}
	if res.Violation != nil {
		if res.WALDir != "" {
			res.Violation = fmt.Errorf("%w (wal dir kept: %s)", res.Violation, res.WALDir)
		}
		res.Violation = violation(ev, sc, res.Violation)
	} else if res.WALDir != "" {
		os.RemoveAll(res.WALDir)
		res.WALDir = ""
	}
	return res, nil
}

// RunEpisode drives one scenario through a loopback engine cluster and
// asserts its class's invariants (see gate). ev (optional) receives the
// cluster's control-plane events plus an invariant_violation event on
// failure.
func RunEpisode(sc *Scenario, ev *obs.EventLog) (*EpisodeResult, error) {
	return episode(sc, ev, open)
}

// RunRecoverEpisode is RunEpisode for a GenerateRecover scenario: a
// durable cluster whose interior victim is killed and restarted from its
// WAL mid-stream, gated on residual 0 with zero slack, zero shed and zero
// duplicate sink deliveries across the crash.
func RunRecoverEpisode(sc *Scenario, ev *obs.EventLog) (*EpisodeResult, error) {
	return episode(sc, ev, open)
}

// run executes one scenario on a fresh loopback cluster, in this order:
// copy the plan; start the cluster, with a WAL root and sink dedup when
// durable; set the events; deploy, install the slot tables and start;
// start the monitor and controller the loop asks for; drive the sources;
// apply the schedule; stop the controller; wait for quiescence (settling
// only, after a kill); and snapshot. A run that never quiesces is reported
// as its result's Violation, every other failure as an error.
func run(sc *Scenario, ev *obs.EventLog, l loop) (res *EpisodeResult, err error) {
	res = &EpisodeResult{Scenario: sc}
	if res.plan, err = placement.NewPlan(append([]int(nil), sc.Plan.NodeOf...), sc.Nodes); err != nil {
		return nil, err
	}

	cfg := sc.Config
	if sc.durable() {
		if cfg.WALDir, err = os.MkdirTemp("", "rodcheck-wal-"); err != nil {
			return nil, fmt.Errorf("check: wal temp root: %w", err)
		}
		res.WALDir = cfg.WALDir
		defer func() {
			if err != nil {
				os.RemoveAll(cfg.WALDir)
			}
		}()
	}
	cl, err := engine.StartClusterConfig(sc.Caps, cfg)
	if err != nil {
		return nil, fmt.Errorf("check: starting cluster: %w", err)
	}
	defer cl.Close()
	cl.Collector.SetDedup(sc.durable())
	if ev != nil {
		cl.SetEvents(ev)
	}

	if err := cl.Deploy(sc.Graph, res.plan, sc.Caps); err != nil {
		return nil, err
	}
	for sid, slots := range sc.Partitions {
		if err := cl.Repartition(sid, slots); err != nil {
			return nil, fmt.Errorf("check: installing slot table: %w", err)
		}
	}
	if err := cl.Start(); err != nil {
		return nil, err
	}

	var mon *engine.Monitor
	var ctrl *engine.Controller
	if l != open {
		lm, err := query.BuildLoadModel(sc.Graph)
		if err != nil {
			return nil, fmt.Errorf("check: load model: %w", err)
		}
		mcfg := engine.MonitorConfig{
			Interval:  50 * time.Millisecond,
			Events:    ev,
			LM:        lm,
			Plan:      res.plan,
			Caps:      mat.Vec(sc.Caps),
			RateAlpha: rateAlphaFor(sc.Class),
		}
		mon = cl.StartMonitor(mcfg)
		if l == controlled {
			if ctrl, err = cl.StartController(controllerConfigFor(sc.Seed)); err != nil {
				return nil, fmt.Errorf("check: starting controller: %w", err)
			}
			defer ctrl.Close()
		}
	}

	// Sources: one driver per input stream, addressed to the consumers'
	// deployed homes (a migration leaves a relay entry there for the
	// consumer it moves, so these stay valid).
	addrs := cl.Addrs()
	inputNodes := engine.InputNodes(sc.Graph, res.plan)
	inputs := sc.Graph.Inputs()
	drivers := make([]*engine.SourceDriver, len(inputs))
	for i, in := range inputs {
		drv := &engine.SourceDriver{Stream: in, Trace: sc.Traces[i], MaxRate: 5000}
		for _, n := range inputNodes[in] {
			drv.Addrs = append(drv.Addrs, addrs[n])
		}
		if mon != nil {
			drv.Count = mon.SourceCounter(in)
		}
		if sc.Keys != nil {
			if drv.Keys, err = sc.Keys(); err != nil {
				return nil, err
			}
		}
		drivers[i] = drv
	}
	injected := make([]int64, len(drivers))
	srcErrs := make([]error, len(drivers))
	var wg sync.WaitGroup
	for i, drv := range drivers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			injected[i], srcErrs[i] = drv.Run(sc.Wall, nil)
		}()
	}
	applyErr := apply(cl, sc, res)
	wg.Wait()
	// Stop deciding before the drain: the workload is over, and the final
	// placement must hold still for the checks.
	if ctrl != nil {
		ctrl.Close()
	}
	// A kill legitimately breaks sources and control calls aimed at the
	// dead node; every other class treats either as an infrastructure error.
	for i, drv := range drivers {
		res.Sources += injected[i]
		res.SrcDropped += drv.Dropped
		if srcErrs[i] != nil && sc.Class != KillNode {
			return nil, fmt.Errorf("check: source %d: %w", i, srcErrs[i])
		}
	}
	if applyErr != nil && sc.Class != KillNode {
		return nil, applyErr
	}

	// Strict runs must fully drain; after a kill the survivors' outboxes
	// toward the dead peer never flush, so they can only settle.
	quiesce := cl.AwaitQuiescence
	if sc.Class == KillNode {
		quiesce = cl.AwaitSettled
	}
	if err := quiesce(livenessTimeout, 100*time.Millisecond); err != nil {
		res.Violation = fmt.Errorf("check: liveness: %w", err)
	}

	res.Stats, _ = cl.Stats()
	res.Delivered, _, _, _, _ = cl.Collector.LatencyStats()
	res.Duplicates = cl.Collector.Duplicates()
	if s, ok := cl.Collector.LatencySummary(); ok {
		res.P50Ms, res.P99Ms = s.P50*1000, s.P99*1000
	}
	res.Ledger = Assemble(res.Stats, res.Delivered, res.Sources, res.SrcDropped)
	if mon != nil {
		res.series = mon.Series()
	}
	if ctrl != nil {
		for _, mv := range ctrl.Moves() {
			if mv.OK {
				res.plan.NodeOf[mv.Op] = mv.To
				res.moves = append(res.moves, mv)
				res.Migrations++
			}
		}
	}
	return res, nil
}

// applier runs one episode's schedule against its cluster.
type applier struct {
	cl     *engine.Cluster
	sc     *Scenario
	res    *EpisodeResult
	addrs  []string
	killed int // node killed and not yet restarted, or -1
}

// actions is each fault kind's effect on the live cluster.
var actions = [numFaultKinds]func(a *applier, op FaultOp) error{
	FaultSever:   (*applier).link,
	FaultDrop:    (*applier).link,
	FaultDelay:   (*applier).link,
	FaultHeal:    (*applier).link,
	FaultMigrate: (*applier).migrate,
	FaultKill:    (*applier).kill,
	FaultRestart: (*applier).restart,
	FaultRepartition: func(a *applier, op FaultOp) error {
		return a.cl.Repartition(op.Stream, op.Slots)
	},
}

// apply runs the schedule on the episode clock, which starts as the sources
// launch. Link operations on a node the schedule killed are skipped; the
// first other failure is returned once the schedule ends.
func apply(cl *engine.Cluster, sc *Scenario, res *EpisodeResult) error {
	a := &applier{cl: cl, sc: sc, res: res, addrs: cl.Addrs(), killed: -1}
	start := time.Now()
	var first error
	for _, op := range sc.Schedule {
		if d := op.At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if err := actions[op.Kind](a, op); err != nil && first == nil {
			first = fmt.Errorf("check: %s on node %d at %v: %w", op.Kind, op.Node, op.At, err)
		}
	}
	return first
}

func (a *applier) link(op FaultOp) error {
	if op.Node == a.killed {
		return nil
	}
	spec := engine.FaultSpec{Addr: a.addrs[op.Peer]}
	switch op.Kind {
	case FaultSever:
		spec.Sever = true
	case FaultDrop:
		spec.Drop = true
	case FaultDelay:
		spec.DelayMs = float64(op.Delay) / float64(time.Millisecond)
	case FaultHeal:
		spec.Clear = true
	}
	return a.cl.Controls[op.Node].Fault(spec)
}

func (a *applier) migrate(op FaultOp) error {
	err := a.cl.MoveOperator(a.sc.Graph, a.res.plan, query.OpID(op.Op), op.To, op.Stall)
	if err == nil {
		a.res.Migrations++
	}
	return err
}

func (a *applier) kill(op FaultOp) error {
	a.killed = op.Node
	return a.cl.Controls[op.Node].Fault(engine.FaultSpec{Kill: true})
}

// restart recreates the killed node on its address and WAL directory. Its
// latency is the recovery cost (port rebind + manifest redeploy +
// checkpoint load + WAL replay), recorded for the recovery-time experiment.
func (a *applier) restart(op FaultOp) error {
	t := time.Now()
	if err := a.cl.RestartNode(op.Node); err != nil {
		return err
	}
	a.res.RecoverMillis = float64(time.Since(t)) / float64(time.Millisecond)
	a.killed = -1
	return nil
}

// gate judges a run by what its scenario contains — the class, whether it
// is durable, whether it has slot tables, whether anything migrated — and
// returns the first failed invariant. A kill leaves only the survivors'
// reachability and outbox identities to assert: the dead node's counters
// and the tuples flushed into its sockets are unaccounted.
func gate(sc *Scenario, res *EpisodeResult) error {
	reachable := 0
	for i, s := range res.Stats {
		if s != nil {
			reachable++
		} else if sc.Class != KillNode {
			return fmt.Errorf("check: node %d unreachable in a %s episode", i, sc.Class)
		}
	}
	if reachable == 0 {
		return fmt.Errorf("check: every node unreachable after killing one")
	}
	if err := CheckOutboxes(res.Stats); err != nil {
		return err
	}
	if sc.Class == KillNode {
		return nil
	}
	if err := res.Ledger.Check(sc.Slack()); err != nil {
		return err
	}
	// Durable scenarios are provisioned feasible, so a shed means recovery
	// lost provisioning; a node with a WAL waits for ring room instead of
	// dropping, and the episode schedules no Drop fault, so an outbox drop
	// is a loss; the sink filter must have caught no re-delivery.
	if sc.durable() {
		if res.Ledger.Shed != 0 {
			return fmt.Errorf("check: %d tuples shed in a %s episode (must be 0)", res.Ledger.Shed, sc.Class)
		}
		if res.Ledger.OutboxDropped != 0 {
			return fmt.Errorf("check: %d tuples dropped by outboxes in a %s episode (must be 0)", res.Ledger.OutboxDropped, sc.Class)
		}
		if res.Duplicates != 0 {
			return fmt.Errorf("check: %d duplicate sink deliveries after recovery (must be 0)", res.Duplicates)
		}
	}
	if res.Delivered == 0 {
		return fmt.Errorf("check: no tuple reached the sink (sources=%d)", res.Sources)
	}
	// Partition-counter conservation: every keyed tuple crossed the
	// splitter's table exactly once.
	if len(sc.Partitions) > 0 {
		var crossed int64
		for _, s := range res.Stats {
			for _, counts := range s.PartCounts {
				for _, c := range counts {
					crossed += c
				}
			}
		}
		if keyedIn := res.Sources - res.SrcDropped; crossed != keyedIn {
			return fmt.Errorf("check: partition counters total %d, want %d keyed tuples", crossed, keyedIn)
		}
	}
	if res.Migrations > 0 {
		return checkCoefSums(sc.Graph, res.plan)
	}
	return nil
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
