// Command rodcheck runs the cluster-wide conformance harness: the
// metamorphic invariant catalog, optional lockstep sim↔engine
// cross-validation, and seeded chaos episodes on a loopback engine cluster
// gated by the tuple-conservation ledger (internal/check).
//
// Usage:
//
//	rodcheck -seed 1 -episodes 20 [-nodes 4] [-lockstep] [-v]
//	rodcheck -seed 1 -soak 30m [-fail-out failing.json]
//	rodcheck -seed 1 -episodes 20 -slo p99=750ms,zero-shed -report report.json
//	rodcheck -seed 1 -episodes 0 -controller 1
//	rodcheck -seed 1 -episodes 0 -sharded 1
//	rodcheck -seed 1 -episodes 0 -recover 3
//
// -controller N runs N closed-loop acceptance pairs: a flash-crowd episode
// executed twice, elastic controller on and off. The on-arm must migrate the
// hot operator autonomously and strictly before any overload onset, settle
// at ledger residual 0 with zero shed; the off-arm must shed or overload
// (proving the workload genuinely exceeded the static placement).
//
// -sharded N runs N keyed-parallelism acceptance pairs: a hot operator whose
// load exceeds any single node, driven unsharded (must shed), sharded k=4
// with uniform hashing, and sharded with a skew-aware slot table plus one
// live repartition. Both sharded arms must hold the ledger at residual 0
// with zero shed, and under Zipf(1.1) keys the skew-aware arm's minimum
// node headroom must strictly beat uniform's.
//
// -recover N runs N kill-and-recover episodes: a durable cluster (every
// node logs its ingress to a WAL and checkpoints at drained moments), an
// interior victim node killed mid-episode and restarted from its log. Odd
// seeds run chains through the victim, even seeds two chains merged by a
// union off it, so two consecutive seeds cover both shapes. The gate is
// exact: ledger residual 0 with zero slack, zero shed, zero
// duplicate sink deliveries, and a recorded restart latency. A failing
// episode keeps its WAL root on disk and reports the path.
//
// -ctrl-lockstep N cross-validates the closed loop itself: the engine's
// autonomous migrations are replayed in the simulator and the per-node
// series must agree under an identical obs schema (controller instruments
// included).
//
// Every kind runs its N seeds from the base seed up, and everything about
// a run follows from its seed alone. A chaos episode's class does too
// (check.ClassFor): it kills a node when seed%3 == 2, else drives a
// correlated spike (two chains ramping together, strict ledger) when
// seed%7 == 3, else stays strict. So the repro line of a failure,
// "-seed S" with one run of its kind, replays exactly the run that failed.
// With -soak the episode loop runs until the duration elapses instead of a
// fixed count, interleaving a lockstep cross-validation every tenth
// episode, a controller pair every fifteenth, a sharded pair every
// twenty-fifth, a kill-and-recover episode every twelfth and a controller
// lockstep every twentieth. On the first failure rodcheck writes the
// failing seed, the diagnosis and the failing run's per-node stats to
// -fail-out (if set) so CI can archive a one-command reproduction, then
// exits 1.
//
// With -slo each strict episode's sink p99 and ledger shed/drop counts are
// graded against the spec; the run's grade is the worst episode's. KillNode
// episodes are exempt (losing a node legitimately sheds and drops — the
// ledger still holds them to conservation) and only counted. -report writes
// the aggregate obs.RunReport; an invariant failure always grades fail.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"rodsp/internal/check"
	"rodsp/internal/engine"
	"rodsp/internal/obs"
)

type failure struct {
	Kind     string `json:"kind"` // metamorphic, or a kind's name
	Seed     int64  `json:"seed"`
	Nodes    int    `json:"nodes"`
	Class    string `json:"class,omitempty"`
	Error    string `json:"error"`
	Repro    string `json:"repro"`
	Episodes int    `json:"episodes_run"`
	// WALDir points at the failing recover episode's retained WAL root (logs
	// and checkpoints for every node), kept on disk for triage.
	WALDir string `json:"wal_dir,omitempty"`
	// Stats is the failing run's per-node snapshot as its gate judged it.
	Stats []*engine.NodeStats `json:"stats,omitempty"`
}

// kind is one sort of conformance run rodcheck repeats over seeds.
type kind struct {
	name  string
	n     int    // seeds its count flag asks for
	every int    // -soak interleaves one every this many episodes
	repro string // flags that replay one seed of it
	// run executes one seed, returning the line printed when it passes or
	// the failure when it does not.
	run func(seed int64) (summary string, f *failure)
}

// seedOf is the seed of a kind's i-th run from the base seed. A run
// depends on its seed alone, so "-seed seedOf(base, i)" replays it as the
// first run.
func seedOf(base int64, i int) int64 { return base + int64(i) }

// reproLine is the command that replays one failing run.
func reproLine(seed int64, nodes int, flags string) string {
	return fmt.Sprintf("go run ./cmd/rodcheck -seed %d -nodes %d %s", seed, nodes, flags)
}

// episodeRepro replays one chaos episode.
const episodeRepro = "-episodes 1"

// failed turns an error into a failure; when one of results violated its
// own gate, the failure carries that run's WAL root and per-node stats.
func failed(class string, err error, results ...*check.EpisodeResult) *failure {
	f := &failure{Class: class, Error: err.Error()}
	for _, r := range results {
		if r != nil && r.Violation != nil {
			f.WALDir, f.Stats = r.WALDir, r.Stats
			break
		}
	}
	return f
}

func main() {
	var (
		seed        = flag.Int64("seed", 1, "base random seed")
		episodes    = flag.Int("episodes", 10, "chaos episodes to run")
		nodes       = flag.Int("nodes", 4, "loopback cluster size")
		soak        = flag.Duration("soak", 0, "run episodes until this duration elapses (overrides -episodes)")
		lockstep    = flag.Bool("lockstep", false, "also run sim↔engine lockstep cross-validation")
		controllerN = flag.Int("controller", 0, "controller pair episodes to run (flash-crowd, elastic controller on vs off)")
		shardedN    = flag.Int("sharded", 0, "sharded pair episodes to run (hot operator: unsharded vs k=4 uniform vs skew-aware)")
		recoverN    = flag.Int("recover", 0, "kill-and-recover episodes to run (durable cluster, victim killed and restarted from its WAL)")
		ctrlLockN   = flag.Int("ctrl-lockstep", 0, "controller lockstep cross-validations to run (engine closed loop replayed in the simulator)")
		failOut     = flag.String("fail-out", "", "write the first failure as JSON to this file")
		sloFlag     = flag.String("slo", "", "SLO spec graded per strict episode, e.g. p99=750ms,zero-shed")
		report      = flag.String("report", "", "write the aggregate obs.RunReport JSON here")
		verbose     = flag.Bool("v", false, "per-episode ledger summaries")
	)
	flag.Parse()

	slo := obs.SLOSpec{MaxDrops: -1}
	if *sloFlag != "" {
		var err error
		if slo, err = obs.ParseSLOSpec(*sloFlag); err != nil {
			fmt.Fprintln(os.Stderr, "rodcheck:", err)
			os.Exit(2)
		}
	}
	// rep aggregates across episodes: worst strict-episode quantiles, summed
	// strict shed/drop counts, worst grade. fatal() stamps it fail.
	rep := obs.RunReport{Harness: "rodcheck", Grade: obs.GradePass, SLO: slo,
		Scenario: fmt.Sprintf("seed=%d nodes=%d", *seed, *nodes)}
	writeReport := func() {
		if *report == "" {
			return
		}
		if err := rep.WriteFile(*report); err != nil {
			fmt.Fprintf(os.Stderr, "rodcheck: writing %s: %v\n", *report, err)
		}
	}
	ran := 0 // chaos episodes passed

	fatal := func(f *failure, name string, seed int64, repro string) {
		f.Kind, f.Seed, f.Nodes, f.Episodes = name, seed, *nodes, ran
		f.Repro = reproLine(seed, *nodes, repro)
		fmt.Fprintf(os.Stderr, "rodcheck: FAIL (%s, seed %d): %s\n", f.Kind, f.Seed, f.Error)
		if *failOut != "" {
			if data, err := json.MarshalIndent(f, "", "  "); err == nil {
				if werr := os.WriteFile(*failOut, append(data, '\n'), 0o644); werr != nil {
					fmt.Fprintf(os.Stderr, "rodcheck: writing %s: %v\n", *failOut, werr)
				}
			}
		}
		rep.Grade = obs.GradeFail
		rep.Reasons = append(rep.Reasons, fmt.Sprintf("%s failure at seed %d: %s", f.Kind, f.Seed, f.Error))
		rep.Episodes = ran
		writeReport()
		os.Exit(1)
	}

	// Pure compute-plane invariants first: cheap, deterministic, no cluster.
	if err := check.RunMetamorphic(check.MetamorphicConfig{Seed: *seed}); err != nil {
		fatal(&failure{Error: err.Error()}, "metamorphic", *seed, "-episodes 0")
	}
	fmt.Println("rodcheck: metamorphic invariants ok")

	lockstepN := 0
	if *lockstep {
		lockstepN = 1
	}
	kinds := []kind{
		{name: "lockstep", n: lockstepN, every: 10, repro: "-episodes 0 -lockstep",
			run: func(s int64) (string, *failure) {
				res, err := check.RunLockstep(check.LockstepConfig{Seed: s, Nodes: *nodes})
				if err == nil {
					err = res.Violation
				}
				if err != nil {
					return "", failed(check.Strict.String(), err)
				}
				return fmt.Sprintf("lockstep ok (seed %d: sim delivered %d, engine delivered %d, %d migrations)",
					s, res.SimDelivered, res.EngDelivered, len(res.Moves)), nil
			}},
		// The closed-loop acceptance gate: the seeded flash-crowd episode
		// twice — elastic controller on, then off.
		{name: "controller", n: *controllerN, every: 15, repro: "-episodes 0 -controller 1",
			run: func(s int64) (string, *failure) {
				pr, err := check.RunControllerPair(s, obs.NewEventLog(1024))
				if err != nil {
					return "", failed(check.Controller.String(), err)
				}
				if pr.Violation != nil {
					return "", failed(check.Controller.String(), pr.Violation, pr.On, pr.Off)
				}
				return fmt.Sprintf("controller pair ok (seed %d: %d proactive migrations, first at %.3fs; baseline shed %d)",
					s, pr.On.Migrations, pr.FirstMoveT, pr.Off.Ledger.Shed), nil
			}},
		// The keyed-parallelism acceptance gate: the seeded hot-operator
		// workload unsharded, k=4 uniform, and k=4 skew-aware with a live
		// repartition.
		{name: "sharded", n: *shardedN, every: 25, repro: "-episodes 0 -sharded 1",
			run: func(s int64) (string, *failure) {
				pr, err := check.RunShardedPair(s, 0, obs.NewEventLog(1024))
				if err != nil {
					return "", failed(check.Sharded.String(), err)
				}
				if pr.Violation != nil {
					return "", failed(check.Sharded.String(), pr.Violation, pr.Unsharded, pr.Uniform, pr.SkewAware)
				}
				return fmt.Sprintf("sharded pair ok (seed %d: unsharded shed %d; k=%d headroom uniform %.3f vs skew-aware %.3f)",
					s, pr.Unsharded.Ledger.Shed, pr.Scenario.K, pr.HeadroomUniform, pr.HeadroomSkew), nil
			}},
		// The durability acceptance gate: a WAL-backed cluster whose interior
		// victim is killed and restarted mid-run. A failure keeps the WAL
		// root for triage.
		{name: "recover", n: *recoverN, every: 12, repro: "-episodes 0 -recover 1",
			run: func(s int64) (string, *failure) {
				sc, err := check.GenerateRecover(s, *nodes)
				if err != nil {
					return "", failed(check.Recover.String(), err)
				}
				res, err := check.RunRecoverEpisode(sc, obs.NewEventLog(1024))
				if err == nil {
					err = res.Violation
				}
				if err != nil {
					return "", failed(check.Recover.String(), err, res)
				}
				return fmt.Sprintf("recover episode ok (seed %d: sources %d, delivered %d, dups %d, restart %.1f ms)",
					s, res.Sources, res.Delivered, res.Duplicates, res.RecoverMillis), nil
			}},
		{name: "ctrl-lockstep", n: *ctrlLockN, every: 20, repro: "-episodes 0 -ctrl-lockstep 1",
			run: func(s int64) (string, *failure) {
				res, err := check.RunControllerLockstep(s, check.Tolerances{})
				if err == nil {
					err = res.Violation
				}
				if err != nil {
					return "", failed(check.Controller.String(), err)
				}
				return fmt.Sprintf("controller lockstep ok (seed %d: %d autonomous moves replayed, sim delivered %d, engine delivered %d)",
					s, len(res.Moves), res.SimDelivered, res.EngDelivered), nil
			}},
		{name: "episode", n: *episodes, every: 1, repro: episodeRepro,
			run: func(s int64) (string, *failure) {
				class := check.ClassFor(s)
				sc, err := check.Generate(s, *nodes, class)
				if err != nil {
					return "", failed(class.String(), err)
				}
				res, err := check.RunEpisode(sc, obs.NewEventLog(1024))
				if err == nil {
					err = res.Violation
				}
				if err != nil {
					return "", failed(class.String(), err, res)
				}
				ran++
				// Grade strict-path episodes only (Strict and CorrSpike hold the
				// full ledger): KillNode episodes shed and drop by design (the
				// ledger still audits them), so they'd poison the SLO.
				if class != check.KillNode {
					g, reasons := slo.Grade(res.P99Ms, res.Ledger.Shed, res.Ledger.OutboxDropped+res.Ledger.NoRoute)
					if res.P99Ms > rep.P99Ms {
						rep.P50Ms, rep.P99Ms = res.P50Ms, res.P99Ms
					}
					rep.SinkTuples += res.Delivered
					rep.Shed += res.Ledger.Shed
					rep.Drops += res.Ledger.OutboxDropped + res.Ledger.NoRoute
					if gradeRank(g) > gradeRank(rep.Grade) {
						rep.Grade = g
					}
					for _, r := range reasons {
						rep.Reasons = append(rep.Reasons, fmt.Sprintf("episode seed %d: %s", s, r))
					}
				}
				if *verbose {
					return fmt.Sprintf("episode ok (seed %d, %s, %d faults, %d migrations, residual %d)\n%s",
						s, class, len(sc.Schedule), res.Migrations, res.Ledger.Residual(), res.Ledger), nil
				}
				return fmt.Sprintf("episode ok (seed %d, %s: sources %d, delivered %d, shed %d, residual %d)",
					s, class, res.Sources, res.Delivered, res.Ledger.Shed, res.Ledger.Residual()), nil
			}},
	}
	runOne := func(k kind, s int64) {
		summary, f := k.run(s)
		if f != nil {
			fatal(f, k.name, s, k.repro)
		}
		fmt.Println("rodcheck:", summary)
	}

	for _, k := range kinds {
		if k.name == "episode" && *soak > 0 {
			continue // -soak overrides -episodes
		}
		for i := 0; i < k.n; i++ {
			runOne(k, seedOf(*seed, i))
		}
	}
	if *soak > 0 {
		deadline := time.Now().Add(*soak)
		for i := 0; time.Now().Before(deadline); i++ {
			for _, k := range kinds {
				if i%k.every == 0 && (i > 0 || k.every == 1) {
					runOne(k, seedOf(*seed, i))
				}
			}
		}
	}

	rep.Episodes = ran
	writeReport()
	if *sloFlag != "" {
		fmt.Printf("rodcheck: grade %s against %s (worst p99 %.2f ms, shed %d, drops %d)\n",
			rep.Grade, slo, rep.P99Ms, rep.Shed, rep.Drops)
		if rep.Grade == obs.GradeFail {
			fmt.Fprintf(os.Stderr, "rodcheck: FAIL (slo): %s\n", rep.Reasons)
			os.Exit(1)
		}
	}
	fmt.Printf("rodcheck: PASS (%d episodes)\n", ran)
}

// gradeRank orders run grades for worst-of aggregation.
func gradeRank(g string) int {
	switch g {
	case obs.GradeDegraded:
		return 1
	case obs.GradeFail:
		return 2
	}
	return 0
}
