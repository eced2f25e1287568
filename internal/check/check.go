// Package check is the cluster-wide conformance harness: deterministic,
// seeded verification that the engine and the simulator actually deliver
// the properties the paper's claims rest on.
//
//   - Scenarios (scenario.go, controller.go, shard.go): a Scenario is the
//     complete description of one run — graph, placement, traces,
//     data-plane knobs, slot tables, key generator, and one schedule of
//     timed operations (link faults, migrations, kill, restart, live
//     repartition). Seeded generators build one per class.
//
//   - The runner (run.go): one function executes every engine-backed
//     scenario — cluster bring-up, source drive, the schedule, quiescence,
//     snapshot — and one gate judges the snapshot by what the scenario
//     contains. Every arm of every class is a scenario plus that gate.
//
//   - The tuple-conservation ledger (ledger.go): at quiescence, every tuple
//     a source emitted is delivered, shed, dropped by an outbox, dropped for
//     lack of a route, or still in flight — assembled entirely from the
//     stats snapshots the control plane already exposes, with no new
//     hot-path locks. A positive residual is silent loss; a negative one
//     beyond the fault-model slack is double counting.
//
//   - Lockstep sim↔engine cross-validation (lockstep.go): a runner's engine
//     run, with the migrations it executed replayed in internal/sim, gated
//     by per-series tolerances on utilization, feasibility headroom,
//     delivered counts and shed.
//
//   - Metamorphic invariants (metamorphic.go): paper-derived properties of
//     the placement math, checked on seeded random instances.
//
// cmd/rodcheck is the CLI entry point; CI runs a small seeded scenario set
// per push and a nightly soak with longer episodes.
package check
