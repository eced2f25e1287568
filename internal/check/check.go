// Package check is the cluster-wide conformance harness: deterministic,
// seeded verification that the engine and the simulator actually deliver
// the properties the paper's claims rest on.
//
// Three pillars:
//
//   - The tuple-conservation ledger (ledger.go): at quiescence, every tuple
//     a source emitted is delivered, shed, dropped by an outbox, dropped for
//     lack of a route, or still in flight — assembled entirely from the
//     stats snapshots the control plane already exposes, with no new
//     hot-path locks. A positive residual is silent loss; a negative one
//     beyond the fault-model slack is double counting.
//
//   - Lockstep sim↔engine cross-validation (lockstep.go): the same seeded
//     graph, traces and migration schedule driven through internal/sim and
//     a loopback engine cluster, gated by per-series tolerances on
//     utilization, feasibility headroom, delivered counts and shed onset.
//
//   - The chaos soak (scenario.go + episode.go): seeded scenarios composing
//     link faults (sever/drop/delay), node kills and live migrations,
//     asserting the ledger plus the paper-derived metamorphic invariants
//     (metamorphic.go) after every episode.
//
// cmd/rodcheck is the CLI entry point; CI runs a small seeded scenario set
// per push and a nightly soak with longer episodes.
package check
