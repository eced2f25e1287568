// Package obs is the unified observability layer: a concurrency-safe
// metrics registry (counters, gauges, fixed-bucket histograms with
// allocation-free hot paths), a time-series sampler retaining ring-buffered
// series, a structured JSON-lines event log with monotonic ordering, and
// exposition in Prometheus text format, JSON and CSV.
//
// Both the TCP engine (internal/engine) and the discrete-event simulator
// (internal/sim) feed one per-window Observer, which registers the common
// schema and runs the shared per-window rules, so a DES run and a
// prototype run emit directly comparable series — in particular the live
// feasibility headroom 1 − L^n_i·R̂/C_i, the paper's feasibility test
// evaluated continuously against an EWMA of the observed input rates.
package obs

// Canonical metric names. The common schema is registered once, by
// NewObserver; the engine-only series (lanes, WAL, shard rates, per-stream
// shed) are registered lazily by the engine monitor.
const (
	// MetricNodeUtilization is each node's utilization over the last sample
	// window (busy virtual-CPU seconds per wall/sim second, capped at 1).
	MetricNodeUtilization = "rodsp_node_utilization"
	// MetricNodeQueueDepth is the node's instantaneous work-queue length.
	MetricNodeQueueDepth = "rodsp_node_queue_depth"
	// MetricNodeHeadroom is the live feasibility headroom 1 − L^n_i·R̂/C_i:
	// positive while the node is inside its feasible half-space at the
	// EWMA-estimated input rates, ≤ 0 once the observed load point leaves it.
	MetricNodeHeadroom = "rodsp_node_feasibility_headroom"
	// MetricNodeInjected counts tuples accepted by the node's data plane.
	MetricNodeInjected = "rodsp_node_tuples_injected_total"
	// MetricNodeEmitted counts tuples the node's operators produced/forwarded.
	MetricNodeEmitted = "rodsp_node_tuples_emitted_total"
	// MetricSourceRate is the EWMA-smoothed input rate per source stream
	// (tuples/second) — the R̂ entering the headroom computation.
	MetricSourceRate = "rodsp_source_rate"
	// MetricSourceTuples counts tuples injected per source stream; its
	// per-window delta is the raw rate observation feeding MetricSourceRate.
	MetricSourceTuples = "rodsp_source_tuples_total"
	// MetricSinkLatency is the end-to-end sink latency histogram (seconds).
	MetricSinkLatency = "rodsp_sink_latency_seconds"
	// MetricSinkLatencyQuantile carries the sampled p50/p95/p99 series
	// (label quantile="p50"|"p95"|"p99") over the last sample window.
	MetricSinkLatencyQuantile = "rodsp_sink_latency_quantile_seconds"
	// MetricSinkTuples counts tuples that reached a sink.
	MetricSinkTuples = "rodsp_sink_tuples_total"
	// MetricNodeShed counts tuples shed at a node's bounded ingress queue.
	MetricNodeShed = "rodsp_node_tuples_shed_total"
	// MetricStreamShed counts shed tuples per node and victim stream.
	MetricStreamShed = "rodsp_stream_tuples_shed_total"
	// MetricNodeOutboxDrop counts tuples dropped by a node's per-peer
	// outboxes: ring overflow on a node without a WAL, injected drop
	// faults, failed writes, and what a ring still holds at shutdown. A
	// node with a WAL never overflows a ring: its workers wait for room.
	MetricNodeOutboxDrop = "rodsp_node_outbox_dropped_total"
	// MetricNodePeerReconnects counts peer links re-established after a
	// failure (the outbox backoff/reconnect cycle succeeding).
	MetricNodePeerReconnects = "rodsp_node_peer_reconnects_total"
	// MetricNodeNoRoute counts tuples discarded because they had neither a
	// local consumer nor a route onward (a relay entry or a keyed home).
	MetricNodeNoRoute = "rodsp_node_tuples_no_route_total"
	// MetricLaneQueueDepth is one worker lane's queued + in-flight tuple
	// count (labels node, lane). Lane series are emitted only for
	// multi-lane nodes with MonitorConfig.LaneSeries enabled, so the
	// default schema stays identical between the simulator and the engine.
	MetricLaneQueueDepth = "rodsp_lane_queue_depth"
	// MetricLaneProcessed counts tuples one worker lane has processed.
	MetricLaneProcessed = "rodsp_lane_tuples_processed_total"
	// MetricLaneUtilization is one lane's windowed share of the node's
	// virtual-CPU time (busy-seconds delta per wall second, capped at 1).
	MetricLaneUtilization = "rodsp_lane_utilization"

	// MetricControllerDecisions counts elastic-controller decision cycles
	// (every evaluation of the forecast headroom, whether or not it acted).
	MetricControllerDecisions = "rodsp_controller_decisions_total"
	// MetricControllerMoves counts migrations the controller executed.
	MetricControllerMoves = "rodsp_controller_moves_total"
	// MetricControllerMoveFailures counts controller-initiated migrations
	// that aborted (the destination install was rolled back).
	MetricControllerMoveFailures = "rodsp_controller_move_failures_total"
	// MetricControllerForecastHeadroom is the minimum per-node feasibility
	// headroom 1 − L^n_i·R̂(t+H)/C_i at the controller's forecast rate
	// point — the signal the decision rule triggers on.
	MetricControllerForecastHeadroom = "rodsp_controller_forecast_headroom"
	// MetricControllerScales counts shard scale actions the controller
	// executed (skew-aware slot reassignments of a keyed stream's
	// partition table).
	MetricControllerScales = "rodsp_controller_scales_total"
	// MetricShardRate is the EWMA-smoothed routed rate (tuples/second) of
	// one keyed shard: the sum of its partition-table slots' rates, labeled
	// by the sharded parent operator ("op") and the replica index ("shard").
	MetricShardRate = "rodsp_shard_rate"

	// MetricWALRecords counts ingress batches a node's write-ahead log has
	// appended. WAL/recovery series are registered lazily, only for nodes
	// reporting an active WAL, so the default schema stays identical
	// between the simulator (no WAL) and the engine.
	MetricWALRecords = "rodsp_wal_records_total"
	// MetricWALSyncs counts fsync group commits of a node's WAL.
	MetricWALSyncs = "rodsp_wal_syncs_total"
	// MetricWALBytes counts bytes appended to a node's WAL.
	MetricWALBytes = "rodsp_wal_bytes_total"
	// MetricWALCheckpoints counts landed (drained-moment) checkpoints.
	MetricWALCheckpoints = "rodsp_wal_checkpoints_total"
	// MetricRecoveryReplayed counts tuples re-admitted from the WAL at the
	// node's last recovery.
	MetricRecoveryReplayed = "rodsp_recovery_replayed_total"
	// MetricRecoveryDedupDropped counts duplicate tuples discarded by the
	// (sender, stream) dedup rule at ingress and replay (re-sent retained
	// batches after a reconnect or a restart).
	MetricRecoveryDedupDropped = "rodsp_recovery_dedup_dropped_total"
)

// Event types emitted by the engine and the simulator.
const (
	EventDeploy         = "deploy"
	EventNodeConnect    = "node_connect"
	EventNodeDisconnect = "node_disconnect"
	EventOverloadOnset  = "overload_onset"
	EventOverloadClear  = "overload_clear"
	EventMigrateInstall = "migrate_install"
	EventMigrateStall   = "migrate_stall"
	EventMigrateRemove  = "migrate_remove"
	EventControlError   = "control_error"
	EventRelayError     = "relay_error"
	EventSpan           = "span"
	// EventShedOnset/EventShedClear bracket a load-shedding episode at a
	// node's bounded ingress queue (onset on the first shed, clearance
	// once the backlog drains to half the cap).
	EventShedOnset = "shed_onset"
	EventShedClear = "shed_clear"
	// EventPeerUp marks an outbound peer link recovering after a failure
	// previously reported as relay_error (the warn latch re-arms here).
	EventPeerUp = "peer_up"
	// EventLinkFault records an injected link fault being set or cleared.
	EventLinkFault = "link_fault"
	// EventNoRoute warns (once per stream) that inbound tuples are being
	// discarded for lack of any local consumer or route onward.
	EventNoRoute = "no_route"
	// EventInvariantViolation is emitted by the conformance harness
	// (internal/check) when a cluster-wide invariant — the tuple
	// conservation ledger, an outbox identity, or a paper-derived
	// metamorphic property — fails on a checked scenario.
	EventInvariantViolation = "invariant_violation"
	// EventMigrateAbort records a migration that failed after the
	// destination install: the install was rolled back (or the source was
	// already dead) and the plan was left at the pre-move assignment.
	EventMigrateAbort = "migrate_abort"
	// EventNodeStale marks a node whose stats became unreachable (killed or
	// partitioned): its overload latch is cleared and its gauges zeroed so
	// nothing keeps reacting to frozen last-observed values. Emitted with
	// state=stale on loss and state=fresh on recovery.
	EventNodeStale = "node_stale"
	// EventControllerDecide records one elastic-controller decision: the
	// forecast minimum headroom and the action taken (hold/migrate, with a
	// reason for holds).
	EventControllerDecide = "controller_decide"
	// EventControllerMigrate records one controller-initiated migration
	// (ok=false when the move aborted and was rolled back).
	EventControllerMigrate = "controller_migrate"
	// EventRepartition records a keyed stream's slot table being reassigned
	// at runtime (skew-aware rebalance or post-migration table push).
	EventRepartition = "repartition"
	// EventControllerScale records one controller-initiated shard scale
	// action: a skew-aware repartition of a keyed stream (ok=false when the
	// table push failed part-way; routing stays safe on mixed tables).
	EventControllerScale = "controller_scale"
	// EventCheckpoint records one landed durability checkpoint: the WAL
	// position truncated behind, and the operator and dedup-mark counts
	// captured.
	EventCheckpoint = "checkpoint"
	// EventRecover records a node restart that restored state from its WAL
	// directory (replayed tuple count, checkpoint presence).
	EventRecover = "recover"
	// EventWALError warns that a WAL append, sync, checkpoint write or
	// truncation failed; durable ingress stops acking until it heals.
	EventWALError = "wal_error"
	// EventNodeRestart records the control plane's restart command being
	// accepted (the supervisor recreates the node on the same address and
	// WAL directory).
	EventNodeRestart = "node_restart"
)

// Event levels.
const (
	LevelDebug = "debug"
	LevelInfo  = "info"
	LevelWarn  = "warn"
)

// DefaultLatencyBuckets are the histogram upper bounds (seconds) used for
// sink latency: roughly logarithmic from 1 ms to 60 s.
func DefaultLatencyBuckets() []float64 {
	return []float64{
		0.001, 0.002, 0.005, 0.01, 0.02, 0.05,
		0.1, 0.2, 0.5, 1, 2, 5, 10, 30, 60,
	}
}
