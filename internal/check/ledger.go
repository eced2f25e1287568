package check

import (
	"fmt"
	"strings"

	"rodsp/internal/engine"
)

// Ledger is the cluster-wide tuple-conservation account, assembled from the
// per-node stats snapshots and the collector/driver counters at (or near)
// quiescence. For a unit-multiplicity topology — every stream has exactly
// one consumer and every operator selectivity 1, the shape the conformance
// scenarios use — conservation is exact:
//
//	Sources == SrcDropped + Delivered + Shed + OutboxDropped + NoRoute + InFlight
//
// because each source tuple takes a single path and every exit from that
// path is counted: the driver skipping a dead destination, the collector
// recording the sink arrival, a bounded ingress queue shedding it, an
// outbox dropping it (overflow on a node without a WAL, drop fault, failed
// write, or left in a ring at shutdown; a node with a WAL waits instead of
// overflowing), a routing gap
// discarding it, or the tuple still sitting in a queue or outbox ring.
type Ledger struct {
	Sources       int64 // tuples emitted by all source drivers
	SrcDropped    int64 // per-destination sends the drivers skipped (dead link)
	Delivered     int64 // sink tuples recorded by the collector
	Shed          int64 // tuples shed at bounded ingress queues
	OutboxDropped int64 // outbox drops: overflow without a WAL, drop faults, failed writes, shutdown leftovers
	NoRoute       int64 // tuples discarded for lack of any route
	InFlight      int64 // queued, in a worker's current run, or outbox-buffered at snapshot
}

// Assemble builds the ledger from a cluster stats poll (nil entries — e.g.
// killed nodes — are skipped), the collector's delivered count, and the
// source drivers' emitted/skipped totals.
func Assemble(stats []*engine.NodeStats, delivered, sources, srcDropped int64) Ledger {
	l := Ledger{Sources: sources, SrcDropped: srcDropped, Delivered: delivered}
	for _, s := range stats {
		if s == nil {
			continue
		}
		l.Shed += s.Shed
		l.OutboxDropped += s.OutboxDropped
		l.NoRoute += s.DroppedNoRoute
		l.InFlight += int64(s.QueueLen) + s.WorkerInFlight + s.OutboxPending
	}
	return l
}

// Residual is sources minus every accounted disposition. Zero means exact
// conservation; positive means tuples vanished without being counted
// anywhere (silent loss — always a bug); negative means double counting
// (e.g. a run counted dropped after its write partially reached the peer).
func (l Ledger) Residual() int64 {
	return l.Sources - l.SrcDropped - l.Delivered - l.Shed - l.OutboxDropped - l.NoRoute - l.InFlight
}

// Check validates conservation. slack bounds how negative the residual may
// go: a severed connection can fail a write after the peer already received
// the run (counted dropped and delivered), so episodes that injected sever
// faults pass the number of severs times the outbox batch bound. Positive
// residuals are never excused.
func (l Ledger) Check(slack int64) error {
	r := l.Residual()
	if r > 0 {
		return fmt.Errorf("check: conservation violated: %d tuples unaccounted for (silent loss)\n%s", r, l)
	}
	if r < -slack {
		return fmt.Errorf("check: conservation violated: %d tuples double-counted (slack %d)\n%s", -r, slack, l)
	}
	return nil
}

// String renders the account for failure messages.
func (l Ledger) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  sources        %d\n", l.Sources)
	fmt.Fprintf(&b, "  src_dropped    %d\n", l.SrcDropped)
	fmt.Fprintf(&b, "  delivered      %d\n", l.Delivered)
	fmt.Fprintf(&b, "  shed           %d\n", l.Shed)
	fmt.Fprintf(&b, "  outbox_dropped %d\n", l.OutboxDropped)
	fmt.Fprintf(&b, "  no_route       %d\n", l.NoRoute)
	fmt.Fprintf(&b, "  in_flight      %d\n", l.InFlight)
	fmt.Fprintf(&b, "  residual       %d", l.Residual())
	return b.String()
}

// CheckOutboxes verifies each reachable node's outbox identity
// enqueued == sent + dropped + pending, which must hold exactly at any
// stats snapshot taken at quiescence.
func CheckOutboxes(stats []*engine.NodeStats) error {
	for i, s := range stats {
		if s == nil {
			continue
		}
		if s.OutboxEnqueued != s.OutboxSent+s.OutboxDropped+s.OutboxPending {
			return fmt.Errorf("check: node %d outbox identity violated: enqueued %d != sent %d + dropped %d + pending %d",
				i, s.OutboxEnqueued, s.OutboxSent, s.OutboxDropped, s.OutboxPending)
		}
	}
	return nil
}
