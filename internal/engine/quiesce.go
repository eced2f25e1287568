package engine

import (
	"fmt"
	"strings"
	"time"
)

// Quiescence barrier — deterministic "the pipeline has drained" detection.
//
// Tests and the conformance harness (internal/check) need a moment at which
// the cluster's counters are final: every ingress queue empty, every outbox
// flushed or dropped, and no tuple still moving between nodes. Fixed sleeps
// guess at that moment and flake on slow machines; the barrier instead polls
// the existing control-plane stats until the cluster is *drained* (queues and
// outboxes empty on every reachable node) and *stable* (every counter,
// including the collector's delivered count, unchanged for a settle window).
// No new hot-path locks: the barrier reads the same snapshots the monitor
// already polls.

// DefaultQuiescePoll is the barrier's stats-polling period.
const DefaultQuiescePoll = 10 * time.Millisecond

// AwaitQuiescence blocks until the cluster drains and its counters settle,
// or the timeout elapses. A node whose control channel is down (e.g. killed
// by fault injection) is skipped — its counters are gone regardless — but at
// least one node must remain reachable. settle is how long the drained
// fingerprint must hold (default 50ms); timeout defaults to 10s.
//
// Callers should heal link faults first: a severed outbox retains pending
// tuples across reconnect backoff and can legitimately take seconds to drain.
func (cl *Cluster) AwaitQuiescence(timeout, settle time.Duration) error {
	return awaitQuiet("cluster", timeout, settle, true, cl.Stats, cl.Collector)
}

// AwaitSettled waits only for counter stability, not for empty queues and
// outboxes: after a node kill, the survivors' outboxes toward the dead peer
// hold pending tuples that can never flush, yet the rest of the cluster
// still reaches a stable (auditable) state.
func (cl *Cluster) AwaitSettled(timeout, settle time.Duration) error {
	return awaitQuiet("cluster", timeout, settle, false, cl.Stats, cl.Collector)
}

// AwaitDrained is the single-node barrier used by tests that drive a Node
// directly (no Cluster): it polls Stats until the ingress queue and outbox
// are empty and the counters hold still for settle.
func (n *Node) AwaitDrained(timeout, settle time.Duration) error {
	return awaitQuiet("node", timeout, settle, true, func() ([]*NodeStats, error) {
		return []*NodeStats{n.Stats()}, nil
	}, nil)
}

// awaitQuiet is the one barrier loop: it polls stats (and the collector's
// delivered count, when col is set) every DefaultQuiescePoll until at
// least one node is reachable, the nodes are drained if requireDrained,
// and the fingerprint has held still for settle (default 50ms), or fails
// naming what after timeout (default 10s).
func awaitQuiet(what string, timeout, settle time.Duration, requireDrained bool,
	stats func() ([]*NodeStats, error), col *Collector) error {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	if settle <= 0 {
		settle = 50 * time.Millisecond
	}
	start := time.Now()
	var last string
	var since time.Time
	var why string
	for {
		sts, err := stats()
		fp, drained, reach := quiesceFingerprint(sts, col)
		now := time.Now()
		if fp != last {
			last, since = fp, now
		}
		switch {
		case reach == 0:
			why = "no node reachable"
			if err != nil {
				why += ": " + err.Error()
			}
		case requireDrained && !drained:
			why = "not drained: " + fp
		case now.Sub(since) >= settle:
			return nil
		default:
			why = "counters still moving: " + fp
		}
		if now.Sub(start) >= timeout {
			return fmt.Errorf("engine: %s not quiescent after %v (%s)", what, timeout, why)
		}
		time.Sleep(DefaultQuiescePoll)
	}
}

// quiesceFingerprint condenses one stats poll into a comparable string plus
// a drained flag. The fingerprint covers every conservation-relevant counter
// so "stable" means no tuple moved anywhere between two polls.
func quiesceFingerprint(stats []*NodeStats, col *Collector) (fp string, drained bool, reachable int) {
	var b strings.Builder
	drained = true
	for i, s := range stats {
		if s == nil {
			fmt.Fprintf(&b, "n%d:down;", i)
			continue
		}
		reachable++
		if s.QueueLen != 0 || s.WorkerInFlight != 0 || s.OutboxPending != 0 {
			drained = false
		}
		fmt.Fprintf(&b, "n%d:q%d,w%d,i%d,e%d,s%d,nr%d,oe%d,os%d,od%d,op%d;",
			i, s.QueueLen, s.WorkerInFlight, s.Injected, s.Emitted, s.Shed, s.DroppedNoRoute,
			s.OutboxEnqueued, s.OutboxSent, s.OutboxDropped, s.OutboxPending)
	}
	if col != nil {
		n, _, _, _, _ := col.LatencyStats()
		fmt.Fprintf(&b, "sink:%d", n)
	}
	if reachable == 0 {
		drained = false
	}
	return b.String(), drained, reachable
}
