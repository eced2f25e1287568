package check

import (
	"reflect"
	"strings"
	"testing"

	"rodsp/internal/engine"
	"rodsp/internal/obs"
	"rodsp/internal/query"
)

func TestGenerateRecoverDeterministic(t *testing.T) {
	a, err := GenerateRecover(11, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateRecover(11, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumOps() != b.Graph.NumOps() || a.Wall != b.Wall ||
		!reflect.DeepEqual(a.Schedule, b.Schedule) || a.Victim != b.Victim {
		t.Fatalf("same seed produced different recover scenarios: %+v vs %+v", a, b)
	}
	if len(a.Schedule) != 2 || a.Schedule[0].Kind != FaultKill || a.Schedule[1].Kind != FaultRestart ||
		a.Schedule[0].Node != a.Victim || a.Schedule[1].Node != a.Victim || a.Schedule[1].At <= a.Schedule[0].At {
		t.Fatalf("recover schedule is not a kill then a restart of the victim: %+v", a.Schedule)
	}
	if _, err := GenerateRecover(1, 2); err == nil {
		t.Fatal("recover scenario accepted a 2-node cluster")
	}
}

// TestGenerateRecoverVictimInterior pins the placement shape the ledger
// argument depends on: every chain's middle operator lives on the victim,
// and no source-facing (head) or sink-facing (tail) operator does — the
// victim is strictly interior to the durable ack protocol.
func TestGenerateRecoverVictimInterior(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		sc, err := GenerateRecover(seed, 3+int(seed%3))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range sc.Graph.Ops() {
			home := sc.Plan.NodeOf[op.ID]
			mid := len(sc.Graph.Consumers(op.Out)) > 0 && !sc.Graph.Stream(op.Inputs[0]).Input()
			if mid && home != sc.Victim {
				t.Fatalf("seed %d: middle op %d placed on %d, not victim %d", seed, op.ID, home, sc.Victim)
			}
			if !mid && home == sc.Victim {
				t.Fatalf("seed %d: head/tail op %d placed on victim %d", seed, op.ID, home)
			}
		}
	}
}

// TestGenerateRecoverShapes pins the alternation: odd seeds build plain
// chains, even seeds merge two chains that cross the victim in one union
// off it, so every two consecutive seeds (rodcheck -recover 2) run both.
func TestGenerateRecoverShapes(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		sc, err := GenerateRecover(seed, 3+int(seed%3))
		if err != nil {
			t.Fatal(err)
		}
		var unions []query.OpID
		for _, op := range sc.Graph.Ops() {
			if op.Kind == query.Union {
				unions = append(unions, op.ID)
			}
		}
		if seed%2 == 1 {
			if len(unions) != 0 {
				t.Fatalf("seed %d: chain shape has unions %v", seed, unions)
			}
			continue
		}
		if len(unions) != 1 {
			t.Fatalf("seed %d: merge shape has %d unions, want 1", seed, len(unions))
		}
		u := sc.Graph.Op(unions[0])
		if len(u.Inputs) != 2 || u.Selectivity != 1 || sc.Plan.NodeOf[u.ID] == sc.Victim {
			t.Fatalf("seed %d: union %+v on node %d (victim %d)", seed, u, sc.Plan.NodeOf[u.ID], sc.Victim)
		}
		for _, in := range u.Inputs {
			if p := sc.Graph.Stream(in).Producer; sc.Plan.NodeOf[p] != sc.Victim {
				t.Fatalf("seed %d: union input %d produced off the victim", seed, in)
			}
		}
	}
}

// runRecover runs one recover episode and gates it on the episode's own
// invariants plus its bookkeeping.
func runRecover(t *testing.T, seed int64) {
	if testing.Short() {
		t.Skip("drives a live loopback cluster through a kill and restart")
	}
	ev := obs.NewEventLog(256)
	sc, err := GenerateRecover(seed, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunRecoverEpisode(sc, ev)
	if err != nil {
		t.Fatalf("recover episode infrastructure error: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("recover episode violated invariants: %v", res.Violation)
	}
	if res.Sources == 0 || res.Delivered == 0 {
		t.Fatalf("episode moved no tuples: sources=%d delivered=%d", res.Sources, res.Delivered)
	}
	if res.RecoverMillis <= 0 {
		t.Fatalf("restart latency not recorded: %v ms", res.RecoverMillis)
	}
	if res.WALDir != "" {
		t.Fatalf("passing episode left its WAL root behind: %s", res.WALDir)
	}
}

func TestRunRecoverEpisode(t *testing.T) { runRecover(t, 1) }

// The merge shape: two chains cross the killed victim and meet in a union
// on a survivor, whose output must reach the sink exactly once.
func TestRunRecoverEpisodeMerge(t *testing.T) { runRecover(t, 2) }

// A node with a WAL waits for ring room instead of dropping, and Recover
// schedules no Drop fault, so the gate fails a durable episode with one
// outbox drop even though its ledger balances; the same result passes once
// the drop is gone, and a strict (volatile) episode may drop and balance.
func TestGateRejectsDurableOutboxDrop(t *testing.T) {
	result := func(dropped int64) *EpisodeResult {
		stats := []*engine.NodeStats{
			{OutboxEnqueued: 10 + dropped, OutboxSent: 10, OutboxDropped: dropped},
			{},
		}
		return &EpisodeResult{Stats: stats, Sources: 100, Delivered: 100 - dropped,
			Ledger: Assemble(stats, 100-dropped, 100, 0)}
	}
	durable := &Scenario{Class: Recover}
	if !durable.durable() {
		t.Fatal("a Recover scenario is not durable")
	}
	err := gate(durable, result(1))
	if err == nil || !strings.Contains(err.Error(), "dropped by outboxes") {
		t.Fatalf("a durable episode with an outbox drop: %v", err)
	}
	if err := gate(durable, result(0)); err != nil {
		t.Fatalf("a durable episode without drops: %v", err)
	}
	if err := gate(&Scenario{Class: Strict}, result(1)); err != nil {
		t.Fatalf("a strict episode whose drop balances: %v", err)
	}
}
