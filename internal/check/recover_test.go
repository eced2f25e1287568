package check

import (
	"reflect"
	"testing"

	"rodsp/internal/obs"
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

func TestRunRecoverEpisode(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live loopback cluster through a kill and restart")
	}
	ev := obs.NewEventLog(256)
	sc, err := GenerateRecover(1, 3)
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
