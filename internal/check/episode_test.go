package check

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"rodsp/internal/obs"
	"rodsp/internal/query"
)

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(7, 4, Strict)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(7, 4, Strict)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumOps() != b.Graph.NumOps() || a.Wall != b.Wall ||
		len(a.Schedule) != len(b.Schedule) || a.Severs != b.Severs {
		t.Fatalf("same seed produced different scenarios: %+v vs %+v", a, b)
	}
	for i := range a.Schedule {
		if !reflect.DeepEqual(a.Schedule[i], b.Schedule[i]) {
			t.Fatalf("schedule[%d] differs: %+v vs %+v", i, a.Schedule[i], b.Schedule[i])
		}
	}
	if len(a.Plan.NodeOf) != len(b.Plan.NodeOf) {
		t.Fatal("placements differ")
	}
}

// Scheduled migrations may land on any other node: relay entries name the
// consumer they serve, so a destination that already carries one of the
// operator's streams (for another consumer, or from an earlier move) is
// no hazard. Over seeds 0–29 the generator must draw such moves — the
// hand-overs the Strict ledger then holds exact.
func TestMigrationsLandOnRoutedNodes(t *testing.T) {
	onRouted := 0
	for seed := int64(0); seed < 30; seed++ {
		sc, err := Generate(seed, 4, Strict)
		if err != nil {
			t.Fatal(err)
		}
		// routed[s][n]: node n holds, or held, a route for stream s — its
		// producer's or a consumer's home, now or before a move.
		routed := map[query.StreamID]map[int]bool{}
		mark := func(o *query.Operator, node int) {
			for _, sid := range append([]query.StreamID{o.Out}, o.Inputs...) {
				if routed[sid] == nil {
					routed[sid] = map[int]bool{}
				}
				routed[sid][node] = true
			}
		}
		nodeOf := append([]int(nil), sc.Plan.NodeOf...)
		for _, o := range sc.Graph.Ops() {
			mark(o, nodeOf[o.ID])
		}
		for _, op := range sc.Schedule {
			if op.Kind != FaultMigrate {
				continue
			}
			o := sc.Graph.Op(query.OpID(op.Op))
			if op.Node != nodeOf[o.ID] || op.To == op.Node {
				t.Fatalf("seed %d: migration of op %d from %d to %d, but it is on node %d", seed, o.ID, op.Node, op.To, nodeOf[o.ID])
			}
			if slices.ContainsFunc(append([]query.StreamID{o.Out}, o.Inputs...), func(sid query.StreamID) bool { return routed[sid][op.To] }) {
				onRouted++
			}
			nodeOf[o.ID] = op.To
			mark(o, op.To)
		}
	}
	if onRouted == 0 {
		t.Fatal("no scheduled migration over seeds 0–29 lands on a node that routes one of the operator's streams")
	}
	t.Logf("%d scheduled migrations land on a node already routing one of the operator's streams", onRouted)
}

func TestRunEpisodeStrict(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live loopback cluster")
	}
	ev := obs.NewEventLog(256)
	sc, err := Generate(1, 4, Strict)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEpisode(sc, ev)
	if err != nil {
		t.Fatalf("episode infrastructure error: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("strict episode violated invariants: %v", res.Violation)
	}
	if res.Sources == 0 || res.Delivered == 0 {
		t.Fatalf("episode moved no tuples: sources=%d delivered=%d", res.Sources, res.Delivered)
	}
}

// TestRunEpisodePerturbedLedgerFails closes the loop on the negative test:
// a real run's snapshot, perturbed by a one-tuple drop undercount, must fail
// the gate the run just passed — for a strict episode and across a
// recover episode's crash alike, so a class whose gate stops checking the
// ledger fails here.
func TestRunEpisodePerturbedLedgerFails(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live loopback cluster")
	}
	for _, tc := range []struct {
		name string
		gen  func() (*Scenario, error)
	}{
		{"strict", func() (*Scenario, error) { return Generate(2, 3, Strict) }},
		{"recover", func() (*Scenario, error) { return GenerateRecover(2, 3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := tc.gen()
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunEpisode(sc, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation != nil {
				t.Fatalf("baseline run failed: %v", res.Violation)
			}
			if err := gate(sc, res); err != nil {
				t.Fatalf("baseline snapshot rejected: %v", err)
			}
			res.Ledger.OutboxDropped-- // inject the off-by-one
			if err := gate(sc, res); err == nil {
				t.Fatal("perturbed snapshot passed: off-by-one drop undercount not caught")
			}
		})
	}
}

// TestScheduleOpsRoundTrip pins the schedule vocabulary: every fault kind
// has a name and an action in the applier, and sorting a schedule keeps
// same-time operations in insertion order.
func TestScheduleOpsRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for k := FaultKind(0); k < numFaultKinds; k++ {
		name := k.String()
		if name == "?" || seen[name] {
			t.Fatalf("fault kind %d has name %q", k, name)
		}
		seen[name] = true
		if actions[k] == nil {
			t.Fatalf("the applier has no action for %s", k)
		}
	}
	if got := numFaultKinds.String(); got != "?" {
		t.Fatalf("out-of-range kind named %q", got)
	}

	var ops []FaultOp
	for k := numFaultKinds - 1; k >= 0; k-- {
		ops = append(ops, FaultOp{At: time.Duration(k%2) * time.Second, Kind: k})
	}
	sortSchedule(ops)
	prev := FaultOp{At: -1, Kind: numFaultKinds}
	for _, op := range ops {
		if op.At < prev.At || (op.At == prev.At && op.Kind > prev.Kind) {
			t.Fatalf("sort reordered the schedule: %s@%v after %s@%v", op.Kind, op.At, prev.Kind, prev.At)
		}
		prev = op
	}
}

func TestRunEpisodeKill(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a live loopback cluster")
	}
	sc, err := Generate(3, 4, KillNode)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunEpisode(sc, nil)
	if err != nil {
		t.Fatalf("kill episode infrastructure error: %v", err)
	}
	if res.Violation != nil {
		t.Fatalf("kill episode violated invariants: %v", res.Violation)
	}
}
