package sim

import (
	"reflect"
	"testing"

	"rodsp/internal/mat"
	"rodsp/internal/obs"
	"rodsp/internal/query"
	"rodsp/internal/trace"
)

func obsGraph(t *testing.T, cost float64) *query.Graph {
	t.Helper()
	b := query.NewBuilder()
	in := b.Input("I")
	b.Delay("d", cost, 1, in)
	return b.MustBuild()
}

// TestSimObsOverload drives the simulator past capacity and asserts the
// virtual-time observability story mirrors the engine monitor's: overload
// onset at saturation, headroom series going non-positive, and samples
// stamped with simulation (not wall) time.
func TestSimObsOverload(t *testing.T) {
	g := obsGraph(t, 0.02) // 50 tuples/s capacity
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     []int{0},
		Capacities: mat.Vec{1},
		Sources: map[query.StreamID]*trace.Trace{
			g.Inputs()[0]: trace.New("const", 1, []float64{150, 150, 150, 150, 150}),
		},
		Duration: 5,
		Obs:      &ObsConfig{Interval: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Series == nil || res.EventLog == nil {
		t.Fatal("obs run must attach Series and EventLog to the result")
	}

	onset, ok := res.EventLog.Find(obs.EventOverloadOnset)
	if !ok {
		t.Fatalf("no overload_onset; events: %+v", res.EventLog.Events())
	}
	if onset.Level != obs.LevelWarn {
		t.Fatalf("onset level = %s", onset.Level)
	}
	if onset.T <= 0 || onset.T > 5 {
		t.Fatalf("onset stamped at %g, want simulation time in (0,5]", onset.T)
	}

	head := res.Series.Series(obs.MetricNodeHeadroom, "node", "0")
	if min, ok := head.Min(); !ok || min > 0 {
		t.Fatalf("headroom min = %g ok=%v, want ≤ 0 (true headroom is 1−150·0.02 = −2)", min, ok)
	}

	util := res.Series.Series(obs.MetricNodeUtilization, "node", "0")
	if lt, lv, ok := util.Last(); !ok || lv < 0.9 || lt > 5 {
		t.Fatalf("final utilization sample = (%g, %g, %v), want saturated within the horizon", lt, lv, ok)
	}

	// Queue depth grows roughly at the 100 tuples/s overload rate.
	if _, qv, ok := res.Series.Series(obs.MetricNodeQueueDepth, "node", "0").Last(); !ok || qv < 100 {
		t.Fatalf("final queue depth = %g, want a large backlog", qv)
	}
}

// TestSimObsFeasible asserts a comfortably feasible run raises no overload
// events and keeps the headroom near its model-predicted value.
func TestSimObsFeasible(t *testing.T) {
	g := obsGraph(t, 0.002) // load 0.2 at 100 tuples/s
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     []int{0},
		Capacities: mat.Vec{1},
		Sources: map[query.StreamID]*trace.Trace{
			g.Inputs()[0]: trace.New("const", 1, []float64{100, 100, 100, 100, 100}),
		},
		Duration: 5,
		Obs:      &ObsConfig{Interval: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.EventLog.Count(obs.EventOverloadOnset); n != 0 {
		t.Fatalf("%d overload events on a feasible run", n)
	}
	_, v, ok := res.Series.Series(obs.MetricNodeHeadroom, "node", "0").Last()
	if !ok || v < 0.7 || v > 0.9 {
		t.Fatalf("headroom = %g ok=%v, want ≈ 0.8", v, ok)
	}
	// Sink tuples flowed through the shared counters.
	if _, sv, ok := res.Series.Series(obs.MetricSinkTuples).Last(); !ok || sv == 0 {
		t.Fatalf("sink tuple series = %g ok=%v", sv, ok)
	}
	// Latency summary still populated via the shared digest.
	if res.LatencySamples == 0 || res.LatencyP95 <= 0 {
		t.Fatalf("latency summary missing: %+v", res)
	}
}

// TestSimObsSchemaIsTheCore asserts the simulator adds no series of its
// own: a run's schema is exactly the shared observer's, with and without
// the controller series.
func TestSimObsSchemaIsTheCore(t *testing.T) {
	g := obsGraph(t, 0.002)
	for _, ctrl := range []bool{false, true} {
		res, err := Run(Config{
			Graph:      g,
			NodeOf:     []int{0},
			Capacities: mat.Vec{1},
			Sources: map[query.StreamID]*trace.Trace{
				g.Inputs()[0]: trace.New("const", 1, []float64{100}),
			},
			Duration: 1,
			Obs:      &ObsConfig{Controller: ctrl},
		})
		if err != nil {
			t.Fatal(err)
		}
		core := obs.NewObserver(nil, nil, nil, obs.ObserverConfig{Nodes: 1})
		core.Source("I")
		if ctrl {
			core.Controller()
		}
		if got, want := res.Series.Names(), core.Series().Names(); !reflect.DeepEqual(got, want) {
			t.Fatalf("controller=%v: sim schema %v, core schema %v", ctrl, got, want)
		}
	}
}
