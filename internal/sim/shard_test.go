package sim

import (
	"math"
	"testing"

	"rodsp/internal/mat"
	"rodsp/internal/query"
	"rodsp/internal/trace"
)

// shardedChain builds I → a → b with a sharded k ways.
func shardedChain(t *testing.T, costA, costB float64, k int) (*query.Graph, query.ShardGroup) {
	t.Helper()
	b := query.NewBuilder()
	in := b.Input("I")
	s := b.Delay("a", costA, 1, in)
	b.Delay("b", costB, 1, s)
	g, err := query.Shards(b.MustBuild(), 0, query.DefaultShardConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	groups, err := query.ShardGroups(g)
	if err != nil {
		t.Fatal(err)
	}
	return g, groups[0]
}

// Keyed routing delivers each tuple to exactly one replica: total replica
// work equals the unsharded operator's, split per the slot table, and sink
// throughput is unchanged (no duplication, no loss).
func TestSimShardedRouting(t *testing.T) {
	g, grp := shardedChain(t, 0.002, 0.0005, 4)
	nodeOf := make([]int, g.NumOps())
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     nodeOf,
		Capacities: mat.Vec{4},
		Sources: map[query.StreamID]*trace.Trace{
			g.Inputs()[0]: trace.New("const", 1, []float64{400, 400, 400, 400, 400}),
		},
		Duration: 5,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every source tuple reaches the sink exactly once through the shards.
	if float64(res.TuplesOut) < float64(res.TuplesIn)*0.99 || res.TuplesOut > res.TuplesIn {
		t.Fatalf("out %d of in %d — keyed routing lost or duplicated", res.TuplesOut, res.TuplesIn)
	}
	// Total replica utilization == rate·cost (the unsharded load), and the
	// uniform table splits it ~evenly (16 of 64 slots each).
	var repl float64
	for _, r := range grp.Replicas {
		u := res.OpUtilization[r]
		if math.Abs(u-0.2) > 0.05 {
			t.Fatalf("replica %d utilization %g, want ~0.2 (uniform quarter of 0.8)", r, u)
		}
		repl += u
	}
	if math.Abs(repl-0.8) > 0.05 {
		t.Fatalf("summed replica utilization %g, want ~0.8", repl)
	}
}

// A fully skewed partition table concentrates all keyed work on one replica.
func TestSimPartitionTableHonored(t *testing.T) {
	g, grp := shardedChain(t, 0.002, 0.0005, 2)
	all0 := make([]int, query.ShardSlots)
	nodeOf := make([]int, g.NumOps())
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     nodeOf,
		Capacities: mat.Vec{4},
		Sources: map[query.StreamID]*trace.Trace{
			g.Inputs()[0]: trace.New("const", 1, []float64{200, 200, 200}),
		},
		Duration:   3,
		Partitions: map[query.StreamID][]int{grp.Stream: all0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if u := res.OpUtilization[grp.Replicas[0]]; u < 0.3 {
		t.Fatalf("replica 0 utilization %g, want the whole 0.4", u)
	}
	if u := res.OpUtilization[grp.Replicas[1]]; u != 0 {
		t.Fatalf("replica 1 utilization %g, want 0 under an all-0 table", u)
	}
}

// A scheduled repartition swaps the table mid-run: work shifts between
// replicas at the scheduled time, and the event is recorded.
func TestSimScheduledRepartition(t *testing.T) {
	g, grp := shardedChain(t, 0.002, 0.0005, 2)
	all0 := make([]int, query.ShardSlots)
	all1 := make([]int, query.ShardSlots)
	for i := range all1 {
		all1[i] = 1
	}
	nodeOf := make([]int, g.NumOps())
	res, err := Run(Config{
		Graph:      g,
		NodeOf:     nodeOf,
		Capacities: mat.Vec{4},
		Sources: map[query.StreamID]*trace.Trace{
			g.Inputs()[0]: trace.New("const", 1, []float64{200, 200, 200, 200}),
		},
		Duration:     4,
		Partitions:   map[query.StreamID][]int{grp.Stream: all0},
		Repartitions: []ScheduledRepartition{{Time: 2, Stream: grp.Stream, Slots: all1}},
		Obs:          &ObsConfig{Controller: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	u0 := res.OpUtilization[grp.Replicas[0]]
	u1 := res.OpUtilization[grp.Replicas[1]]
	if u0 < 0.15 || u1 < 0.15 {
		t.Fatalf("replica utilizations %g/%g, want ~0.2 each (half the run)", u0, u1)
	}
	if n := res.EventLog.Count("repartition"); n != 1 {
		t.Fatalf("want 1 repartition event, got %d", n)
	}
}

// Config validation for partition tables and scheduled repartitions.
func TestSimPartitionValidation(t *testing.T) {
	g, grp := shardedChain(t, 0.001, 0.0005, 2)
	nodeOf := make([]int, g.NumOps())
	base := Config{
		Graph:      g,
		NodeOf:     nodeOf,
		Capacities: mat.Vec{1},
		Sources: map[query.StreamID]*trace.Trace{
			g.Inputs()[0]: trace.New("const", 1, []float64{10}),
		},
		Duration: 1,
	}
	cfg := base
	cfg.Partitions = map[query.StreamID][]int{grp.Stream: {0, 1}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("short table must error")
	}
	cfg = base
	bad := query.UniformSlots(2)
	bad[0] = 5
	cfg.Partitions = map[query.StreamID][]int{grp.Stream: bad}
	if _, err := Run(cfg); err == nil {
		t.Fatal("out-of-range shard must error")
	}
	cfg = base
	cfg.Partitions = map[query.StreamID][]int{g.Inputs()[0]: query.UniformSlots(2)}
	if _, err := Run(cfg); err == nil {
		t.Fatal("non-keyed stream must error")
	}
	cfg = base
	cfg.Repartitions = []ScheduledRepartition{{Time: 0.5, Stream: g.Inputs()[0], Slots: query.UniformSlots(2)}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("repartition of a non-keyed stream must error")
	}
}
