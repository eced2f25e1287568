package engine

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/trace"
)

func TestTupleWireRoundTrip(t *testing.T) {
	f := func(stream int32, ts, seq int64, val float64) bool {
		in := Tuple{Stream: stream, Ts: ts, Seq: seq, Value: val}
		batch, err := NewTupleReader(bytes.NewReader(appendFrames(nil, []Tuple{in}))).ReadBatch()
		if err != nil || len(batch) != 1 {
			return false
		}
		out := batch[0]
		if math.IsNaN(val) {
			return out.Stream == in.Stream && out.Ts == in.Ts && out.Seq == in.Seq && math.IsNaN(out.Value)
		}
		return out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTupleWriterBatches(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTupleWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tw.SendBatch([]Tuple{{Stream: int32(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes written before Flush", buf.Len())
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 1+10*(frameHeaderSize+tupleFrameSize) {
		t.Fatalf("buffer = %d bytes", buf.Len())
	}
	if buf.Bytes()[0] != connTuples {
		t.Fatal("preamble missing")
	}
}

// pipeline builds in → a → b with the given costs; both delay-style.
func pipeline(t *testing.T, costA, costB float64) *query.Graph {
	t.Helper()
	b := query.NewBuilder()
	in := b.Input("I")
	s := b.Delay("a", costA, 1, in)
	b.Delay("b", costB, 1, s)
	return b.MustBuild()
}

func TestBuildSpecs(t *testing.T) {
	g := pipeline(t, 0.001, 0.002)
	plan, _ := placement.NewPlan([]int{0, 1}, 2)
	caps := []float64{1, 2}
	addrs := []string{"127.0.0.1:1111", "127.0.0.1:2222"}
	specs, err := BuildSpecs(g, plan, caps, addrs, "127.0.0.1:9999")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("%d specs", len(specs))
	}
	if len(specs[0].Ops) != 1 || specs[0].Ops[0].Name != "a" {
		t.Fatalf("node 0 ops: %+v", specs[0].Ops)
	}
	if len(specs[1].Ops) != 1 || specs[1].Ops[0].Name != "b" {
		t.Fatalf("node 1 ops: %+v", specs[1].Ops)
	}
	// Node 0: input stream routes locally to a; a.out routes remotely to node 1.
	aOut := specs[0].Ops[0].Out
	foundRemote := false
	for _, d := range specs[0].Routes[aOut] {
		if !d.Local && d.Addr == addrs[1] {
			foundRemote = true
		}
	}
	if !foundRemote {
		t.Fatalf("a.out must route to node 1: %+v", specs[0].Routes)
	}
	// Node 1: a.out routes locally to b; b.out routes to the collector.
	bIn := specs[1].Ops[0].Inputs[0]
	if len(specs[1].Routes[bIn]) == 0 || !specs[1].Routes[bIn][0].Local {
		t.Fatalf("node 1 must consume a.out locally: %+v", specs[1].Routes)
	}
	bOut := specs[1].Ops[0].Out
	if len(specs[1].Routes[bOut]) != 1 || specs[1].Routes[bOut][0].Addr != "127.0.0.1:9999" {
		t.Fatalf("sink must route to collector: %+v", specs[1].Routes[bOut])
	}
	// Errors.
	if _, err := BuildSpecs(g, plan, caps, addrs[:1], ""); err == nil {
		t.Fatal("addr-count mismatch must error")
	}
	badPlan, _ := placement.NewPlan([]int{0}, 2)
	if _, err := BuildSpecs(g, badPlan, caps, addrs, ""); err == nil {
		t.Fatal("plan-size mismatch must error")
	}
}

func TestInputNodes(t *testing.T) {
	b := query.NewBuilder()
	in := b.Input("I")
	b.Map("m1", 0.001, in)
	b.Map("m2", 0.001, in)
	g := b.MustBuild()
	plan, _ := placement.NewPlan([]int{0, 1}, 2)
	nodes := InputNodes(g, plan)
	got := nodes[g.Inputs()[0]]
	if len(got) != 2 {
		t.Fatalf("input must be delivered to both nodes: %v", got)
	}
}

func TestNodeRejectsBadCapacity(t *testing.T) {
	if _, err := NewNode("127.0.0.1:0", 0); err == nil {
		t.Fatal("zero capacity must error")
	}
}

func TestControlUnknownCommand(t *testing.T) {
	n, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ctl, err := DialControl(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if _, err := ctl.call(&controlRequest{Cmd: "bogus"}); err == nil {
		t.Fatal("unknown command must error")
	}
	if _, err := ctl.call(&controlRequest{Cmd: "deploy"}); err == nil {
		t.Fatal("deploy without spec must error")
	}
}

func TestDeployWhileStartedRejected(t *testing.T) {
	n, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ctl, err := DialControl(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	if err := ctl.Start(); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Deploy(&NodeSpec{NodeID: 0}); err == nil {
		t.Fatal("deploy while started must error")
	}
	if err := ctl.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Deploy(&NodeSpec{NodeID: 0}); err != nil {
		t.Fatalf("deploy after stop: %v", err)
	}
}

// End-to-end: a two-node pipeline driven at a known rate must show the
// predicted utilizations and deliver sink tuples to the collector with
// small latency.
func TestClusterEndToEnd(t *testing.T) {
	g := pipeline(t, 0.002, 0.001)
	plan, _ := placement.NewPlan([]int{0, 1}, 2)
	caps := []float64{1, 1}
	cl, err := StartCluster(caps)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}

	// Constant 100 tuples/s for 1.2s: node0 load 0.2, node1 load 0.1.
	src := &SourceDriver{
		Stream: g.Inputs()[0],
		Trace:  trace.New("const", 1, []float64{100, 100}),
		Addrs:  []string{cl.Nodes[0].Addr()},
	}
	injected, err := src.Run(1200*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if injected < 100 || injected > 140 {
		t.Fatalf("injected = %d, want ~120", injected)
	}
	if err := cl.AwaitQuiescence(5*time.Second, 50*time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	sts, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sts[0].Utilization-0.2) > 0.1 {
		t.Fatalf("node 0 utilization = %g, want ~0.2", sts[0].Utilization)
	}
	if math.Abs(sts[1].Utilization-0.1) > 0.08 {
		t.Fatalf("node 1 utilization = %g, want ~0.1", sts[1].Utilization)
	}
	count, mean, _, _, _ := cl.Collector.LatencyStats()
	if count < int64(float64(injected)*0.8) {
		t.Fatalf("collector saw %d of %d tuples", count, injected)
	}
	if mean > 0.1 {
		t.Fatalf("mean latency %gs too high for an unloaded pipeline", mean)
	}
	// Measured operator costs should approximate the configured ones.
	if c, ok := sts[0].OpCost[0]; !ok || math.Abs(c-0.002) > 1e-9 {
		t.Fatalf("node 0 measured op cost = %v, want 0.002", sts[0].OpCost)
	}
	if err := cl.Stop(); err != nil {
		t.Fatal(err)
	}
}

// Overload: drive the node beyond capacity; utilization pins at 1, queue
// grows and latency climbs — the engine-level signature of infeasibility.
func TestClusterOverload(t *testing.T) {
	g := pipeline(t, 0.01, 0.0001)
	plan, _ := placement.NewPlan([]int{0, 0}, 1)
	caps := []float64{1}
	cl, err := StartCluster(caps)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	src := &SourceDriver{
		Stream: g.Inputs()[0],
		Trace:  trace.New("const", 1, []float64{300, 300}),
		Addrs:  []string{cl.Nodes[0].Addr()},
	}
	if _, err := src.Run(1*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	sts, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].Utilization < 0.9 {
		t.Fatalf("overloaded utilization = %g, want ~1", sts[0].Utilization)
	}
	if sts[0].QueueLen < 50 {
		t.Fatalf("overloaded queue = %d, want growing backlog", sts[0].QueueLen)
	}
	_, _, _, p99, _ := cl.Collector.LatencyStats()
	if p99 < 0.05 {
		t.Fatalf("overloaded p99 latency = %g, want large", p99)
	}
}

// ConnectCluster attaches to already-running nodes (the rodnode workflow)
// and drives them exactly like an owned cluster.
func TestConnectClusterToExternalNodes(t *testing.T) {
	var nodes []*Node
	var addrs []string
	for i := 0; i < 2; i++ {
		n, err := NewNode("127.0.0.1:0", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes = append(nodes, n)
		addrs = append(addrs, n.Addr())
	}
	cl, err := ConnectCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := cl.Addrs(); len(got) != 2 || got[0] != addrs[0] {
		t.Fatalf("attached addrs = %v", got)
	}
	g := pipeline(t, 0.001, 0.001)
	plan, _ := placement.NewPlan([]int{0, 1}, 2)
	caps := []float64{1, 1}
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	src := &SourceDriver{
		Stream: g.Inputs()[0],
		Trace:  trace.New("const", 1, []float64{100}),
		Addrs:  []string{addrs[0]},
	}
	if _, err := src.Run(500*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.AwaitQuiescence(5*time.Second, 50*time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	sts, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sts[0].Injected == 0 {
		t.Fatal("attached cluster processed nothing")
	}
	// Closing the attachment must leave the external nodes alive.
	cl.Close()
	if nodes[0].QueueLen() < 0 {
		t.Fatal("unreachable")
	}
	ctl, err := DialControl(addrs[0])
	if err != nil {
		t.Fatalf("external node died with the attachment: %v", err)
	}
	ctl.Close()
}

// A join on the engine: pair throughput must track the paper's w·r_u·r_v
// load model, as it does in the simulator.
func TestEngineJoinThroughput(t *testing.T) {
	b := query.NewBuilder()
	l := b.Input("L")
	r := b.Input("R")
	b.Join("j", 0.0004, 0.1, 1.0, l, r)
	g := b.MustBuild()
	plan, _ := placement.NewPlan([]int{0}, 1)
	caps := []float64{1}
	cl, err := StartCluster(caps)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{}, 2)
	for _, in := range g.Inputs() {
		src := &SourceDriver{
			Stream: in,
			Trace:  trace.New("const", 1, []float64{30, 30}),
			Addrs:  []string{cl.Nodes[0].Addr()},
		}
		go func() {
			src.Run(1500*time.Millisecond, stop) //nolint:errcheck
			done <- struct{}{}
		}()
	}
	<-done
	<-done
	if err := cl.AwaitQuiescence(5*time.Second, 50*time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	sts, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Expected pairs/s = w·rL·rR = 900; load = 900·0.0004 = 0.36.
	if sts[0].Utilization < 0.15 || sts[0].Utilization > 0.6 {
		t.Fatalf("join utilization = %g, want ~0.36", sts[0].Utilization)
	}
	// Output rate ≈ sel·w·rL·rR = 90/s ≈ 1.5× the 60/s input.
	count, _, _, _, _ := cl.Collector.LatencyStats()
	if count < 60 {
		t.Fatalf("join emitted only %d tuples", count)
	}
}

// The Section 7.1 procedure: distribute operators randomly, run for a
// while, and derive operator costs and selectivities from the gathered
// statistics. The measured load model must match the configured one.
func TestStatisticsDrivenLoadModel(t *testing.T) {
	b := query.NewBuilder()
	in := b.Input("I")
	f := b.Filter("f", 0.0020, 0.5, in)
	m := b.Map("m", 0.0010, f)
	b.Filter("g", 0.0015, 0.25, m)
	g := b.MustBuild()

	plan, _ := placement.NewPlan([]int{0, 1, 0}, 2)
	caps := []float64{1, 1}
	cl, err := StartCluster(caps)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	src := &SourceDriver{
		Stream: g.Inputs()[0],
		Trace:  trace.New("const", 1, []float64{200, 200}),
		Addrs:  []string{cl.Nodes[plan.NodeOf[0]].Addr()},
	}
	if _, err := src.Run(1200*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.AwaitQuiescence(5*time.Second, 50*time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	sts, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Merge per-node measurements into one view.
	cost := map[int]float64{}
	sel := map[int]float64{}
	for _, s := range sts {
		for id, c := range s.OpCost {
			cost[id] = c
		}
		for id, v := range s.OpSel {
			sel[id] = v
		}
	}
	for _, op := range g.Ops() {
		c, ok := cost[int(op.ID)]
		if !ok {
			t.Fatalf("no measured cost for %s", op.Name)
		}
		if math.Abs(c-op.Cost) > op.Cost*0.02 {
			t.Fatalf("%s measured cost %g, configured %g", op.Name, c, op.Cost)
		}
		s, ok := sel[int(op.ID)]
		if !ok {
			t.Fatalf("no measured selectivity for %s", op.Name)
		}
		if math.Abs(s-op.Selectivity) > 0.05 {
			t.Fatalf("%s measured selectivity %g, configured %g", op.Name, s, op.Selectivity)
		}
	}
	// Rebuild the graph from measurements and compare load models: the
	// measured L^o must match the configured one.
	nb := query.NewBuilder()
	nin := nb.Input("I")
	nf := nb.Filter("f", cost[0], sel[0], nin)
	nm := nb.Map("m", cost[1], nf)
	nb.Filter("g", cost[2], sel[2], nm)
	ng := nb.MustBuild()
	lmWant, err := query.BuildLoadModel(g)
	if err != nil {
		t.Fatal(err)
	}
	lmGot, err := query.BuildLoadModel(ng)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < lmWant.Coef.Rows; j++ {
		want := lmWant.Coef.At(j, 0)
		got := lmGot.Coef.At(j, 0)
		if math.Abs(got-want) > want*0.1 {
			t.Fatalf("measured L^o[%d] = %g, configured %g", j, got, want)
		}
	}
}

// A node with double capacity finishes the same work at half the
// utilization — the virtual-CPU model respects heterogeneity.
func TestHeterogeneousCapacity(t *testing.T) {
	g := pipeline(t, 0.002, 0.002)
	plan, _ := placement.NewPlan([]int{0, 1}, 2)
	caps := []float64{1, 2}
	cl, err := StartCluster(caps)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	src := &SourceDriver{
		Stream: g.Inputs()[0],
		Trace:  trace.New("const", 1, []float64{150, 150}),
		Addrs:  []string{cl.Nodes[0].Addr()},
	}
	if _, err := src.Run(1100*time.Millisecond, nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.AwaitQuiescence(5*time.Second, 50*time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	sts, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Same per-tuple cost: node 0 (capacity 1) ≈ 0.3 busy, node 1
	// (capacity 2) ≈ 0.15.
	if math.Abs(sts[0].Utilization-0.3) > 0.12 {
		t.Fatalf("node 0 utilization = %g, want ~0.3", sts[0].Utilization)
	}
	ratio := sts[0].Utilization / sts[1].Utilization
	if ratio < 1.5 || ratio > 3 {
		t.Fatalf("capacity-2 node should run at ~half utilization: %g vs %g",
			sts[0].Utilization, sts[1].Utilization)
	}
}

func TestSourceDriverStopChannel(t *testing.T) {
	n, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	stop := make(chan struct{})
	done := make(chan int64)
	src := &SourceDriver{
		Stream: 0,
		Trace:  trace.New("const", 1, []float64{1000}),
		Addrs:  []string{n.Addr()},
	}
	go func() {
		inj, _ := src.Run(10*time.Second, stop)
		done <- inj
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	select {
	case inj := <-done:
		if inj < 10 {
			t.Fatalf("injected = %d before stop", inj)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("source did not stop")
	}
}

func TestSourceDriverSpeedup(t *testing.T) {
	n, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	// 10 trace seconds at rate 50 played 10x fast in ~0.5s wall: rate 500/s.
	src := &SourceDriver{
		Stream:  0,
		Trace:   trace.New("const", 1, []float64{50, 50, 50, 50, 50, 50, 50, 50, 50, 50}),
		Addrs:   []string{n.Addr()},
		Speedup: 10,
	}
	injected, err := src.Run(500*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if injected < 180 || injected > 320 {
		t.Fatalf("injected = %d, want ~250 (10x speedup)", injected)
	}
}

func TestCollectorReset(t *testing.T) {
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	conn, err := NewTupleWriterDial(col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 5; i++ {
		conn.SendBatch([]Tuple{{Ts: time.Now().UnixNano()}}) //nolint:errcheck
	}
	conn.Flush()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if count, _, _, _, _ := col.LatencyStats(); count == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("collector never saw the tuples")
		}
		time.Sleep(10 * time.Millisecond)
	}
	col.Reset()
	if count, _, _, _, _ := col.LatencyStats(); count != 0 {
		t.Fatalf("count after reset = %d", count)
	}
}
