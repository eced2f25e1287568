package engine

import (
	"sync"
	"testing"
	"time"

	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/trace"
)

// sinkTap counts what a collector admits per (sink stream, source key):
// each source stamps its tuples with keys of its own, and every output
// inherits its input's key, so the distinct pairs are the distinct source
// tuples delivered on each sink stream.
type sinkTap struct {
	mu   sync.Mutex
	seen map[[2]uint64]int
}

func (s *sinkTap) add(ts []Tuple) {
	s.mu.Lock()
	for _, t := range ts {
		s.seen[[2]uint64{uint64(t.Stream), t.Key}]++
	}
	s.mu.Unlock()
}

// distinct returns how many (sink stream, source tuple) pairs arrived.
func (s *sinkTap) distinct() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(len(s.seen))
}

// count returns how often key was admitted on any sink stream.
func (s *sinkTap) count(key uint64) (n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, c := range s.seen {
		if k[1] == key {
			n += c
		}
	}
	return n
}

// tapCollector replaces cl's collector, before Deploy, with one that also
// hands every tuple it admits to the returned tap.
func tapCollector(t *testing.T, cl *Cluster) *sinkTap {
	t.Helper()
	cl.Collector.Close()
	tap := &sinkTap{seen: map[[2]uint64]int{}}
	c, err := newCollector("127.0.0.1:0", tap.add)
	if err != nil {
		t.Fatal(err)
	}
	cl.Collector = c
	return tap
}

// sourceKeys numbers source i's tuples from (i+1)·2³², so no two sources
// share a key and no key is zero (unkeyed).
func sourceKeys(i int) func() uint64 {
	k := uint64(i+1) << 32
	return func() uint64 { k++; return k }
}

// mergeRun is one run's account: what the sources injected, what the sink
// admitted (all of it, and as distinct (sink stream, source tuple) pairs),
// the sink's duplicates, the nodes' ingress dedup drops, sheds and outbox
// drops, summed, and the longest a worker spent handing tuples to an outbox.
type mergeRun struct {
	injected, delivered, distinct, dups, dedupDropped int64
	shed, outboxDropped                               int64
	sendMaxMs                                         []float64 // per node
}

// drive is how runGraph runs a graph: every input's rate (tuples/s) and
// how long it injects, the nodes' config, whether the sink filters
// duplicates, a node to kill and restart mid-run, and what else to do
// while the sources inject.
type drive struct {
	rate      float64
	dur       time.Duration
	cfg       NodeConfig // a WAL root is made per run when wal is set
	wal       bool
	sinkDedup bool
	crash     *crash
	between   func(*Cluster)
}

// crash kills node at the given offset into the run and restarts it on
// its address and WAL directory down later.
type crash struct {
	node     int
	at, down time.Duration
}

// lightDrive is the crash-free drive: 400 tuples/s per input for 0.6 s,
// checkpoints every 25 ms.
func lightDrive(wal, sinkDedup bool, between func(*Cluster)) drive {
	return drive{rate: 400, dur: 600 * time.Millisecond, cfg: NodeConfig{CheckpointEvery: 25 * time.Millisecond},
		wal: wal, sinkDedup: sinkDedup, between: between}
}

// runGraph deploys g under plan on a fresh cluster of capacity-1 nodes,
// drives it as d says, waits for quiescence and accounts the run.
func runGraph(t *testing.T, g *query.Graph, plan *placement.Plan, d drive) mergeRun {
	t.Helper()
	caps := make([]float64, plan.N)
	for i := range caps {
		caps[i] = 1
	}
	cfg := d.cfg
	if d.wal {
		cfg.WALDir = t.TempDir()
	}
	cl, err := StartClusterConfig(caps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tap := tapCollector(t, cl)
	cl.Collector.SetDedup(d.sinkDedup)
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	var run mergeRun
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, in := range g.Inputs() {
		src := &SourceDriver{
			Stream: in,
			Trace:  trace.New("const", 1, []float64{d.rate}),
			Addrs:  []string{cl.Addrs()[plan.NodeOf[g.Consumers(in)[0]]]},
			Keys:   sourceKeys(i),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := src.Run(d.dur, nil)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			run.injected += n
			mu.Unlock()
		}()
	}
	if c := d.crash; c != nil {
		time.Sleep(c.at)
		if err := cl.Controls[c.node].Fault(FaultSpec{Kill: true}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(c.down)
		if err := cl.RestartNode(c.node); err != nil {
			t.Fatalf("restart: %v", err)
		}
	}
	if d.between != nil {
		d.between(cl)
	}
	wg.Wait()
	if err := cl.AwaitQuiescence(10*time.Second, 100*time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	run.delivered, _, _, _, _ = cl.Collector.LatencyStats()
	run.dups = cl.Collector.Duplicates()
	run.distinct = tap.distinct()
	sts, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sts {
		run.dedupDropped += s.DedupDropped
		run.shed += s.Shed
		run.outboxDropped += s.OutboxDropped
		run.sendMaxMs = append(run.sendMaxMs, s.SendMaxMs)
	}
	return run
}

// TestDurableMergeAndFanOutDeliverAll: with no fault injected, a durable
// cluster delivers every tuple of a union across two nodes and of a
// selectivity-2 interior stage, with or without the sink filter. Each node
// numbers the streams its operators produce, so a merged or multiplied
// stream is one dense sequence and no real tuple looks like a duplicate,
// neither at the next node's ingress nor at the sink.
func TestDurableMergeAndFanOutDeliverAll(t *testing.T) {
	union := func() (*query.Graph, *placement.Plan, int64) {
		b := query.NewBuilder()
		u := b.Union("u", 0.00002, b.Input("I1"), b.Input("I2"))
		b.Delay("d", 0.00002, 1, u)
		plan, _ := placement.NewPlan([]int{0, 1}, 2)
		return b.MustBuild(), plan, 1
	}
	fanOut := func() (*query.Graph, *placement.Plan, int64) {
		b := query.NewBuilder()
		a := b.Delay("a", 0.00002, 1, b.Input("I"))
		x := b.Delay("b", 0.00002, 2, a)
		b.Delay("c", 0.00002, 1, x)
		plan, _ := placement.NewPlan([]int{0, 1, 2}, 3)
		return b.MustBuild(), plan, 2
	}
	for _, c := range []struct {
		name           string
		graph          func() (*query.Graph, *placement.Plan, int64)
		wal, sinkDedup bool
	}{
		{"union/sink-dedup-off", union, true, false},
		{"union/sink-dedup-on", union, true, true},
		{"selectivity-2/sink-dedup-on", fanOut, true, true},
		{"union/no-wal", union, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, plan, mult := c.graph()
			r := runGraph(t, g, plan, lightDrive(c.wal, c.sinkDedup, nil))
			if r.injected == 0 || r.delivered != mult*r.injected || r.distinct != r.injected || r.dups != 0 || r.dedupDropped != 0 {
				t.Fatalf("delivered %d of %d expected (%d injected × %d; %d distinct), %d sink duplicates, %d ingress dedup drops",
					r.delivered, mult*r.injected, r.injected, mult, r.distinct, r.dups, r.dedupDropped)
			}
		})
	}
}

// TestDurableMigrationNoLoss moves operators of a graph mid-stream, with
// and without a WAL: the interior one of a chain, whose receiver is the
// next node; the tail, whose receiver is the sink; two consumers of one
// stream, both moved to the same spare node and one moved back; a consumer
// moved onto the node of a sibling consumer of its stream (and back), and
// onto its own producer's node — destinations that already carry the
// operator's stream for someone else. Two rows aim at the hand-over itself:
// a costly consumer moved to a node its stream is already relayed to, while
// tuples admitted at its home before its install still wait in the queue
// there; and a consumer moved off the node of an overloaded producer, whose
// paced runs straddle the removal, while a sibling consumer stays.
//
// Relay entries name the consumer they serve, so a node delivers each
// tuple to the consumers placed there by the deployment and hands an
// addressed copy to each one that moved, and every home numbers what it
// produces above what its receivers have seen: every source tuple reaches
// every sink stream, and at most a twentieth more arrive, renumbered by a
// node that stepped a tuple twice.
func TestDurableMigrationNoLoss(t *testing.T) {
	chain := func() (*query.Graph, *placement.Plan) {
		b := query.NewBuilder()
		a := b.Delay("a", 0.00002, 1, b.Input("I"))
		x := b.Delay("b", 0.00002, 1, a)
		b.Delay("c", 0.00002, 1, x)
		plan, _ := placement.NewPlan([]int{0, 1, 2}, 4)
		return b.MustBuild(), plan
	}
	// fork builds a → x, y with the given costs of a and y.
	fork := func(costA, costY float64, nodeOf ...int) func() (*query.Graph, *placement.Plan) {
		return func() (*query.Graph, *placement.Plan) {
			b := query.NewBuilder()
			a := b.Delay("a", costA, 1, b.Input("I"))
			b.Delay("x", 0.00002, 1, a)
			b.Delay("y", costY, 1, a)
			plan, _ := placement.NewPlan(nodeOf, 3)
			return b.MustBuild(), plan
		}
	}
	shared := fork(0.00002, 0.00002, 0, 1, 1)
	siblings := fork(0.00002, 0.00002, 0, 1, 2)
	// y is costly enough that its home falls behind: tuples admitted there
	// long before y leaves still wait in its queue.
	backlogged := fork(0.00002, 0.007, 0, 1, 1)
	// a is overloaded on the node it shares with both consumers: its paced
	// runs span most of the wall time, so a removal lands inside one.
	coLocated := fork(0.003, 0.00002, 0, 0, 0)
	type move struct {
		op query.OpID
		to int
	}
	for _, c := range []struct {
		name  string
		graph func() (*query.Graph, *placement.Plan)
		moves []move
	}{
		{"interior", chain, []move{{1, 3}, {1, 1}}},
		{"tail", chain, []move{{2, 3}, {2, 2}}},
		{"two-consumers", shared, []move{{1, 2}, {2, 2}, {1, 1}}},
		{"onto-sibling-consumer", siblings, []move{{1, 2}}},
		{"onto-sibling-and-back", siblings, []move{{1, 2}, {1, 1}}},
		{"onto-own-producer", chain, []move{{1, 0}}},
		{"relayed-before-install", backlogged, []move{{1, 2}, {2, 2}}},
		{"producer-run-straddles-removal", coLocated, []move{{1, 1}, {1, 0}, {1, 1}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, wal := range []bool{true, false} {
				name := "wal"
				if !wal {
					name = "no-wal"
				}
				t.Run(name, func(t *testing.T) {
					g, plan := c.graph()
					r := runGraph(t, g, plan, lightDrive(wal, true, func(cl *Cluster) {
						for _, m := range c.moves {
							time.Sleep(120 * time.Millisecond)
							if err := cl.MoveOperator(g, plan, m.op, m.to, 0); err != nil {
								t.Error(err)
								return
							}
						}
					}))
					want := r.injected * int64(len(g.Sinks()))
					if r.injected == 0 || r.distinct != want || r.dedupDropped != 0 || r.delivered-r.distinct > want/20 {
						t.Fatalf("delivered %d, %d distinct of %d (%d injected × %d sink streams) across %d moves: %d processed twice (at most %d), %d ingress dedup drops",
							r.delivered, r.distinct, want, r.injected, len(g.Sinks()), len(c.moves), r.delivered-r.distinct, want/20, r.dedupDropped)
					}
					t.Logf("delivered %d tuples, %d distinct of %d: %d processed twice in the hand-overs, %d sink duplicates",
						r.delivered, r.distinct, want, r.delivered-r.distinct, r.dups)
				})
			}
		})
	}
}

// TestDurableRestartUnderLoad: a node with a WAL never drops on a full
// ring. A sender's ring room is its credit, so a receiver that is down,
// catching up after a restart, or slow to ack holds its senders' workers
// until room frees, and every tuple arrives: distinct deliveries equal the injected
// count, with no sink duplicate, no shed and no outbox drop on any node.
//
// Two rows kill node 2 at 300 ms and restart it 150 ms later, at the
// default OutboxCap, under rates whose backlog (150 ms × 40 000/s on the
// chain's one link in, the union's two inputs at 20 000/s each) reaches
// it. The third kills nothing: the two nodes of a cycle, a(0) → x(1) →
// d(0), get a 256-tuple ring, and each write on the links between them is
// held (20 ms from node 0, 40 ms back), so each link carries less than what
// is offered to it and the workers of both nodes wait for each other's
// acks.
func TestDurableRestartUnderLoad(t *testing.T) {
	const cost = 0.00002
	chain := func(x int) (*query.Graph, *placement.Plan) {
		b := query.NewBuilder()
		a := b.Delay("a", cost, 1, b.Input("I"))
		b.Delay("d", cost, 1, b.Delay("x", cost, 1, a))
		plan, _ := placement.NewPlan([]int{0, x, 0}, 3)
		return b.MustBuild(), plan
	}
	union := func() (*query.Graph, *placement.Plan) {
		b := query.NewBuilder()
		u := b.Union("u", cost, b.Delay("a", cost, 1, b.Input("I1")), b.Delay("b", cost, 1, b.Input("I2")))
		b.Delay("d", cost, 1, u)
		plan, _ := placement.NewPlan([]int{0, 1, 2, 0}, 3)
		return b.MustBuild(), plan
	}
	restart := &crash{node: 2, at: 300 * time.Millisecond, down: 150 * time.Millisecond}
	slowLinks := func(cl *Cluster) {
		cl.Nodes[0].SetLinkFault(cl.Nodes[1].Addr(), LinkFault{Delay: 20 * time.Millisecond})
		cl.Nodes[1].SetLinkFault(cl.Nodes[0].Addr(), LinkFault{Delay: 40 * time.Millisecond})
	}
	for _, c := range []struct {
		name    string
		graph   func() (*query.Graph, *placement.Plan)
		rate    float64
		cfg     NodeConfig
		crash   *crash
		between func(*Cluster)
	}{
		{"chain/restart", func() (*query.Graph, *placement.Plan) { return chain(2) }, 40000, NodeConfig{}, restart, nil},
		{"union/restart", union, 20000, NodeConfig{}, restart, nil},
		{"cycle/small-ring", func() (*query.Graph, *placement.Plan) { return chain(1) }, 20000,
			NodeConfig{OutboxCap: 256}, nil, slowLinks},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, plan := c.graph()
			cfg := c.cfg
			cfg.CheckpointEvery = 25 * time.Millisecond
			r := runGraph(t, g, plan, drive{rate: c.rate, dur: 600 * time.Millisecond, cfg: cfg,
				wal: true, sinkDedup: true, crash: c.crash, between: c.between})
			if r.injected == 0 || r.distinct != r.injected || r.dups != 0 || r.shed != 0 || r.outboxDropped != 0 {
				t.Fatalf("%d distinct of %d injected (%d delivered): %d sink duplicates, %d shed, %d outbox drops",
					r.distinct, r.injected, r.delivered, r.dups, r.shed, r.outboxDropped)
			}
			t.Logf("%d distinct of %d injected, %d delivered, %d ingress dedup drops; longest send per node %.1f ms",
				r.distinct, r.injected, r.delivered, r.dedupDropped, r.sendMaxMs)
		})
	}
}

// TestDurableSinkLinkSurvivesSever: the link from a node with a WAL to the
// collector is durable like any other it ships on, so severing it in the
// middle of a burst loses nothing. The last node of a two-node durable
// chain at 5 000/s is cut off from the sink for 100 ms; its ring retains
// what the collector has not acked and re-sends it on reconnect. Every
// injected tuple is delivered, with no outbox drop on any node; the sink
// filter absorbs whatever of a partly read burst arrives twice.
func TestDurableSinkLinkSurvivesSever(t *testing.T) {
	g := pipeline(t, 0.00002, 0.00002)
	plan, _ := placement.NewPlan([]int{0, 1}, 2)
	r := runGraph(t, g, plan, drive{rate: 5000, dur: 800 * time.Millisecond, wal: true, sinkDedup: true,
		cfg: NodeConfig{CheckpointEvery: 25 * time.Millisecond, BackoffBase: 5 * time.Millisecond},
		between: func(cl *Cluster) {
			time.Sleep(300 * time.Millisecond)
			cl.Nodes[1].SetLinkFault(cl.Collector.Addr(), LinkFault{Sever: true})
			time.Sleep(100 * time.Millisecond)
			cl.Nodes[1].ClearLinkFault(cl.Collector.Addr())
		}})
	if r.injected == 0 || r.delivered != r.injected || r.distinct != r.injected || r.outboxDropped != 0 || r.shed != 0 {
		t.Fatalf("delivered %d (%d distinct) of %d injected across a sink-link sever: %d outbox drops, %d shed",
			r.delivered, r.distinct, r.injected, r.outboxDropped, r.shed)
	}
	t.Logf("delivered %d of %d, %d sink duplicates filtered; longest send per node %.1f ms",
		r.delivered, r.injected, r.dups, r.sendMaxMs)
}

// TestMixedDurabilityCluster: a node with a WAL feeding one without. The
// sender's WAL alone makes its link durable, and the receiver without a
// WAL acks each frame on admission and filters re-sends through the
// sender's marks (TestDurableIngressMixedFrames/no-wal sends it one), so
// the sender's 256-tuple ring turns over many times (more than four
// rings' worth is injected) and a 200 ms sever of the middle link, which
// fills it, loses nothing and duplicates nothing: every tuple is delivered
// once, with no shed and no outbox drop. The node without a WAL keeps the
// default OutboxCap: its link to the sink is volatile, and a volatile ring
// drops when full by design.
func TestMixedDurabilityCluster(t *testing.T) {
	cfgs := []NodeConfig{
		{WALDir: t.TempDir(), OutboxCap: 256, BackoffBase: 5 * time.Millisecond, CheckpointEvery: 25 * time.Millisecond},
		{BackoffBase: 5 * time.Millisecond},
	}
	var nodes []*Node
	var addrs []string
	for _, cfg := range cfgs {
		n, err := NewNodeConfig("127.0.0.1:0", 1, cfg)
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
	tap := tapCollector(t, cl)
	cl.Collector.SetDedup(true)
	g := pipeline(t, 0.00002, 0.00002)
	plan, _ := placement.NewPlan([]int{0, 1}, 2)
	if err := cl.Deploy(g, plan, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	src := &SourceDriver{
		Stream: g.Inputs()[0],
		Trace:  trace.New("const", 1, []float64{2000}),
		Addrs:  []string{addrs[0]},
		Keys:   sourceKeys(0),
	}
	done := make(chan int64, 1)
	go func() {
		n, err := src.Run(800*time.Millisecond, nil)
		if err != nil {
			t.Error(err)
		}
		done <- n
	}()
	time.Sleep(300 * time.Millisecond)
	nodes[0].SetLinkFault(addrs[1], LinkFault{Sever: true})
	time.Sleep(200 * time.Millisecond)
	nodes[0].ClearLinkFault(addrs[1])
	injected := <-done
	if err := cl.AwaitQuiescence(10*time.Second, 100*time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	delivered, _, _, _, _ := cl.Collector.LatencyStats()
	sts, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var shed, dropped int64
	for _, s := range sts {
		shed += s.Shed
		dropped += s.OutboxDropped
	}
	if injected <= 4*256 || delivered != injected || tap.distinct() != injected || cl.Collector.Duplicates() != 0 ||
		shed != 0 || dropped != 0 {
		t.Fatalf("delivered %d (%d distinct) of %d injected: %d sink duplicates, %d shed, %d outbox drops",
			delivered, tap.distinct(), injected, cl.Collector.Duplicates(), shed, dropped)
	}
	t.Logf("delivered %d of %d; %d re-sent tuples filtered at node 1; longest send on node 0 %.1f ms",
		delivered, injected, sts[1].DedupDropped, sts[0].SendMaxMs)
}
