package engine

import (
	"bufio"
	"math/rand"
	"net"
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
// hands every tuple it admits to the returned tap: the collector's own
// accept loop with the tap added.
func tapCollector(t *testing.T, cl *Cluster) *sinkTap {
	t.Helper()
	cl.Collector.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &Collector{ln: ln, cap: DefaultLatencyReservoir, rng: rand.New(rand.NewSource(1)), conns: map[net.Conn]bool{}}
	cl.Collector = c
	tap := &sinkTap{seen: map[[2]uint64]int{}}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c.mu.Lock()
			c.conns[conn] = true
			c.mu.Unlock()
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				defer conn.Close()
				br := bufio.NewReaderSize(conn, tupleConnBuffer)
				if kind, err := br.ReadByte(); err != nil || kind != connTuples {
					return
				}
				tr := NewTupleReader(br)
				for {
					batch, err := tr.ReadBatch()
					if err != nil {
						return
					}
					_, from, _ := tr.Hello()
					tap.add(c.recordBatch(batch, from, time.Now().UnixNano()))
				}
			}()
		}
	}()
	return tap
}

// sourceKeys numbers source i's tuples from (i+1)·2³², so no two sources
// share a key and no key is zero (unkeyed).
func sourceKeys(i int) func() uint64 {
	k := uint64(i+1) << 32
	return func() uint64 { k++; return k }
}

// mergeRun is one crash-free run's account: what the sources injected,
// what the sink admitted (all of it, and as distinct (sink stream, source
// tuple) pairs), the sink's duplicates and the nodes' ingress dedup drops.
type mergeRun struct {
	injected, delivered, distinct, dups, dedupDropped int64
}

// runGraph deploys g under plan on a fresh cluster (durable when wal),
// drives every input at 400 tuples/s for 0.6 s, waits for quiescence and
// accounts the run. between, when set, runs while the sources inject.
func runGraph(t *testing.T, g *query.Graph, plan *placement.Plan, wal, sinkDedup bool, between func(*Cluster)) mergeRun {
	t.Helper()
	caps := make([]float64, plan.N)
	for i := range caps {
		caps[i] = 1
	}
	cfg := NodeConfig{CheckpointEvery: 25 * time.Millisecond}
	if wal {
		cfg.WALDir = t.TempDir()
	}
	cl, err := StartClusterConfig(caps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tap := tapCollector(t, cl)
	cl.Collector.SetDedup(sinkDedup)
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
			Trace:  trace.New("const", 1, []float64{400}),
			Addrs:  []string{cl.Addrs()[plan.NodeOf[g.Consumers(in)[0]]]},
			Keys:   sourceKeys(i),
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := src.Run(600*time.Millisecond, nil)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			run.injected += n
			mu.Unlock()
		}()
	}
	if between != nil {
		between(cl)
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
			r := runGraph(t, g, plan, c.wal, c.sinkDedup, nil)
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
					r := runGraph(t, g, plan, wal, true, func(cl *Cluster) {
						for _, m := range c.moves {
							time.Sleep(120 * time.Millisecond)
							if err := cl.MoveOperator(g, plan, m.op, m.to, 0); err != nil {
								t.Error(err)
								return
							}
						}
					})
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
