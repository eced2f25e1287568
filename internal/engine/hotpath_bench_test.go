package engine

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// Layer microbenchmarks of the data plane, one run per iteration, reported
// in ns/tuple: an ingress chunk (BenchmarkIngressChunk), a worker run
// (BenchmarkWorkerRun), an outbox write (BenchmarkOutboxShip) and a sink
// batch (BenchmarkSinkBatch). The end-to-end figure they add up to is
// benchmark/'s cpu_ns_per_item on `chain`; `chain_durable` adds a durable
// admission per frame (BenchmarkDurableAdmit).

// hotPathNode is one zero-cost pass-through operator from stream 1 to stream
// 2, whose tuples leave for a peer nothing listens on: the peer's ring fills
// once and from then on refuses the run, so no writer goroutine competes
// with the measured one.
func hotPathNode(tb testing.TB) *Node {
	return hotPathNodeConfig(tb, NodeConfig{})
}

// hotPathNodeConfig is hotPathNode with cfg's other fields (e.g. a WAL).
func hotPathNodeConfig(tb testing.TB, cfg NodeConfig) *Node {
	tb.Helper()
	cfg.BackoffBase, cfg.BackoffMax = time.Hour, time.Hour
	n, err := NewNodeConfig("127.0.0.1:0", 1e6, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { n.Close() })
	if err := n.deploy(&NodeSpec{
		Ops:    []OpSpec{{ID: 0, Kind: "map", Selectivity: 1, Inputs: []int{1}, Out: 2}},
		Routes: map[int][]Dest{1: {{Local: true, LocalOp: 0}}, 2: {{Addr: deadAddr(tb)}}},
	}); err != nil {
		tb.Fatal(err)
	}
	return n
}

// parkLane swaps lane li for one no worker serves, so the caller can admit
// into it and empty it itself without the lane worker racing it for the
// tuples. The served lane is put back before the node closes (Close wakes
// workers through n.lanes).
func parkLane(tb testing.TB, n *Node, li int) *lane {
	served := n.lanes[li]
	parked := newLane(uint32(li), served.cap)
	n.lanes[li] = parked
	tb.Cleanup(func() { n.lanes[li] = served })
	return parked
}

func (l *lane) empty() {
	l.mu.Lock()
	l.queue, l.qhead = l.queue[:0], 0
	l.mu.Unlock()
}

func reportPerTuple(b *testing.B, perIter int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perIter), "ns/tuple")
}

// One ingress chunk: route-entry lookup, per-lane bucketing, one lane
// admission.
func BenchmarkIngressChunk(b *testing.B) {
	n := hotPathNode(b)
	l := parkLane(b, n, 0)
	chunk := seqRun(1, 0, batchMax)
	n.enqueueChunk(chunk)
	l.empty()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.enqueueChunk(chunk)
		l.empty()
	}
	reportPerTuple(b, batchMax)
}

// One worker run: 256 operator steps, the run's accounting and routeBatch
// into the dead peer's ring.
func BenchmarkWorkerRun(b *testing.B) {
	n := hotPathNode(b)
	run := workerRun{locals: make([][]Tuple, n.workers), tuples: seqRun(1, 0, batchMax)}
	for i := 0; i < 2*DefaultOutboxCap/batchMax; i++ {
		n.processRun(n.lanes[0], &run, n.route.Load()) // fill the ring, grow the scratch
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.processRun(n.lanes[0], &run, n.route.Load())
	}
	reportPerTuple(b, batchMax)
}

// discardConn is a connection whose writes all succeed and go nowhere.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// One outbox write: whole frames gathered from a ring filled to OutboxCap
// up to the write budget (four 512-tuple frames of plain records), encoded
// and written to a connection that discards them. After each ship the
// freed slots are handed back as if a producer had refilled them (tail
// moves, the slots keep the tuples they held), so only the writer's side
// is timed.
func BenchmarkOutboxShip(b *testing.B) {
	n := hotPathNode(b)
	o := newOutbox(n, deadAddr(b))
	o.enqueueBatch(seqRun(2, 0, n.cfg.OutboxCap), false)
	var conn net.Conn = discardConn{}
	ship := func() int {
		k, err := o.ship(conn)
		if k <= outboxBatchMax || err != nil {
			b.Fatalf("shipped %d tuples (%v), want several frames", k, err)
		}
		o.mu.Lock()
		o.tail += uint64(k)
		o.mu.Unlock()
		return k
	}
	k := ship()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ship()
	}
	reportPerTuple(b, k)
}

// One sink batch: the locked helper alone, without and with the dedup rule.
func BenchmarkSinkBatch(b *testing.B) {
	for _, dedup := range []bool{false, true} {
		name := "dedup=off"
		if dedup {
			name = "dedup=on"
		}
		b.Run(name, func(b *testing.B) {
			c, err := NewCollector("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			c.SetDedup(dedup)
			batch := seqRun(1, 0, batchMax)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range batch {
					batch[j].Seq += batchMax // fresh sequences: nothing is a duplicate
				}
				c.recordBatch(batch, "n1", int64(time.Second))
			}
			reportPerTuple(b, batchMax)
		})
	}
}

// durableAdmitter returns one durable admission of a 512-tuple sequenced
// frame — filter, WAL append, group commit, mark advance, enqueue — on a
// WAL in dir. The stream's mark is cleared before each admission
// so the whole frame is fresh every time, and the parked lane is emptied
// after it. Checkpoints are held off: a checkpoint attempt reads the lanes
// parkLane swaps and allocates while other layers are being counted.
func durableAdmitter(tb testing.TB, dir string) func() {
	n := hotPathNodeConfig(tb, NodeConfig{WALDir: dir, CheckpointEvery: time.Hour})
	l := parkLane(tb, n, 0)
	frame := appendSeqFrame(nil, seqRun(1, 0, outboxBatchMax), outboxBatchMax)
	tr := NewTupleReader(bytes.NewReader(frame))
	batch, err := tr.ReadBatch()
	if err != nil {
		tb.Fatal(err)
	}
	var a admission
	from := n.senderOf("bench")
	return func() {
		from.mu.Lock()
		delete(from.marks, markKey{stream: 1})
		err := n.admitDurable(from, batch, tr.Frame(), &a)
		from.mu.Unlock()
		if err != nil {
			tb.Fatal(err)
		}
		l.empty()
	}
}

// One durable admission of a full outbox frame.
func BenchmarkDurableAdmit(b *testing.B) {
	admit := durableAdmitter(b, b.TempDir())
	admit()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		admit()
	}
	reportPerTuple(b, outboxBatchMax)
}

// A new link's first batch: the outbox is created, takes one 256-tuple
// offer and ships it to a connection that discards it, at OutboxCap 65 536.
// B/op is what a new peer link costs before its first tuple leaves: the
// ring's first frame of slots and the writer's encode buffer.
func BenchmarkOutboxFirstOffer(b *testing.B) {
	n := hotPathNodeConfig(b, NodeConfig{OutboxCap: 65536})
	batch := seqRun(2, 0, 256)
	var conn net.Conn = discardConn{}
	addr := deadAddr(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := newOutbox(n, addr)
		o.enqueueBatch(batch, false)
		if k, err := o.ship(conn); k != len(batch) || err != nil {
			b.Fatalf("shipped %d tuples (%v), want %d", k, err, len(batch))
		}
	}
	reportPerTuple(b, len(batch))
}

// After warm-up none of the five layers allocates per run.
func TestHotPathSteadyStateAllocs(t *testing.T) {
	n := hotPathNode(t)
	l := parkLane(t, n, 0)
	chunk := seqRun(1, 0, batchMax)
	ingress := func() {
		n.enqueueChunk(chunk)
		l.empty()
	}
	run := workerRun{locals: make([][]Tuple, n.workers), tuples: seqRun(1, 0, batchMax)}
	worker := func() { n.processRun(l, &run, n.route.Load()) }
	c, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetSampleCap(batchMax)
	c.SetDedup(true)
	batch := seqRun(1, 0, batchMax)
	sink := func() {
		for j := range batch {
			batch[j].Seq += batchMax
		}
		c.recordBatch(batch, "n1", int64(time.Second))
	}
	o := newOutbox(n, deadAddr(t))
	o.enqueueBatch(seqRun(2, 0, n.cfg.OutboxCap), false) // grows the ring to its last size
	var conn net.Conn = discardConn{}
	ship := func() {
		k, _ := o.ship(conn)
		o.mu.Lock()
		o.tail += uint64(k)
		o.mu.Unlock()
	}
	for _, layer := range []struct {
		name string
		run  func()
	}{{"enqueueChunk", ingress}, {"processRun", worker}, {"ship", ship}, {"recordBatch", sink},
		{"admitDurable", durableAdmitter(t, t.TempDir())}} {
		if raceEnabled && (layer.name == "enqueueChunk" || layer.name == "admitDurable") {
			continue // their ingress scratch is pooled; see raceEnabled
		}
		for i := 0; i < 2*DefaultOutboxCap/batchMax; i++ {
			layer.run() // grow the reusable buffers, fill the dead peer's ring
		}
		if allocs := testing.AllocsPerRun(100, layer.run); allocs != 0 {
			t.Errorf("steady-state %s allocates %.1f times per %d-tuple run", layer.name, allocs, batchMax)
		}
	}
}
