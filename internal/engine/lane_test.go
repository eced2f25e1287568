package engine

import (
	"bufio"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// tupleSink is a raw TCP collector: it accepts tuple connections (the
// connTuples preamble plus binary frames, exactly what a peer node would
// read) and records arrivals per stream in arrival order. It acks each
// frame that carries a sequence once it has recorded the frame, as a
// durable peer acks once it has logged one.
type tupleSink struct {
	ln       net.Listener
	mu       sync.Mutex
	byStream map[int32][]Tuple
	total    int
}

func newTupleSink(t *testing.T) *tupleSink {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &tupleSink{ln: ln, byStream: map[int32][]Tuple{}}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return s
}

func (s *tupleSink) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(conn, 16*1024)
	if kind, err := br.ReadByte(); err != nil || kind != connTuples {
		return
	}
	tr := NewTupleReader(br)
	for {
		batch, err := tr.ReadBatch()
		if err != nil {
			return
		}
		s.mu.Lock()
		for _, t := range batch {
			s.byStream[t.Stream] = append(s.byStream[t.Stream], t)
			s.total++
		}
		s.mu.Unlock()
		if seq, ok := tr.BatchSeq(); ok {
			if writeAck(conn, seq) != nil {
				return
			}
		}
	}
}

func (s *tupleSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Per-(stream, key) FIFO ordering, end to end: tuples injected in order on
// one stream must arrive at a remote sink in that order after crossing the
// full multicore data plane — sharded ingress admission, a pinned worker
// lane, and the peer's outbox ring shared with every other lane. Runs
// with GOMAXPROCS >= 4 and four worker lanes so the lanes genuinely execute
// in parallel under -race.
func TestLaneOrderingEndToEnd(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	sink := newTupleSink(t)

	const (
		streams   = 8
		perStream = 2000
		workers   = 4
	)
	n, err := NewNodeConfig("127.0.0.1:0", 1e6, NodeConfig{
		Workers:   workers,
		OutboxCap: 16 * streams * perStream, // no ring overflow: every tuple must arrive
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.Workers(); got != workers {
		t.Fatalf("Workers() = %d, want %d", got, workers)
	}
	// One pass-through operator per stream, each forwarding its output
	// stream to the sink. Distinct input streams spread across the lanes.
	spec := &NodeSpec{NodeID: 0, Capacity: 1e6, Routes: map[int][]Dest{}}
	for sid := 1; sid <= streams; sid++ {
		spec.Ops = append(spec.Ops, OpSpec{
			ID: sid - 1, Kind: "map", Cost: 0.0001, Selectivity: 1,
			Inputs: []int{sid}, Out: 100 + sid,
		})
		spec.Routes[sid] = []Dest{{Local: true, LocalOp: sid - 1}}
		spec.Routes[100+sid] = []Dest{{Addr: sink.ln.Addr().String()}}
	}
	if err := n.deploy(spec); err != nil {
		t.Fatal(err)
	}

	// Four concurrent producers, two streams each, injecting interleaved
	// batches. Each stream is owned by one producer, so injection order is
	// the per-stream FIFO order the sink must observe.
	var wg sync.WaitGroup
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			a, b := int32(2*p+1), int32(2*p+2)
			batch := make([]Tuple, 0, 32)
			for seq := int64(0); seq < perStream; seq += 16 {
				batch = batch[:0]
				for i := int64(0); i < 16 && seq+i < perStream; i++ {
					batch = append(batch,
						Tuple{Stream: a, Seq: seq + i, Key: uint64(a)},
						Tuple{Stream: b, Seq: seq + i, Key: uint64(b)})
				}
				n.enqueueInboundBatch(batch)
			}
		}(p)
	}
	wg.Wait()

	const total = streams * perStream
	waitUntil(t, 20*time.Second, "sink received every tuple", func() bool {
		return sink.count() >= total
	})

	// Order: each stream's arrivals are exactly Seq 0..perStream-1, FIFO.
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for sid := 1; sid <= streams; sid++ {
		got := sink.byStream[int32(100+sid)]
		if len(got) != perStream {
			t.Fatalf("stream %d: %d tuples at sink, want %d", 100+sid, len(got), perStream)
		}
		for i, tp := range got {
			if tp.Seq != int64(i) {
				t.Fatalf("stream %d: arrival %d has Seq %d, want %d (FIFO broken)", 100+sid, i, tp.Seq, i)
			}
			if tp.Key != uint64(sid) {
				t.Fatalf("stream %d: arrival %d lost its key (got %d, want %d)", 100+sid, i, tp.Key, sid)
			}
		}
	}

	// Ledger closure at quiescence: every injected tuple was processed and
	// every emitted tuple was sent — nothing shed, dropped or stranded.
	st := n.Stats()
	if st.Injected != total || st.Shed != 0 || st.DroppedNoRoute != 0 {
		t.Fatalf("ingress ledger: injected %d shed %d noroute %d, want %d/0/0",
			st.Injected, st.Shed, st.DroppedNoRoute, total)
	}
	if st.Emitted != total {
		t.Fatalf("emitted = %d, want %d", st.Emitted, total)
	}
	if st.OutboxDropped != 0 || st.OutboxEnqueued != st.OutboxSent+st.OutboxPending {
		t.Fatalf("outbox ledger: enqueued %d != sent %d + pending %d (dropped %d)",
			st.OutboxEnqueued, st.OutboxSent, st.OutboxPending, st.OutboxDropped)
	}
	if len(st.Lanes) != workers {
		t.Fatalf("Stats.Lanes has %d entries, want %d", len(st.Lanes), workers)
	}
	var processed int64
	for _, ls := range st.Lanes {
		processed += ls.Processed
	}
	if processed != total {
		t.Fatalf("lane processed sum = %d, want %d", processed, total)
	}
}

// Streams sharing a consumer operator (a join's two inputs) must pin to one
// lane, so the operator's mutable state is single-lane in steady state;
// unrelated streams may land anywhere, and keyed (targeted) tuples hash
// their addressed replica regardless of the stream pinning.
func TestComputeLanesGroupsSharedConsumers(t *testing.T) {
	rs := emptyRouteState()
	rs.stream(1).subs = []int{0}
	rs.stream(2).subs = []int{0} // joins op 0 with stream 1
	rs.stream(3).subs = []int{1}
	rs.stream(4).subs = []int{1, 2} // chains: op 1 ties 3+4, op 2 ties 4+5
	rs.stream(5).subs = []int{2}
	rs.complete(4, 1)
	lane := func(sid int32) uint32 { return rs.lookup(sid).lane }
	if lane(1) != lane(2) {
		t.Fatalf("join inputs split across lanes: %d vs %d", lane(1), lane(2))
	}
	if lane(3) != lane(4) || lane(4) != lane(5) {
		t.Fatalf("transitively shared consumers split: %d %d %d", lane(3), lane(4), lane(5))
	}
	// A targeted tuple ignores the stream pinning: its lane is the replica
	// hash, stable for a given target across any route snapshot.
	tt := Tuple{Stream: 1, target: 7}
	if got, want := rs.lookup(1).laneFor(&tt, 4), fibLane(7, 4); got != want {
		t.Fatalf("targeted lane = %d, want %d", got, want)
	}
	if tt.target = 0; rs.lookup(1).laneFor(&tt, 4) != lane(1) {
		t.Fatalf("untargeted lane = %d, want the pinned %d", rs.lookup(1).laneFor(&tt, 4), lane(1))
	}
	// Single lane: everything collapses to lane 0.
	rs.complete(1, 1)
	for sid, sr := range rs.streams {
		if sr.lane != 0 {
			t.Fatalf("w=1: stream %d on lane %d", sid, sr.lane)
		}
	}
}

// A run the worker took aliases the lane queue (lane.take) until endRun.
// While it is out, producers evict with drop-oldest, requeue enough to
// outgrow the queue's array, and keep doing both concurrently with
// processRun: the run's outputs must equal those of a copy taken at the
// drain, and the queue must hold exactly what a plain FIFO model holds. The
// queue is due for compaction from the moment the run is taken, and its
// survivors would land on the run's slots: compacting before processRun
// instead of in endRun fails this test.
func TestLaneDrainAliasIsStable(t *testing.T) {
	got, ref := hotPathNode(t), hotPathNode(t)
	const total, laneCap = 9000, 512
	l := newLane(0, laneCap)
	l.requeue(seqRun(1, 0, total))
	take := func() []Tuple {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.take()
	}
	for l.qhead+batchMax <= 4352 {
		take()
		l.endRun()
	}
	// The run will be the slots [start, end); compacting the survivors
	// [end, total) to the front would overwrite [start, total-end).
	start, end := l.qhead, l.qhead+batchMax
	if end <= 4096 || 2*end <= total || total-end <= start {
		t.Fatalf("a run of [%d, %d) of %d: the queue would not be due for a compaction onto it", start, end, total)
	}
	held := take()
	copied := append([]Tuple(nil), held...)
	model := seqRun(1, end, total-end)
	// Every admission meets a full lane, so each tuple evicts the head.
	admit := func(ts []Tuple) {
		l.admit(ts, []chunkRange{{0, len(ts)}}, DropOldest)
		for _, tp := range ts {
			model = append(model[1:], tp)
		}
	}
	requeue := func(ts []Tuple) {
		l.requeue(ts)
		model = append(model, ts...)
	}
	admit(seqRun(3, 0, 100))
	requeue(seqRun(4, 0, cap(l.queue)))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			requeue(seqRun(5, i*1000, 1000))
			admit(seqRun(6, i*50, 50))
		}
	}()
	run := workerRun{locals: make([][]Tuple, got.workers), tuples: held}
	got.processRun(l, &run, got.route.Load())
	<-done
	want := workerRun{locals: make([][]Tuple, ref.workers), tuples: copied}
	ref.processRun(newLane(0, laneCap), &want, ref.route.Load())
	if len(run.outs) != batchMax || !reflect.DeepEqual(run.outs, want.outs) {
		t.Fatalf("the held run's %d outputs differ from the %d of a copy taken at the drain", len(run.outs), len(want.outs))
	}
	l.endRun()
	if !reflect.DeepEqual(l.queue[l.qhead:], model) {
		t.Fatalf("the queue holds %d tuples after the run, the FIFO model %d, or they differ", l.qlenLocked(), len(model))
	}
}
