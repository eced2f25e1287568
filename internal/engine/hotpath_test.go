package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rodsp/internal/query"
	"rodsp/internal/stats"
)

// The data plane decides three things once per run instead of once per
// tuple: which route entry a stream has, which operator mutex the worker
// holds, and when the sink takes its lock. The tests below hold each of the
// three against a reference that decides per tuple; the references live
// here, not in the package, so they cannot drift along with the code.

// ---- (a) the lane worker against a lock-per-tuple, lookup-per-tuple one ----

// refProcessRun is the reference worker: it re-resolves a tuple's consumers,
// relay entries, partition table and transfer cost from the snapshot's
// edited fields for every tuple, steps one tuple per operator call, locks and
// unlocks the operator around every step, and bumps the shared per-slot
// counter once per keyed output. The estimator sample is one per (operator,
// run), as the package documents. A join's window records arrival order
// only: the test's window is far longer than the test, so nothing expires.
func refProcessRun(n *Node, tuples []Tuple) (outs []Tuple) {
	rs := n.route.Load()
	entry := func(sid int32) *streamRoute {
		if sr := rs.streams[sid]; sr != nil {
			return sr
		}
		return &streamRoute{}
	}
	type sample struct {
		in, out int64
		cpu     float64
	}
	samples := map[int]*sample{}
	var order []int
	charge := func(units float64) {
		if units > 0 {
			n.busy.Add(int64(time.Duration(units / n.capacity * float64(time.Second))))
		}
	}
	step := func(op *liveOp, t Tuple) float64 {
		op.mu.Lock()
		cost, produced := op.spec.Cost, op.spec.Selectivity
		if op.spec.Kind == "join" {
			side := op.sideOf[int(t.Stream)]
			op.window[side] = append(op.window[side], 0)
			pairs := float64(len(op.window[1-side]))
			cost, produced = op.spec.Cost*pairs, op.spec.Selectivity*pairs
		}
		op.selAcc += produced
		k := int(op.selAcc)
		op.selAcc -= float64(k)
		op.processed++
		seq := op.nextSeq // outputs are numbered by their operator's counter
		op.nextSeq += int64(k)
		op.mu.Unlock()
		s := samples[op.spec.ID]
		if s == nil {
			s = &sample{}
			samples[op.spec.ID] = s
			order = append(order, op.spec.ID)
		}
		s.in++
		s.out += int64(k)
		s.cpu += cost
		for i := 0; i < k; i++ {
			outs = append(outs, Tuple{Stream: int32(op.spec.Out), Ts: t.Ts, Seq: seq + int64(i),
				Value: t.Value, Key: t.Key, Flags: t.Flags, TraceTs: t.TraceTs})
		}
		return cost
	}
	var fwds, keyed destRuns
	for _, t := range tuples {
		if t.Stream == stallStream {
			charge(t.Value)
			continue
		}
		sr := entry(t.Stream)
		if pt := sr.part; pt != nil && t.target == 0 {
			// Ingress left it untargeted: its replica was remote by the
			// table ingress read. Resolve it by this one's.
			if d := pt.shards[pt.slots[slotOf(&t)]]; !d.Local {
				keyed.add(d.Addr, []Tuple{t})
				continue
			} else {
				t.target = int32(d.LocalOp) + 1
			}
		}
		if t.target != 0 {
			if op := rs.ops[int(t.target)-1]; op != nil {
				charge(step(op, t))
			} else if addr := sr.relay[int(t.target)-1]; addr != "" {
				fwds.add(addr, []Tuple{t})
			} else {
				n.dropNoRt.Add(1)
			}
			continue
		}
		taken, cost := false, 0.0
		for _, id := range sr.subs {
			if op := rs.ops[id]; op != nil {
				cost += step(op, t)
				taken = true
			} else if addr := sr.relay[id]; addr != "" {
				c := t
				c.target = int32(id) + 1
				fwds.add(addr, []Tuple{c})
				taken = true
			}
		}
		charge(cost)
		if !taken {
			n.dropNoRt.Add(1)
		}
	}
	n.lanes[0].processed.Add(int64(len(tuples)))
	for _, id := range order {
		s := samples[id]
		n.estimator.Record(id, stats.OpSample{In: s.in, Out: s.out, CPU: s.cpu})
	}
	for i := range fwds {
		n.sendRelay(fwds[i].addr, fwds[i].ts)
	}
	for i := range keyed {
		n.sendBatch(keyed[i].addr, keyed[i].ts)
	}
	var egress destRuns
	for _, t := range outs {
		sr := entry(t.Stream)
		if pt := sr.part; pt != nil {
			slot := slotOf(&t)
			atomic.AddInt64(&pt.counts[slot], 1)
			if d := pt.shards[pt.slots[slot]]; !d.Local {
				egress.add(d.Addr, []Tuple{t})
			} else {
				// This test keeps keyed outputs off the local lanes (a
				// re-entry would be stepped by the real lane worker).
				panic("refProcessRun: local keyed output")
			}
			continue
		}
		for _, d := range sr.fwd {
			egress.add(d.Addr, []Tuple{t})
		}
	}
	for i := range egress {
		accepted := n.sendBatch(egress[i].addr, egress[i].ts)
		n.emitted.Add(int64(accepted))
		for _, t := range egress[i].ts[:accepted] {
			charge(entry(t.Stream).xfer)
		}
	}
	return outs
}

// heldLockNode deploys the mixed scenario of TestHeldOpLockMatchesReference:
//
//	stream 1 → ops 0 (sel 1) and 1 (sel 0.5), two consumers of one stream,
//	           then op 1 is removed with a relay entry (a copy for it)
//	stream 2 → keyed, replicas 2 and 3 here (tuples arrive targeted, or
//	           untargeted as if ingress had read an older table), then
//	           replica 3 is removed with a relay entry (its tuples follow)
//	stream 3 → op 4, which is then removed with a relay entry
//	stream 4 → nothing at all
//	stream 5 → op 5 (sel 0.7), its only consumer
//	streams 6, 7 → op 6, a two-input join
//	stream 12 (replica output) → keyed, both shards remote; arriving
//	           untargeted, it goes on to the replica's node
//
// Every output leaves for a dead peer, so nothing re-enters a lane and the
// node's own lane worker stays idle while the test steps runs by hand.
func heldLockNode(t *testing.T, peer, relay string) *Node {
	t.Helper()
	n, err := NewNodeConfig("127.0.0.1:0", 1e6, NodeConfig{OutboxCap: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	spec := &NodeSpec{
		Ops: []OpSpec{
			{ID: 0, Kind: "map", Cost: 0.25, Selectivity: 1, Inputs: []int{1}, Out: 10},
			{ID: 1, Kind: "filter", Cost: 0.5, Selectivity: 0.5, Inputs: []int{1}, Out: 11},
			{ID: 2, Kind: "map", Cost: 0.125, Selectivity: 1, Inputs: []int{2}, Out: 12},
			{ID: 3, Kind: "map", Cost: 0.125, Selectivity: 1.5, Inputs: []int{2}, Out: 12},
			{ID: 4, Kind: "map", Cost: 1, Selectivity: 1, Inputs: []int{3}, Out: 13},
			{ID: 5, Kind: "filter", Cost: 0.3, Selectivity: 0.7, Inputs: []int{5}, Out: 14},
			{ID: 6, Kind: "join", Cost: 0.01, Selectivity: 0.01, Window: 1e6, Inputs: []int{6, 7}, Out: 15},
		},
		Routes: map[int][]Dest{
			1:  {{Local: true, LocalOp: 0}, {Local: true, LocalOp: 1}},
			3:  {{Local: true, LocalOp: 4}},
			5:  {{Local: true, LocalOp: 5}},
			6:  {{Local: true, LocalOp: 6}},
			7:  {{Local: true, LocalOp: 6}},
			10: {{Addr: peer}},
			11: {{Addr: peer}, {Addr: relay}},
			14: {{Addr: peer}},
			15: {{Addr: relay}},
		},
		XferCost: map[int]float64{10: 0.5},
		Parts: []PartitionSpec{
			{Stream: 2, Parent: "r", K: 2, Slots: query.UniformSlots(2),
				Shards: []Dest{{Local: true, LocalOp: 2}, {Local: true, LocalOp: 3}}, Ops: []int{2, 3}},
			{Stream: 12, Parent: "s", K: 2, Slots: query.UniformSlots(2),
				Shards: []Dest{{Addr: peer}, {Addr: relay}}, Ops: []int{7, 8}},
		},
	}
	if err := n.deploy(spec); err != nil {
		t.Fatal(err)
	}
	for id, sid := range map[int]int{1: 1, 3: 2, 4: 3} {
		if err := n.removeOp(id, map[int][]Dest{sid: {{Addr: relay}}}); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// mixedRun builds one run of n tuples: runs over the seven input streams
// and keyed stream 12, mostly short and one in ten up to n long, keyed
// tuples addressed the way ingress would address them (three in four of
// stream 2; the rest, and stream 12, whose replicas are remote, arrive
// untargeted), one tuple in 16 traced and one in 40 preceded by a stall.
func mixedRun(rng *rand.Rand, rs *routeState, n int, seq *int64) []Tuple {
	ts := make([]Tuple, 0, n)
	for len(ts) < n {
		sid := int32(1 + rng.Intn(8))
		if sid == 8 {
			sid = 12
		}
		k := 1 + rng.Intn(6)
		if rng.Intn(10) == 0 {
			k = 1 + rng.Intn(n)
		}
		for ; k > 0 && len(ts) < n; k-- {
			if rng.Intn(40) == 0 {
				ts = append(ts, Tuple{Stream: stallStream, Value: 0.002})
				if len(ts) == n {
					break
				}
			}
			*seq++
			t := Tuple{Stream: sid, Seq: *seq, Ts: *seq * 10, Key: rng.Uint64() | 1, Value: float64(*seq)}
			if sid == 2 && rng.Intn(4) != 0 {
				t.target = rs.lookup(2).part.route[slotOf(&t)].target
			}
			if rng.Intn(16) == 0 {
				t.Flags, t.TraceTs = TupleTraced, *seq
			}
			ts = append(ts, t)
		}
	}
	return ts
}

type opState struct {
	Processed int64
	NextSeq   int64
	SelAcc    float64
	Window    [2]int
	Cost, Sel float64
	Samples   int64
	CostStd   float64
}

func opStates(n *Node) map[int]opState {
	out := map[int]opState{}
	for id, op := range n.route.Load().ops {
		op.mu.Lock()
		s := opState{Processed: op.processed, NextSeq: op.nextSeq, SelAcc: op.selAcc,
			Window: [2]int{len(op.window[0]), len(op.window[1])}}
		op.mu.Unlock()
		s.Cost, _ = n.estimator.Cost(id)
		s.Sel, _ = n.estimator.Selectivity(id)
		s.Samples = n.estimator.Samples(id)
		s.CostStd = n.estimator.CostStd(id)
		out[id] = s
	}
	return out
}

func TestHeldOpLockMatchesReference(t *testing.T) {
	peer, relay := deadAddr(t), deadAddr(t)
	got, ref := heldLockNode(t, peer, relay), heldLockNode(t, peer, relay)
	rng := rand.New(rand.NewSource(7))
	run := workerRun{locals: make([][]Tuple, got.workers)}
	var seq, keyed, traced, stretched int64
	for r := 0; r < 8; r++ {
		tuples := mixedRun(rng, got.route.Load(), batchMax, &seq)
		run.tuples = append(run.tuples[:0], tuples...)
		before := time.Now().UnixNano()
		got.processRun(got.lanes[0], &run, got.route.Load())
		if run.held != nil {
			t.Fatalf("run %d: processRun returned holding operator %d's mutex", r, run.held.spec.ID)
		}
		want := refProcessRun(ref, tuples)
		if len(run.outs) != len(want) {
			t.Fatalf("run %d: %d outputs, the per-tuple reference %d", r, len(run.outs), len(want))
		}
		// A traced tuple's outputs carry its service-end time, which only
		// the worker knows.
		for i := range want {
			if want[i].Flags&TupleTraced != 0 {
				if run.outs[i].TraceTs < before {
					t.Fatalf("run %d: traced output %d has TraceTs %d, before the run", r, i, run.outs[i].TraceTs)
				}
				run.outs[i].TraceTs = want[i].TraceTs
				traced++
			}
		}
		if !reflect.DeepEqual(run.outs, want) {
			t.Fatalf("run %d: outs differ from the per-tuple reference", r)
		}
		for i := range want {
			if want[i].Stream == 12 {
				keyed++
			}
		}
		for i := 1; i < len(tuples); i++ {
			if s := tuples[i].Stream; s >= 5 && s < 12 && s == tuples[i-1].Stream && tuples[i].Flags == 0 {
				stretched++
			}
		}
	}
	if traced == 0 || stretched < batchMax {
		t.Fatalf("scenario too tame: %d traced outputs, %d tuples continuing a single-consumer stretch", traced, stretched)
	}
	if g, w := opStates(got), opStates(ref); !reflect.DeepEqual(g, w) {
		t.Fatalf("operator state / estimator samples differ:\n got %+v\nwant %+v", g, w)
	}
	gs, ws := got.Stats(), ref.Stats()
	if gs.DroppedNoRoute != ws.DroppedNoRoute || gs.DroppedNoRoute == 0 {
		t.Fatalf("dropNoRt = %d, reference %d (want equal and > 0)", gs.DroppedNoRoute, ws.DroppedNoRoute)
	}
	if !reflect.DeepEqual(gs.PartCounts, ws.PartCounts) {
		t.Fatalf("PartCounts differ:\n got %v\nwant %v", gs.PartCounts, ws.PartCounts)
	}
	var counted int64
	for _, c := range gs.PartCounts[12] {
		counted += c
	}
	if counted != keyed || keyed == 0 {
		t.Fatalf("PartCounts[12] sum to %d, %d keyed tuples were routed", counted, keyed)
	}
	if gs.Emitted != ws.Emitted || gs.OutboxEnqueued != ws.OutboxEnqueued || gs.OutboxEnqueued == 0 {
		t.Fatalf("egress accounting differs: emitted %d/%d, outbox enqueued %d/%d",
			gs.Emitted, ws.Emitted, gs.OutboxEnqueued, ws.OutboxEnqueued)
	}
	if g, w := got.busy.Load(), ref.busy.Load(); g != w || g == 0 {
		t.Fatalf("virtual CPU charged = %d ns, reference %d ns", g, w)
	}
	if g, w := got.lanes[0].processed.Load(), ref.lanes[0].processed.Load(); g != w {
		t.Fatalf("lane processed = %d, reference %d", g, w)
	}
}

// The worker must drop the operator mutex before every pacing sleep: with an
// operator costing 100 ms of virtual CPU per tuple, whoever else wants the
// mutex (tryCheckpoint locks it exactly like this) or the node's stats gets
// them within one sleep, not at the end of the 600 ms run. The six tuples
// are one stretch, stepped in one call, and what the mutex guards must be
// written back before each sleep: the processed count equals the tuples
// charged so far.
func TestHeldOpLockReleasedWhilePacing(t *testing.T) {
	const pace = 100 * time.Millisecond
	n, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.deploy(&NodeSpec{
		Ops:    []OpSpec{{ID: 0, Kind: "map", Cost: pace.Seconds(), Selectivity: 1, Inputs: []int{1}, Out: 2}},
		Routes: map[int][]Dest{1: {{Local: true, LocalOp: 0}}},
	}); err != nil {
		t.Fatal(err)
	}
	if resp := n.handleControl(&controlRequest{Cmd: "start"}); !resp.OK {
		t.Fatal(resp.Err)
	}
	op := n.route.Load().ops[0]
	n.enqueueInboundBatch(seqRun(1, 0, 6))
	waitUntil(t, 2*time.Second, "worker inside the run", func() bool {
		return n.Stats().WorkerInFlight == 6
	})
	for probe := 0; probe < 4; probe++ {
		time.Sleep(pace / 3)
		t0 := time.Now()
		op.mu.Lock()
		processed := op.processed
		stepped := (n.busy.Load() + int64(pace)/2) / int64(pace) // flushed before each sleep
		op.mu.Unlock()
		st := n.Stats()
		if d := time.Since(t0); d >= pace {
			t.Fatalf("probe %d: op.mu + Stats took %v, want under one pacing sleep (%v)", probe, d, pace)
		}
		if processed != stepped || processed == 0 {
			t.Fatalf("probe %d: op.processed %d during a pacing sleep, %d tuples charged", probe, processed, stepped)
		}
		if st.WorkerInFlight != 6 || processed == 6 {
			t.Fatalf("probe %d: run already over (in flight %d, processed %d): the probe proved nothing",
				probe, st.WorkerInFlight, processed)
		}
	}
}

// ---- (b) the batch-granular sink against a tuple-at-a-time one ----

// refSink is the per-tuple sink: every statistic the Collector keeps, updated
// one tuple at a time with the same seeded rng.
type refSink struct {
	cap       int
	rng       *rand.Rand
	marks     map[refKey]int64
	dups      int64
	count     int64
	latSumNs  float64
	latencies []float64
}

// add records one tuple delivered by sender from and reports whether it
// was admitted.
func (r *refSink) add(from string, t Tuple, now int64) bool {
	if !refAdmit(r.marks, from, t) {
		r.dups++
		return false
	}
	lat := float64(now-t.Ts) / float64(time.Second)
	r.count++
	r.latSumNs += float64(now - t.Ts)
	if len(r.latencies) < r.cap {
		r.latencies = append(r.latencies, lat)
	} else if j := r.rng.Int63n(r.count); int(j) < r.cap {
		r.latencies[j] = lat
	}
	return true
}

func TestSinkBatchMatchesPerTupleSink(t *testing.T) {
	const now, sampleCap = int64(1e12), 64
	// One arrival sequence: three interleaved streams, each densely
	// sequenced, with re-deliveries planted so that one pair of equal tuples
	// sits inside a batch for every batch size > 1 (positions 3 and 5) and
	// one pair straddles a batch boundary of both 7 and 256 (positions
	// 1791 = 7·256−1 and 1792), plus a replayed stretch further on.
	rng := rand.New(rand.NewSource(3))
	next := map[int32]int64{}
	var arrivals []Tuple
	for len(arrivals) < 3000 {
		sid := int32(1 + rng.Intn(3))
		arrivals = append(arrivals, Tuple{Stream: sid, Seq: next[sid], Ts: now - int64(rng.Intn(5e8))})
		next[sid]++
	}
	arrivals[5] = arrivals[3]
	arrivals[1792] = arrivals[1791]
	copy(arrivals[2500:2520], arrivals[2400:2420])

	ref := &refSink{cap: sampleCap, rng: rand.New(rand.NewSource(1)), marks: map[refKey]int64{}}
	for _, tp := range arrivals {
		ref.add("n1", tp, now)
	}
	if ref.dups < 22 || ref.count <= sampleCap {
		t.Fatalf("scenario too tame: %d duplicates, %d admitted", ref.dups, ref.count)
	}
	for _, size := range []int{1, 7, 256} {
		c, err := NewCollector("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetSampleCap(sampleCap)
		c.SetDedup(true)
		var admitted []Tuple
		slab := make([]Tuple, size)
		for at := 0; at < len(arrivals); at += size {
			batch := slab[:copy(slab, arrivals[at:])] // recordBatch compacts in place
			admitted = append(admitted, c.recordBatch(batch, "n1", now)...)
		}
		if c.Duplicates() != ref.dups {
			t.Fatalf("batches of %d: %d duplicates, per-tuple sink %d", size, c.Duplicates(), ref.dups)
		}
		c.mu.Lock()
		count, sum, latencies := c.count, c.latSumNs, append([]float64(nil), c.latencies...)
		c.mu.Unlock()
		if count != ref.count || int64(len(admitted)) != ref.count {
			t.Fatalf("batches of %d: count %d, %d returned as admitted, per-tuple sink %d", size, count, len(admitted), ref.count)
		}
		if sum != ref.latSumNs {
			t.Fatalf("batches of %d: latency sum %v ns, per-tuple sink %v", size, sum, ref.latSumNs)
		}
		if !reflect.DeepEqual(latencies, ref.latencies) {
			t.Fatalf("batches of %d: reservoir differs from the per-tuple sink", size)
		}
		// The admitted tuples come back in arrival order, duplicates gone.
		marks := map[int32]int64{}
		for _, tp := range admitted {
			if mk, seen := marks[tp.Stream]; seen && tp.Seq <= mk {
				t.Fatalf("batches of %d: admitted stream %d seq %d after %d", size, tp.Stream, tp.Seq, mk)
			}
			marks[tp.Stream] = tp.Seq
		}
	}
}

// ---- (c) every published streamRoute against a naive derivation ----

// describe renders everything a snapshot says, sorted, so two renderings of
// one snapshot taken before and after somebody else's mutation must be equal.
func describe(rs *routeState) string {
	var b strings.Builder
	ids := make([]int, 0, len(rs.ops))
	for id := range rs.ops {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "op %d %p\n", id, rs.ops[id])
	}
	sids := make([]int, 0, len(rs.streams))
	for sid := range rs.streams {
		sids = append(sids, int(sid))
	}
	sort.Ints(sids)
	for _, sid := range sids {
		sr := rs.streams[int32(sid)]
		fmt.Fprintf(&b, "stream %d subs %v fwd %v relay %v xfer %g | cons %v follow %v lane %d xferNs %d\n",
			sid, sr.subs, sr.fwd, sr.relay, sr.xfer, sr.cons, sr.follow, sr.lane, sr.xferNs)
		if pt := sr.part; pt != nil {
			fmt.Fprintf(&b, "  part %s k %d slots %v shards %v ops %v route %v\n",
				pt.parent, pt.k, pt.slots, pt.shards, pt.ops, pt.route)
		}
	}
	return b.String()
}

// checkDerived recomputes every entry's derived half the slow way — from the
// entry's edited half and the installed operators, one question at a time,
// as the data plane used to ask them per tuple — and compares.
func checkDerived(t *testing.T, what string, rs *routeState, w uint32, capacity float64) {
	t.Helper()
	for sid, sr := range rs.streams {
		var cons []*liveOp
		var follow []follower
		for _, id := range sr.subs {
			if op := rs.ops[id]; op != nil {
				cons = append(cons, op)
			} else if addr, ok := sr.relay[id]; ok {
				follow = append(follow, follower{int32(id) + 1, addr})
			}
		}
		if !reflect.DeepEqual(sr.cons, cons) || !reflect.DeepEqual(sr.follow, follow) {
			t.Fatalf("%s: stream %d consumers %v followers %v, naive %v %v", what, sid, sr.cons, sr.follow, cons, follow)
		}
		var xferNs int64
		if sr.xfer > 0 {
			xferNs = int64(time.Duration(sr.xfer / capacity * float64(time.Second)))
		}
		if sr.xferNs != xferNs {
			t.Fatalf("%s: stream %d xferNs %d, naive %d", what, sid, sr.xferNs, xferNs)
		}
		// The consumer group: every stream reachable from sid through a
		// shared consumer operator; it is pinned by its lowest stream id.
		group := map[int32]bool{sid: true}
		for grew := true; grew; {
			grew = false
			for other, osr := range rs.streams {
				if group[other] {
					continue
				}
				for member := range group {
					if sharesConsumer(rs.streams[member].subs, osr.subs) {
						group[other], grew = true, true
						break
					}
				}
			}
		}
		root := sid
		for member := range group {
			if member < root {
				root = member
			}
		}
		if want := fibLane(uint64(uint32(root)), w); sr.lane != want {
			t.Fatalf("%s: stream %d lane %d, naive %d (group root %d)", what, sid, sr.lane, want, root)
		}
		pt := sr.part
		if pt == nil {
			continue
		}
		if len(pt.route) != query.ShardSlots {
			t.Fatalf("%s: stream %d has %d resolved slots", what, sid, len(pt.route))
		}
		for slot := range pt.route {
			var want slotDest
			if d := pt.shards[pt.slots[slot]]; !d.Local {
				want.addr = d.Addr
			} else {
				want.target = int32(d.LocalOp) + 1
			}
			if pt.route[slot] != want {
				t.Fatalf("%s: stream %d slot %d resolves to %+v, naive %+v", what, sid, slot, pt.route[slot], want)
			}
		}
	}
	if sr := rs.lookup(9999); !reflect.DeepEqual(*sr, streamRoute{}) {
		t.Fatalf("%s: unmentioned stream has a non-empty entry %+v", what, *sr)
	}
}

func sharesConsumer(a, b []int) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return true
			}
		}
	}
	return false
}

func TestStreamRouteMatchesNaiveDerivation(t *testing.T) {
	const workers, capacity = 4, 250.0
	n, err := NewNodeConfig("127.0.0.1:0", capacity, NodeConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	peerA, peerB := "10.0.0.1:7000", "10.0.0.2:7000"
	op := func(id int, out int, inputs ...int) OpSpec {
		return OpSpec{ID: id, Kind: "map", Selectivity: 1, Inputs: inputs, Out: out}
	}
	// mutate runs one mutator and checks the three properties every
	// mutator owes: the snapshot loaded before it is untouched, the
	// successor is a different snapshot, and the successor's derived half
	// matches the naive derivation.
	mutate := func(what string, f func() error) *routeState {
		t.Helper()
		before := n.route.Load()
		was := describe(before)
		if err := f(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if now := describe(before); now != was {
			t.Fatalf("%s rewrote a published snapshot:\nbefore\n%s\nafter\n%s", what, was, now)
		}
		rs := n.route.Load()
		if rs == before {
			t.Fatalf("%s published nothing", what)
		}
		checkDerived(t, what, rs, workers, capacity)
		return rs
	}

	rs := mutate("deploy", func() error {
		return n.deploy(&NodeSpec{
			Ops: []OpSpec{op(0, 10, 1, 2), op(1, 11, 3), op(2, 20, 5), op(3, 20, 5)},
			Routes: map[int][]Dest{
				1:  {{Local: true, LocalOp: 0}},
				2:  {{Local: true, LocalOp: 0}, {Addr: peerA}},
				3:  {{Local: true, LocalOp: 1}},
				4:  {{Local: true, LocalOp: 9}}, // subscribed operator that is not installed
				10: {{Addr: peerA}, {Addr: peerB}},
			},
			XferCost: map[int]float64{2: 0.5, 10: 1.25},
			Parts: []PartitionSpec{{Stream: 5, Parent: "p", K: 3, Slots: query.UniformSlots(3),
				Shards: []Dest{{Local: true, LocalOp: 2}, {Local: true, LocalOp: 3}, {Addr: peerB}}, Ops: []int{2, 3, 6}}},
		})
	})
	if a, b := rs.lookup(1), rs.lookup(2); a.lane != b.lane || len(a.cons) != 1 || a.cons[0] != rs.ops[0] {
		t.Fatalf("join inputs: lanes %d/%d, consumers %v", a.lane, b.lane, a.cons)
	}
	if sr := rs.lookup(4); len(sr.subs) != 1 || len(sr.cons) != 0 {
		t.Fatalf("stream 4: subs %v must stay, consumers %v must be empty", sr.subs, sr.cons)
	}
	if sr := rs.lookup(5); sr.part.route[0].target != 3 || sr.part.route[2].addr != peerB {
		t.Fatalf("stream 5 slots resolve to %+v", sr.part.route[:3])
	}

	// Migrate in: operator 4 takes streams 3 and 6 from elsewhere. The
	// deployed spec does not subscribe it, so it joins no consumer set and
	// ties no consumer group: its input arrives addressed to it. Its output
	// forward merges without duplicating the deployed one.
	rs = mutate("addop", func() error {
		n.addOp(&OpSpec{ID: 4, Kind: "union", Selectivity: 1, Inputs: []int{3, 6}, Out: 10},
			map[int][]Dest{3: {{Local: true, LocalOp: 4}}, 6: {{Local: true, LocalOp: 4}}, 10: {{Addr: peerA}, {Addr: peerB}}})
		return nil
	})
	if a := rs.lookup(3); len(a.cons) != 1 || a.cons[0] != rs.ops[1] || len(rs.lookup(6).subs) != 0 {
		t.Fatalf("after migrate in: stream 3 consumers %v, stream 6 subs %v", a.cons, rs.lookup(6).subs)
	}
	if fwd := rs.lookup(10).fwd; len(fwd) != 2 {
		t.Fatalf("after migrate in: stream 10 forwards %v", fwd)
	}
	if !rs.accepts(3, rs.lookup(3), 5) || !rs.accepts(6, rs.lookup(6), 5) || rs.accepts(1, rs.lookup(1), 5) || rs.accepts(3, rs.lookup(3), 8) {
		t.Fatal("addressed tuples: op 4 must take streams 3 and 6 only, and an unknown target nothing")
	}

	// Migrate out: operator 1 leaves for peerB. Stream 3 keeps it
	// subscribed and gains its relay entry, a follower; the moved-in
	// operator 4 leaves for peerA, an entry that serves addressed tuples
	// alone.
	rs = mutate("removeop 1", func() error { return n.removeOp(1, map[int][]Dest{3: {{Addr: peerB}}}) })
	rs = mutate("removeop 4", func() error {
		return n.removeOp(4, map[int][]Dest{3: {{Addr: peerA}}, 6: {{Addr: peerA}}})
	})
	if sr := rs.lookup(3); !reflect.DeepEqual(sr.subs, []int{1}) || len(sr.cons) != 0 ||
		!reflect.DeepEqual(sr.follow, []follower{{2, peerB}}) || sr.relay[4] != peerA {
		t.Fatalf("after migrate out: stream 3 subs %v consumers %v followers %v relay %v", sr.subs, sr.cons, sr.follow, sr.relay)
	}
	if !rs.accepts(3, rs.lookup(3), 5) || !rs.accepts(3, rs.lookup(3), 2) || rs.accepts(1, rs.lookup(1), 5) {
		t.Fatal("addressed tuples must follow the relay entries of their own stream")
	}

	// A shard replica migrates out: its slot stays addressed to it, and
	// its entry carries the addressed tuples on.
	rs = mutate("removeop 3", func() error { return n.removeOp(3, map[int][]Dest{5: {{Addr: peerA}}}) })
	if sr := rs.lookup(5); sr.part.route[1] != (slotDest{target: 4}) || sr.relay[3] != peerA {
		t.Fatalf("after replica migration: slot 1 %+v, relay %v", sr.part.route[1], sr.relay)
	}

	// Back home: operator 1 and the replica return, which deletes their
	// entries, and a pushed table moves the replica's slots.
	mutate("addop 1", func() error {
		n.addOp(&OpSpec{ID: 1, Kind: "map", Selectivity: 1, Inputs: []int{3}, Out: 11}, nil)
		return nil
	})
	mutate("addop 3", func() error {
		n.addOp(&OpSpec{ID: 3, Kind: "map", Selectivity: 1, Inputs: []int{5}, Out: 20}, nil)
		return nil
	})
	slots := make([]int, query.ShardSlots)
	for i := range slots {
		slots[i] = 1 + i%2
	}
	rs = mutate("repart", func() error {
		return n.repart(&PartitionSpec{Stream: 5, Parent: "p", K: 3, Slots: slots,
			Shards: []Dest{{Local: true, LocalOp: 2}, {Local: true, LocalOp: 3}, {Addr: peerB}}, Ops: []int{2, 3, 6}})
	})
	if sr := rs.lookup(5); sr.part.route[0].target != 4 || sr.part.route[1].addr != peerB || len(sr.relay) != 0 {
		t.Fatalf("after repart: slots %+v relay %v", sr.part.route[:2], sr.relay)
	}
	if sr := rs.lookup(3); len(sr.cons) != 1 || len(sr.follow) != 0 || sr.relay[4] != peerA {
		t.Fatalf("after the return: stream 3 consumers %v followers %v relay %v", sr.cons, sr.follow, sr.relay)
	}

	// A first table for a stream that had none, and a malformed one.
	mutate("repart new stream", func() error {
		return n.repart(&PartitionSpec{Stream: 7, Parent: "q", K: 1, Slots: make([]int, query.ShardSlots),
			Shards: []Dest{{Addr: peerA}}, Ops: []int{8}})
	})
	before := n.route.Load()
	if err := n.repart(&PartitionSpec{Stream: 7, K: 1, Slots: []int{0}, Shards: []Dest{{Addr: peerA}}, Ops: []int{8}}); err == nil {
		t.Fatal("a one-slot table was accepted")
	}
	if n.route.Load() != before {
		t.Fatal("a rejected table was published")
	}
}

// On a multi-lane node a keyed tuple sits on the lane its replica hashes to,
// not on its stream's pinned lane, whichever loop routed it: ingress
// (enqueueChunk) or an operator's output (routeBatch). Broadcast tuples sit
// on the pinned lane.
func TestStreamRouteKeyedTuplesFollowTheirReplica(t *testing.T) {
	const workers = 4
	n, err := NewNodeConfig("127.0.0.1:0", 1e6, NodeConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() }) // after parkLane's cleanups put the served lanes back
	lanes := make([]*lane, workers)
	for li := range lanes {
		lanes[li] = parkLane(t, n, li)
	}
	// Stream 1 → op 0 → keyed stream 5 → local replicas 2 and 3.
	if err := n.deploy(&NodeSpec{
		Ops: []OpSpec{
			{ID: 0, Kind: "map", Selectivity: 1, Inputs: []int{1}, Out: 5},
			{ID: 2, Kind: "map", Selectivity: 1, Inputs: []int{5}, Out: 20},
			{ID: 3, Kind: "map", Selectivity: 1, Inputs: []int{5}, Out: 20},
		},
		Routes: map[int][]Dest{1: {{Local: true, LocalOp: 0}}},
		Parts: []PartitionSpec{{Stream: 5, Parent: "p", K: 2, Slots: query.UniformSlots(2),
			Shards: []Dest{{Local: true, LocalOp: 2}, {Local: true, LocalOp: 3}}, Ops: []int{2, 3}}},
	}); err != nil {
		t.Fatal(err)
	}
	rs := n.route.Load()
	pinned := rs.lookup(5).lane
	if fibLane(3, workers) == pinned && fibLane(4, workers) == pinned {
		t.Fatal("both replicas hash to the stream's pinned lane: the test would prove nothing")
	}
	// drained empties the parked lanes and checks every tuple found on lane
	// li belongs there.
	drained := func(what string, want int) {
		t.Helper()
		got := 0
		for li, l := range lanes {
			for _, q := range l.queue[l.qhead:] {
				got++
				home := rs.lookup(q.Stream).lane
				if q.Stream == 5 {
					if q.target != 3 && q.target != 4 {
						t.Fatalf("%s: keyed tuple seq %d has target %d", what, q.Seq, q.target)
					}
					home = fibLane(uint64(q.target), workers)
				}
				if uint32(li) != home {
					t.Fatalf("%s: stream %d seq %d target %d on lane %d, want %d", what, q.Stream, q.Seq, q.target, li, home)
				}
			}
			l.empty()
		}
		if got != want {
			t.Fatalf("%s: %d tuples on the lanes, want %d", what, got, want)
		}
	}
	n.enqueueChunk(append(seqRun(5, 0, batchMax), seqRun(1, 0, 10)...))
	drained("ingress", batchMax+10)

	run := workerRun{locals: make([][]Tuple, workers), tuples: seqRun(1, 0, batchMax)}
	n.processRun(lanes[rs.lookup(1).lane], &run, n.route.Load())
	drained("operator output", batchMax)
}
