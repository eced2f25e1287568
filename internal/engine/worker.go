package engine

import (
	"sync/atomic"
	"time"

	"rodsp/internal/obs"
	"rodsp/internal/query"
	"rodsp/internal/stats"
)

// workerRun holds one lane worker's per-run state: the run it took (slots of
// the lane queue itself, see lane.take; read only), emitted outputs, the
// operator whose mutex the worker currently holds, the targeted-delivery
// cache, per-destination relay, keyed-forward and egress groups, local
// re-entry buckets per lane, the per-operator estimator samples accumulated
// over the run, and the run's virtual-CPU pacing state. Reuse keeps the
// steady-state dequeue path allocation-free.
type workerRun struct {
	tuples  []Tuple // read only: aliases the lane queue
	outs    []Tuple
	held    *liveOp // operator whose mu this worker holds; see hold
	tgts    []tgtEntry
	fwds    destRuns    // copies for consumers that left, along their relay entries
	keyed   destRuns    // keyed tuples received for a replica on another node
	egress  destRuns    // routeBatch per-destination remote groups
	locals  [][]Tuple   // routeBatch per-lane local re-entry buckets
	samples []runSample // per-(op, run) estimator aggregation

	// Pacing (see charge): whether the node runs, its start, the shared
	// virtual-time accumulator as last read or flushed, and the virtual
	// time charged since then (node-wide and to this lane).
	started             bool
	startNano, busyBase int64
	busyDelta, laneBusy int64
}

// relayRun is one per-destination slice of tuples a worker run sends, built
// while the run steps its tuples and offered once the run is done.
type relayRun struct {
	addr string
	ts   []Tuple
}

// destRuns groups tuples into one run per destination address. reset keeps
// the runs' backing arrays, so steady-state grouping allocates nothing.
type destRuns []relayRun

func (d *destRuns) reset() { *d = (*d)[:0] }

// add appends ts, in order, to addr's run.
func (d *destRuns) add(addr string, ts []Tuple) {
	r := d.run(addr)
	r.ts = append(r.ts, ts...)
}

// addFor appends copies of ts addressed to the follower's consumer.
func (d *destRuns) addFor(f follower, ts []Tuple) {
	r := d.run(f.addr)
	n := len(r.ts)
	r.ts = append(r.ts, ts...)
	for i := n; i < len(r.ts); i++ {
		r.ts[i].target = f.target
	}
}

// run returns addr's run, starting an empty one on first use.
func (d *destRuns) run(addr string) *relayRun {
	rs := *d
	for i := range rs {
		if rs[i].addr == addr {
			return &rs[i]
		}
	}
	if i := len(rs); i < cap(rs) {
		rs = rs[:i+1]
		rs[i].addr = addr
		rs[i].ts = rs[i].ts[:0]
	} else {
		rs = append(rs, relayRun{addr: addr})
	}
	*d = rs
	return &rs[len(rs)-1]
}

// runSample accumulates one operator's estimator sample over a whole run,
// so the estimator mutex is taken once per (op, run) instead of per tuple
// (stats.CostEstimator.Record is cumulative, so the aggregate is exact for
// Cost and Selectivity).
type runSample struct {
	id  int
	in  int64
	out int64
	cpu float64
}

// sample returns op id's slot of the run's estimator samples.
func (r *workerRun) sample(id int) *runSample {
	for i := range r.samples {
		if r.samples[i].id == id {
			return &r.samples[i]
		}
	}
	r.samples = append(r.samples, runSample{id: id})
	return &r.samples[len(r.samples)-1]
}

func (r *workerRun) flushSamples(est *stats.CostEstimator) {
	for i := range r.samples {
		s := &r.samples[i]
		est.Record(s.id, stats.OpSample{In: s.in, Out: s.out, CPU: s.cpu})
	}
	r.samples = r.samples[:0]
}

// hold makes op the operator this worker has locked. The mutex stays held
// from one step to the next for as long as consecutive steps use the same
// operator — a run of one stream with one consumer locks once, a stream with
// two consumers alternates per tuple — and release drops it: before the next
// different operator, before every pacing sleep, before a traced tuple's
// stage observations and span event, and when the tuple loop ends (so never
// across a sleep, sendBatch, routeBatch, requeue, Emit or Observe).
func (r *workerRun) hold(op *liveOp) {
	if r.held == op {
		return
	}
	r.release()
	op.mu.Lock()
	r.held = op
}

func (r *workerRun) release() {
	if r.held != nil {
		r.held.mu.Unlock()
		r.held = nil
	}
}

// pacingSlack is how far virtual time may run ahead of wall time before a
// worker sleeps.
const pacingSlack = int64(500 * time.Microsecond)

// charge adds one tuple's cost (> 0) to the run's virtual CPU and returns
// how long the worker must sleep for virtual time not to run ahead of wall
// time (0: no sleep). Callers skip it for a zero cost, so the zero-cost
// path never reads the clock.
func (r *workerRun) charge(cost, capacity float64) int64 {
	d := int64(time.Duration(cost / capacity * float64(time.Second)))
	r.busyDelta += d
	r.laneBusy += d
	if !r.started {
		return 0
	}
	if ahead := r.busyBase + r.busyDelta - (time.Now().UnixNano() - r.startNano); ahead > pacingSlack {
		return ahead
	}
	return 0
}

// sleep flushes the run's accumulated virtual time before sleeping, so stats
// polled mid-sleep see it (a costly run can carry seconds of virtual time;
// utilization must not lag by that much), and drops the operator mutex for
// the sleep.
func (n *Node) sleep(run *workerRun, ahead int64) {
	run.busyBase = n.busy.Add(run.busyDelta)
	run.busyDelta = 0
	run.release()
	time.Sleep(time.Duration(ahead))
}

// pace charges one tuple's cost and sleeps if virtual time ran ahead.
func (n *Node) pace(run *workerRun, cost float64) {
	if cost <= 0 {
		return
	}
	if ahead := run.charge(cost, n.capacity); ahead > 0 {
		n.sleep(run, ahead)
	}
}

// tgtEntry caches the resolution of one addressed delivery for the current
// run: the addressed operator when it is installed, or the relay entry of
// the node it went to.
type tgtEntry struct {
	id, sid int32
	op      *liveOp
	relay   string
}

// targetOf returns the cached resolution of a delivery on stream sid (entry
// sr) addressed to target, resolving it from the route snapshot on a miss.
// The snapshot is immutable, so no lock is needed.
func (r *workerRun) targetOf(rs *routeState, sr *streamRoute, sid, target int32) *tgtEntry {
	for i := range r.tgts {
		if r.tgts[i].id == target && r.tgts[i].sid == sid {
			return &r.tgts[i]
		}
	}
	e := tgtEntry{id: target, sid: sid, op: rs.ops[int(target)-1]}
	if e.op == nil {
		e.relay = sr.relay[int(target)-1]
	}
	r.tgts = append(r.tgts, e)
	return &r.tgts[len(r.tgts)-1]
}

// laneWorker is one lane's share of the node's virtual CPU: it dequeues
// tuples from its own lane queue, charges their processing cost against
// the node-wide virtual-time accumulator (sleeping whenever virtual time
// runs ahead of wall time), and routes outputs. The lane lock is taken
// once per run of up to batchMax tuples; all routing state comes from one
// atomic snapshot load per run and one entry lookup per run of equal
// Stream within it.
func (n *Node) laneWorker(l *lane) {
	defer n.wg.Done()
	run := workerRun{locals: make([][]Tuple, n.workers)}
	for {
		l.mu.Lock()
		for l.qlenLocked() == 0 && !n.closed.Load() {
			l.cond.Wait()
		}
		if n.closed.Load() {
			l.mu.Unlock()
			return
		}
		// Tuples leave the queue before they finish processing; a costly
		// run can hold them for hundreds of milliseconds. take counts them
		// in flight so stats (and the quiescence barrier) never report an
		// empty pipeline while the worker still owns admitted tuples.
		run.tuples = l.take()
		rs := n.route.Load()
		qlen := l.qlenLocked()
		shedClear := false
		if l.shedding && qlen <= l.cap/2 {
			// Hysteresis: declare shedding over once the backlog has
			// drained to half the cap, not at the first free slot.
			l.shedding = false
			shedClear = true
		}
		shedTotal := l.shed.Load()
		l.mu.Unlock()

		if shedClear {
			ev, _, _ := n.observer()
			ev.Emit(obs.LevelInfo, obs.EventShedClear,
				"node", n.route.Load().nodeID(), "lane", int(l.id), "queue", qlen, "cap", l.cap,
				"shed", shedTotal)
		}
		n.processRun(l, &run, rs)
		l.endRun()
	}
}

// processRun steps run.tuples through their operators against rs, the
// route snapshot read when the run was taken, then accounts, forwards and
// routes what the run produced. It runs outside the lane lock, pacing per
// tuple against a locally accumulated busy delta (concurrent charges from
// other lanes and the ingress transfer cost land in n.busy and are picked
// up at the next flush).
//
// Tuples are stepped a stretch at a time: the longest stretch of equal
// Stream and target that has exactly one consumer — the stream's only local
// operator, or the addressed one — goes to process in one call, and to each
// relay entry as one copy. A traced tuple, a stall tuple, an untargeted
// keyed tuple (each picks its own replica) and a tuple of a stream with
// several consumers are stretches of one, so the traced tuple's stage
// boundaries stay its own and outputs stay tuple-major.
func (n *Node) processRun(l *lane, run *workerRun, rs *routeState) {
	nodeID := rs.nodeID()
	ev, stages, _ := n.observer()
	run.started = n.started.Load()
	run.startNano = n.startNano.Load()
	run.busyBase = n.busy.Load()
	run.busyDelta, run.laneBusy = 0, 0
	var stranded int64
	run.outs = run.outs[:0]
	run.fwds.reset()
	run.keyed.reset()
	run.tgts = run.tgts[:0]
	var sr *streamRoute
	var sid int32
	for i := 0; i < len(run.tuples); {
		t := &run.tuples[i]
		if t.Stream == stallStream {
			// Migration state-transfer charge: Value already carries the
			// cost units making svc = Value/capacity = the stall seconds.
			n.pace(run, t.Value)
			i++
			continue
		}
		if sr == nil || t.Stream != sid {
			sid, sr = t.Stream, rs.lookup(t.Stream)
		}
		traced := t.Flags&TupleTraced != 0
		j := i + 1
		if !traced && (t.target != 0 || sr.part == nil && len(sr.cons) < 2) {
			for j < len(run.tuples) {
				u := &run.tuples[j]
				if u.Stream != sid || u.target != t.target || u.Flags&TupleTraced != 0 {
					break
				}
				j++
			}
		}
		ts := run.tuples[i:j]
		i = j
		// Stage boundary: a traced tuple leaves the queue now; the time
		// since its ingress admission is queue wait, the time until its
		// outputs are ready (including virtual-CPU pacing) is service.
		var svcStart int64
		if traced {
			svcStart = time.Now().UnixNano()
		}
		outsBefore := len(run.outs)
		var cost float64 // the last tuple's, over its consumers; not yet charged
		switch {
		case t.target != 0 || sr.part != nil:
			// Addressed delivery (a keyed replica, or a consumer the tuple
			// was relayed to): exactly one operator, never the stream's
			// subscribers. If it left between admission and draining,
			// follow its relay entry; with none, count the loss. A keyed
			// tuple admitted untargeted — its replica lived on another node
			// by the table ingress read — is routed by this snapshot's
			// table: addressed to its replica when that is here now, sent
			// on to the replica's node as it is otherwise (its Seq kept,
			// and counted again neither in the slot tallies, which only the
			// splitter's home keeps, nor as emitted).
			tgt := t.target
			if tgt == 0 {
				d := &sr.part.route[slotOf(t)]
				if tgt = d.target; tgt == 0 {
					if d.addr != "" {
						run.keyed.add(d.addr, ts)
					} else {
						stranded += int64(len(ts))
					}
					break
				}
			}
			if e := run.targetOf(rs, sr, sid, tgt); e.op != nil {
				cost = n.process(run, e.op, ts)
			} else if e.relay != "" {
				run.fwds.addFor(follower{tgt, e.relay}, ts)
			} else {
				stranded += int64(len(ts))
			}
		case len(sr.cons)+len(sr.follow) == 0:
			// Every subscriber left without a relay entry: count the loss
			// instead of silently absorbing the tuples (the conservation
			// ledger audits this).
			stranded += int64(len(ts))
		default:
			for _, op := range sr.cons {
				cost += n.process(run, op, ts)
			}
			// Each subscriber that left takes its copy, addressed to it,
			// in queue order: whatever was queued when it left and
			// whatever arrives after, by the one path.
			for _, f := range sr.follow {
				run.fwds.addFor(f, ts)
			}
		}
		n.pace(run, cost)
		if traced {
			run.release()
			svcEnd := time.Now().UnixNano()
			var queueSec float64
			if t.TraceTs > 0 {
				queueSec = float64(svcStart-t.TraceTs) / float64(time.Second)
			}
			svcSec := float64(svcEnd-svcStart) / float64(time.Second)
			stages.Observe(obs.StageQueue, queueSec)
			stages.Observe(obs.StageService, svcSec)
			// Outputs inherit the service-end boundary, so their next
			// crossing (outbox residence or local re-queue wait) starts
			// here and the stage durations keep telescoping.
			for k := outsBefore; k < len(run.outs); k++ {
				run.outs[k].TraceTs = svcEnd
			}
			ev.Emit(obs.LevelDebug, obs.EventSpan, "stage", "process",
				"node", nodeID, "stream", int(t.Stream), "seq", t.Seq,
				"ts", t.Ts, "queue", queueSec, "service", svcSec,
				"cost", cost, "outs", len(run.outs)-outsBefore)
		}
	}
	run.release()
	if run.busyDelta > 0 {
		n.busy.Add(run.busyDelta)
	}
	if run.laneBusy > 0 {
		l.busy.Add(run.laneBusy)
	}
	if stranded > 0 {
		n.dropNoRt.Add(stranded)
	}
	l.processed.Add(int64(len(run.tuples)))
	run.flushSamples(n.estimator)
	for i := range run.fwds {
		n.sendRelay(run.fwds[i].addr, run.fwds[i].ts)
	}
	for i := range run.keyed {
		n.sendBatch(run.keyed[i].addr, run.keyed[i].ts)
	}
	n.routeBatch(l, rs, run)
}

// process steps a stretch of tuples of one stream through one operator,
// appending emitted tuples to run.outs. The operator's mutex is taken, its
// spec read and its estimator slot found once per stretch; per tuple, in
// locals, it advances the selectivity accumulator, the processed count, the
// output counter, the sample and a join's window, builds the outputs, and
// charges the cost —
// pacing after every tuple but the last, whose cost it returns for the
// caller to charge once the tuple's last consumer has stepped. The locals
// are written back before every pacing sleep (which drops the mutex) and at
// the end; the mutex itself stays held for the next step (see
// workerRun.hold).
func (n *Node) process(run *workerRun, op *liveOp, ts []Tuple) float64 {
	run.hold(op)
	spec := &op.spec
	join := spec.Kind == "join"
	side := 0
	if join {
		side = op.sideOf[int(ts[0].Stream)]
	}
	s := run.sample(spec.ID)
	// The next output's Seq is seq0+out: numbering off the sample's output
	// count keeps the loop one carried counter short.
	acc, processed, seq0 := op.selAcc, op.processed, op.nextSeq-s.out
	in, out, cpu := s.in, s.out, s.cpu
	win := op.window
	outs := run.outs
	stream := int32(spec.Out)
	cost, produced := spec.Cost, spec.Selectivity
	for i := range ts {
		t := &ts[i]
		if join {
			now := time.Now().UnixNano()
			win[side] = append(win[side], now)
			horizon := now - int64(spec.Window/2*float64(time.Second))
			for w := range win {
				lo := 0
				for lo < len(win[w]) && win[w][lo] < horizon {
					lo++
				}
				win[w] = win[w][lo:]
			}
			pairs := len(win[1-side])
			cost = spec.Cost * float64(pairs)
			produced = spec.Selectivity * float64(pairs)
		}
		acc += produced
		k := int(acc)
		acc -= float64(k)
		processed++
		in++
		out += int64(k)
		cpu += cost
		for ; k > 0; k-- {
			// An output is the input with its stream rewritten, built in
			// its slot: it inherits Ts, Value, the trace context and the
			// partition key (so downstream sharded stages keep keyed
			// semantics), takes the next number of its stream as its Seq
			// (receivers dedup by it; out already counts the k outputs
			// of this input), and never keeps the in-memory
			// target, because addressing is resolved per stream by whoever
			// routes the output.
			outs = append(outs, *t)
			o := &outs[len(outs)-1]
			o.Stream, o.Seq, o.target = stream, seq0+out-int64(k), 0
		}
		if cost <= 0 || i == len(ts)-1 {
			continue
		}
		if ahead := run.charge(cost, n.capacity); ahead > 0 {
			op.selAcc, op.processed, op.nextSeq, op.window = acc, processed, seq0+out, win
			s.in, s.out, s.cpu = in, out, cpu
			run.outs = outs
			n.sleep(run, ahead)
			run.hold(op)
			acc, processed, seq0, win = op.selAcc, op.processed, op.nextSeq-out, op.window
		}
	}
	op.selAcc, op.processed, op.nextSeq, op.window = acc, processed, seq0+out, win
	s.in, s.out, s.cpu = in, out, cpu
	run.outs = outs
	return cost
}

// routeBatch delivers a run of operator-emitted tuples: local consumers
// re-enter their lane's queue (bucketed per lane, one lock acquisition per
// lane, also for a subscriber that left, whose copy its relay entry takes
// from there in queue order); remote destinations are aggregated per peer
// and offered to that peer's outbox ring in one sendBatch each (charging
// send-side transfer cost per accepted tuple). Routing state comes from the
// run's route snapshot, one entry lookup per run of equal Stream; no
// node-wide lock is taken. A run of equal Stream on a broadcast stream goes
// to its lane bucket and to each forward group in one bulk append apiece;
// keyed outputs are routed one by one, since each picks its own replica.
// Every bucket and group still receives its tuples in output order.
func (n *Node) routeBatch(l *lane, rs *routeState, run *workerRun) {
	outs := run.outs
	if len(outs) == 0 {
		return
	}
	closing := n.closed.Load()
	run.egress.reset()
	var localCount int64
	var tally slotTally // keyed tuples of the current stream, per slot
	var sr *streamRoute
	var sid int32
	for i := 0; i < len(outs); {
		sid, sr = outs[i].Stream, rs.lookup(outs[i].Stream)
		j := i + 1
		for j < len(outs) && outs[j].Stream == sid {
			j++
		}
		// Partitioned (keyed) streams: pick the one replica owning the
		// tuple's slot — a targeted local re-entry when it lives here, a
		// grouped remote send otherwise. This is also where the per-slot
		// rate counters accumulate: every tuple of the keyed stream passes
		// through its splitter's home exactly once.
		if pt := sr.part; pt != nil {
			for ; i < j; i++ {
				t := &outs[i]
				slot := slotOf(t)
				tally.add(slot)
				switch d := &pt.route[slot]; {
				case d.target != 0 && !closing:
					t.target = d.target
					li := sr.laneFor(t, n.workers)
					run.locals[li] = append(run.locals[li], *t)
					localCount++
				case d.addr != "":
					run.egress.add(d.addr, outs[i:i+1])
				default:
					n.dropNoRt.Add(1)
				}
			}
			tally.flush(pt)
			continue
		}
		if len(sr.subs) > 0 && !closing {
			li := sr.lane // outputs carry no target
			run.locals[li] = append(run.locals[li], outs[i:j]...)
			localCount += int64(j - i)
		}
		for _, d := range sr.fwd {
			run.egress.add(d.Addr, outs[i:j])
		}
		i = j
	}
	if localCount > 0 {
		n.emitted.Add(localCount)
		for li := range run.locals {
			if len(run.locals[li]) == 0 {
				continue
			}
			n.lanes[li].requeue(run.locals[li])
			run.locals[li] = run.locals[li][:0]
		}
	}
	for gi := range run.egress {
		g := &run.egress[gi]
		accepted := n.sendBatch(g.addr, g.ts)
		if accepted == 0 {
			continue
		}
		var xferBusy int64
		for i := range g.ts[:accepted] {
			if s := g.ts[i].Stream; sr == nil || s != sid {
				sid, sr = s, rs.lookup(s)
			}
			xferBusy += sr.xferNs
		}
		n.emitted.Add(int64(accepted))
		if xferBusy > 0 {
			n.busy.Add(xferBusy)
			l.busy.Add(xferBusy)
		}
	}
}

// slotTally is a run's count of one keyed stream's tuples per slot, kept
// with the list of slots it touched so that folding it into the shared
// routed counters costs one atomic add per touched slot: a run that
// alternates keyed and unkeyed outputs per tuple pays one add per switch, as
// a per-tuple counter would, and a run of one keyed stream pays at most
// ShardSlots for the whole run.
type slotTally struct {
	counts  [query.ShardSlots]int64
	touched [query.ShardSlots]uint8
	n       int
}

func (st *slotTally) add(slot int) {
	if st.counts[slot] == 0 {
		st.touched[st.n] = uint8(slot)
		st.n++
	}
	st.counts[slot]++
}

// flush adds the tallies to pt's counters and empties the tally.
func (st *slotTally) flush(pt *partTable) {
	for _, slot := range st.touched[:st.n] {
		atomic.AddInt64(&pt.counts[slot], st.counts[slot])
		st.counts[slot] = 0
	}
	st.n = 0
}
