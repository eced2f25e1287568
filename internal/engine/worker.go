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
// cache, per-destination forward groups, local re-entry buckets per lane,
// and the per-operator estimator samples accumulated over the run. Reuse
// keeps the steady-state dequeue path allocation-free.
type workerRun struct {
	tuples  []Tuple // read only: aliases the lane queue
	outs    []Tuple
	held    *liveOp // operator whose mu this worker holds; see hold
	tgts    []tgtEntry
	fwds    destRuns    // queued-before-migration tuples to relay onward
	egress  destRuns    // routeBatch per-destination remote groups
	locals  [][]Tuple   // routeBatch per-lane local re-entry buckets
	samples []runSample // per-(op, run) estimator aggregation
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

func (r *workerRun) sample(id int, out int64, cpu float64) {
	for i := range r.samples {
		if r.samples[i].id == id {
			r.samples[i].in++
			r.samples[i].out += out
			r.samples[i].cpu += cpu
			return
		}
	}
	r.samples = append(r.samples, runSample{id: id, in: 1, out: out, cpu: cpu})
}

func (r *workerRun) flushSamples(est *stats.CostEstimator) {
	for i := range r.samples {
		s := &r.samples[i]
		est.Record(s.id, stats.OpSample{In: s.in, Out: s.out, CPU: s.cpu})
	}
	r.samples = r.samples[:0]
}

// hold makes op the operator this worker has locked. The mutex stays held
// from one tuple to the next for as long as consecutive tuples step the same
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

// tgtEntry caches the resolution of one targeted (keyed) delivery for the
// current run: the addressed replica when it is still installed, or the
// relay address of its new home when it migrated away mid-queue.
type tgtEntry struct {
	id    int32
	op    *liveOp
	relay string
}

// targetOf returns the cached resolution for a targeted tuple of stream
// entry sr, resolving it from the route snapshot (and the stream's
// partition-table relay map) on a miss. The snapshot is immutable, so no
// lock is needed.
func (r *workerRun) targetOf(rs *routeState, sr *streamRoute, t *Tuple) *tgtEntry {
	for i := range r.tgts {
		if r.tgts[i].id == t.target {
			return &r.tgts[i]
		}
	}
	e := tgtEntry{id: t.target}
	if op := rs.ops[int(t.target)-1]; op != nil {
		e.op = op
	} else if sr.part != nil {
		e.relay = sr.part.relay[int(t.target)-1]
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
		n.processRun(l, &run)
		l.endRun()
	}
}

// processRun steps run.tuples through their operators against one route
// snapshot, then accounts, forwards and routes what the run produced. It
// runs outside the lane lock, pacing per tuple against a locally accumulated
// busy delta (concurrent charges from other lanes and the ingress transfer
// cost land in n.busy and are picked up at the next flush).
func (n *Node) processRun(l *lane, run *workerRun) {
	rs := n.route.Load()
	nodeID := rs.nodeID()
	ev, stages, _ := n.observer()
	started := n.started.Load()
	startNano := n.startNano.Load()
	busyBase := n.busy.Load()
	var busyDelta, laneBusy int64
	var stranded int64
	run.outs = run.outs[:0]
	run.fwds.reset()
	run.tgts = run.tgts[:0]
	var sr *streamRoute
	var sid int32
	for i := range run.tuples {
		t := &run.tuples[i]
		var cost float64
		outsBefore := len(run.outs)
		// Stage boundary: a traced tuple leaves the queue now; the time
		// since its ingress admission is queue wait, the time until its
		// outputs are ready (including virtual-CPU pacing) is service.
		tracedT := t.Flags&TupleTraced != 0 && t.Stream != stallStream
		var svcStart int64
		if tracedT {
			svcStart = time.Now().UnixNano()
		}
		if t.Stream == stallStream {
			// Migration state-transfer pause: Value already carries the
			// cost units making svc = Value/capacity = the stall seconds.
			cost = t.Value
		} else {
			if sr == nil || t.Stream != sid {
				sid, sr = t.Stream, rs.lookup(t.Stream)
			}
			if t.target != 0 {
				// Targeted (keyed) delivery: exactly one addressed
				// replica, never the stream's broadcast consumer set. If
				// the replica migrated between admission and draining,
				// forward to its recorded new home; with no record left,
				// count the loss.
				if e := run.targetOf(rs, sr, t); e.op != nil {
					cost = n.process(run, e.op, t)
				} else if e.relay != "" {
					run.fwds.add(e.relay, run.tuples[i:i+1])
				} else {
					stranded++
				}
			} else if len(sr.cons) > 0 {
				for _, op := range sr.cons {
					cost += n.process(run, op, t)
				}
			} else {
				// Admitted while a local consumer existed, drained after
				// it migrated away: relay toward the new home, or — with
				// no relay route left — count the loss instead of
				// silently absorbing the tuple (the conservation ledger
				// audits this).
				if len(sr.relays) == 0 {
					stranded++
				}
				for _, d := range sr.relays {
					run.fwds.add(d.Addr, run.tuples[i:i+1])
				}
			}
		}
		if cost > 0 {
			d := int64(time.Duration(cost / n.capacity * float64(time.Second)))
			busyDelta += d
			laneBusy += d
			if started {
				// Pace: virtual time must not run ahead of wall time.
				ahead := busyBase + busyDelta - (time.Now().UnixNano() - startNano)
				if ahead > int64(500*time.Microsecond) {
					// Flush the accumulated virtual time before sleeping
					// so stats polled mid-sleep see it (a costly run can
					// carry seconds of virtual time; utilization must not
					// lag by that much). The zero-cost path never touches
					// the shared accumulator.
					busyBase = n.busy.Add(busyDelta)
					busyDelta = 0
					run.release()
					time.Sleep(time.Duration(ahead))
				}
			}
		}
		if tracedT {
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
			for j := outsBefore; j < len(run.outs); j++ {
				run.outs[j].TraceTs = svcEnd
			}
			ev.Emit(obs.LevelDebug, obs.EventSpan, "stage", "process",
				"node", nodeID, "stream", int(t.Stream), "seq", t.Seq,
				"ts", t.Ts, "queue", queueSec, "service", svcSec,
				"cost", cost, "outs", len(run.outs)-outsBefore)
		}
	}
	run.release()
	if busyDelta > 0 {
		n.busy.Add(busyDelta)
	}
	if laneBusy > 0 {
		l.busy.Add(laneBusy)
	}
	if stranded > 0 {
		n.dropNoRt.Add(stranded)
	}
	l.processed.Add(int64(len(run.tuples)))
	run.flushSamples(n.estimator)
	for i := range run.fwds {
		n.sendBatch(run.fwds[i].addr, run.fwds[i].ts)
	}
	n.routeBatch(l, rs, run)
}

// process runs one tuple through one operator, appending emitted tuples to
// run.outs and returning the cost-units consumed. The operator's mutable
// state is guarded by its own mutex, which process leaves held for the next
// tuple (see workerRun.hold).
func (n *Node) process(run *workerRun, op *liveOp, t *Tuple) float64 {
	run.hold(op)
	cost := op.spec.Cost
	produced := op.spec.Selectivity
	if op.spec.Kind == "join" {
		now := time.Now().UnixNano()
		side := op.sideOf[int(t.Stream)]
		op.window[side] = append(op.window[side], now)
		horizon := now - int64(op.spec.Window/2*float64(time.Second))
		for s := range op.window {
			win := op.window[s]
			lo := 0
			for lo < len(win) && win[lo] < horizon {
				lo++
			}
			op.window[s] = win[lo:]
		}
		pairs := len(op.window[1-side])
		cost = op.spec.Cost * float64(pairs)
		produced = op.spec.Selectivity * float64(pairs)
	}
	op.selAcc += produced
	k := int(op.selAcc)
	op.selAcc -= float64(k)
	op.processed++
	out := int32(op.spec.Out)
	run.sample(op.spec.ID, int64(k), cost)
	for i := 0; i < k; i++ {
		// An output is the input with its stream rewritten, built in its
		// slot: it inherits Ts, Seq, Value, the trace context and the
		// partition key (so downstream sharded stages keep keyed
		// semantics) but never the in-memory target, because addressing is
		// resolved per stream by whoever routes the output.
		run.outs = append(run.outs, *t)
		o := &run.outs[len(run.outs)-1]
		o.Stream = out
		o.target = 0
	}
	return cost
}

// routeBatch delivers a run of operator-emitted tuples: local consumers
// re-enter their lane's queue (bucketed per lane, one lock acquisition per
// lane); remote destinations are aggregated per peer and offered to that
// peer's outbox ring in one sendBatch each (charging send-side transfer cost
// per accepted tuple). Routing state comes from the run's route snapshot,
// one entry lookup per run of equal Stream; no node-wide lock is taken. A
// run of equal Stream on a broadcast stream goes to its lane bucket and to
// each forward group in one bulk append apiece; keyed outputs are routed one
// by one, since each picks its own replica. Every bucket and group still
// receives its tuples in output order.
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
