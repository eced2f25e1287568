package engine

import (
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Worker lanes — the node's sharded ingress and multi-worker data plane.
//
// A node runs W = NodeConfig.Workers lanes. Each lane owns a bounded work
// queue, a condition variable, its own shed accounting and a worker
// goroutine, so reader goroutines and workers stop serializing on one node
// mutex. Tuples are assigned to lanes so that no operator's mutable state
// is ever touched by two lanes at once and per-(stream, key) order is
// preserved:
//
//   - addressed tuples hash the operator they are addressed to: every tuple
//     of one partition slot resolves to one replica and therefore one lane,
//     which is the Fibonacci hash of (stream, key) by way of the partition
//     table — keyed-shard slot affinity — and a moved-in operator's
//     relayed input sits on its own lane the same way;
//   - broadcast tuples hash their stream's *consumer group*: streams that
//     share a consumer operator (a join's two inputs, a merge's replica
//     outputs) are unioned into one group so the shared operator stays
//     single-lane, and the group's lane is the Fibonacci hash of its
//     lowest stream id — per-stream FIFO order is preserved because one
//     stream maps to exactly one lane.
//
// Route mutations (deploy, addop/removeop during migration, repart) never
// re-pin a broadcast stream: its consumer group is the deployed spec's
// subscriptions, which no mutation edits. A moved-in operator's input
// arrives addressed to it and sits on its replica-style lane; liveOp state
// is mutex-guarded (see workerRun.hold), so an operator fed from two lanes
// stays safe.

// maxWorkers caps the lane count at a sane bound.
const maxWorkers = 64

// resolveWorkers maps the configured worker count to the effective lane
// count. The zero value selects ONE lane: the deterministic legacy data
// plane (single queue, single worker), which every existing workload and
// test observes unchanged regardless of GOMAXPROCS. Multicore scaling is
// opt-in: deployments pass an explicit count (the CLIs map their -workers
// auto setting to runtime.GOMAXPROCS(0)), which is honored as given — also
// above GOMAXPROCS, so tests can exercise multi-lane interleavings on a
// single-core machine — and capped at maxWorkers.
func resolveWorkers(cfg int) int {
	if cfg <= 0 {
		return 1
	}
	if cfg > maxWorkers {
		return maxWorkers
	}
	return cfg
}

// fibLane is the Fibonacci-hash lane assignment: multiply by the 64-bit
// golden-ratio constant and fold the well-mixed high bits onto [0, w).
func fibLane(x uint64, w uint32) uint32 {
	if w <= 1 {
		return 0
	}
	return uint32((x*0x9E3779B97F4A7C15)>>33) % w
}

// lane is one worker lane: a bounded queue and the counters the ledger
// aggregates. Counters that other goroutines read while the lane runs hot
// are atomics; queue state is guarded by the lane's own mutex, which only
// this lane's admissions and worker contend for. Lanes are individually
// heap-allocated (the node holds []*lane) and padded so two lanes' hot
// fields never share a cache line.
type lane struct {
	id  uint32
	cap int // per-lane ingress bound: ceil(IngressCap / W)

	mu           sync.Mutex
	cond         *sync.Cond
	queue        []Tuple
	qhead        int
	inRun        int
	shedding     bool
	shedByStream map[int32]int64

	shed      atomic.Int64
	processed atomic.Int64
	busy      atomic.Int64 // ns of virtual-CPU time charged by this lane
	_         [64]byte
}

func newLane(id uint32, capacity int) *lane {
	l := &lane{id: id, cap: capacity, shedByStream: map[int32]int64{}}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// qlenLocked returns the queued tuple count; callers hold l.mu.
func (l *lane) qlenLocked() int { return len(l.queue) - l.qhead }

// admitResult reports what one lane admission run did, so the caller can
// emit events after all locks are released.
type admitResult struct {
	admitted    bool
	shedOnset   bool
	onsetStream int32
	qlen        int
	shedTotal   int64
}

// chunkRange is the stretch [lo, hi) of an ingress chunk.
type chunkRange struct{ lo, hi int }

// admit appends the given stretches of an ingress chunk, in order, to the
// lane queue under one lock acquisition, shedding per the node policy when
// the lane bound is hit. The prefix of a stretch that fits goes in with one
// bulk copy; every tuple after it meets a full lane and is shed one at a
// time, so per-tuple accounting (shed counters, the onset hysteresis latch,
// drop-oldest eviction) matches the single-queue semantics exactly, per
// lane.
func (l *lane) admit(chunk []Tuple, ranges []chunkRange, policy ShedPolicy) admitResult {
	var res admitResult
	l.mu.Lock()
	for _, r := range ranges {
		ts := chunk[r.lo:r.hi]
		k := min(max(l.cap-l.qlenLocked(), 0), len(ts))
		if k > 0 {
			l.queue = append(l.queue, ts[:k]...)
			res.admitted = true
		}
		for i := k; i < len(ts); i++ {
			// Lane full: shed. Drop-newest rejects the arrival; drop-oldest
			// evicts the head to admit it, so the lane stays full.
			victim := ts[i].Stream
			if policy == DropOldest {
				victim = l.queue[l.qhead].Stream
				l.qhead++
				l.queue = append(l.queue, ts[i])
				res.admitted = true
			}
			l.shed.Add(1)
			l.shedByStream[victim]++
			if !l.shedding {
				l.shedding = true
				res.shedOnset = true
				res.onsetStream = victim
			}
		}
	}
	if res.admitted {
		l.cond.Signal()
	}
	res.qlen = l.qlenLocked()
	res.shedTotal = l.shed.Load()
	l.mu.Unlock()
	return res
}

// requeue appends operator outputs back onto the lane queue. Local
// re-entries are never shed (matching the single-queue data plane: only
// ingress admissions are bounded).
func (l *lane) requeue(ts []Tuple) {
	l.mu.Lock()
	l.queue = append(l.queue, ts...)
	l.cond.Signal()
	l.mu.Unlock()
}

// take hands the lane worker its next run, up to batchMax queued tuples, and
// counts them in flight; callers hold l.mu. The run is not a copy: it
// aliases the queue slots [qhead, qhead+k), capped so that nothing appended
// through it could reach the slots behind. Nothing writes those slots while
// the run is out, because until endRun nothing writes any slot below
// len(l.queue):
//
//   - admit, requeue and stall only append, and an append that outgrows the
//     array moves the queue to a new one, leaving the old array — which the
//     run still points into — as it was;
//   - drop-oldest eviction only advances qhead, past slots behind the run;
//   - the only writes below len, resetting an empty queue and compacting a
//     long-drained one, are endRun's, and endRun runs after the run.
func (l *lane) take() []Tuple {
	k := min(l.qlenLocked(), batchMax)
	run := l.queue[l.qhead : l.qhead+k : l.qhead+k]
	l.qhead += k
	l.inRun = k
	return run
}

// endRun lapses the worker's in-flight claim once its run's outputs are
// routed and counted (one uncontended lock per run, not per tuple), and only
// then reuses the drained slots: an empty queue starts over at slot 0, and a
// queue whose drained prefix is both past 4096 slots and most of its length
// is compacted.
func (l *lane) endRun() {
	l.mu.Lock()
	l.inRun = 0
	if l.qhead == len(l.queue) {
		l.queue, l.qhead = l.queue[:0], 0
	} else if l.qhead > 4096 && l.qhead*2 > len(l.queue) {
		l.queue = append(l.queue[:0], l.queue[l.qhead:]...)
		l.qhead = 0
	}
	l.mu.Unlock()
}

// routeState is the node's copy-on-write routing snapshot: the data-plane
// hot paths (ingress admission, the lane workers, egress routing) read it
// with one atomic load and then walk immutable state, so they never contend
// with control-plane mutations. Everything the data plane needs to know
// about one stream sits in that stream's streamRoute, so a loop that holds a
// run of tuples looks the entry up once per run of equal Stream, not once
// per question per tuple. Mutators (deploy, addop, removeop, repart)
// serialize on n.mu, clone the state, edit the clone, call complete and
// publish the successor with n.route.Store. liveOp pointers and partTable
// counts slices are shared across snapshots: operator state follows the
// operator, and per-slot counters (atomics) keep accumulating across
// repartitions.
type routeState struct {
	spec    *NodeSpec
	ops     map[int]*liveOp
	streams map[int32]*streamRoute
}

// streamRoute is one stream's routing entry. The first group of fields is
// what mutators edit (on an unpublished clone); the second is derived from
// it by routeState.complete, so the hot paths never resolve an operator id,
// hash a stream or divide by the capacity per tuple. A published entry is
// immutable.
//
// relay is the one record migration keeps: for each consumer of the stream
// that left this node, the node it went to next. An entry is added when the
// consumer is removed here and deleted when it is installed here again, so
// entries only point where a consumer went next and the entries a tuple
// follows end where the consumer is (a tuple comes back to a node only with
// its consumer). Whatever follows an entry carries the consumer's id
// (Tuple.target): a moved-in operator takes only such addressed copies,
// never the untargeted tuples of a stream its deployed spec does not
// subscribe it to.
type streamRoute struct {
	subs  []int          // local consumers the deployed spec subscribes
	fwd   []Dest         // remote destinations of tuples produced here
	relay map[int]string // departed consumer id → the node it went to next
	part  *partTable     // keyed routing table; nil for a broadcast stream
	xfer  float64        // transfer cost, cost units per tuple crossing a link

	cons   []*liveOp  // subs that are installed here, in subs order
	follow []follower // relay entries of subs: each takes a copy of every untargeted tuple
	lane   uint32     // pinned lane (consumer-group hash, see complete)
	xferNs int64      // xfer as virtual-CPU ns at this node's capacity
}

// follower is the relay entry of a subscriber that left: the Tuple.target
// its copies carry and where they go.
type follower struct {
	target int32
	addr   string
}

// noRoute is the entry of every stream the snapshot does not mention.
var noRoute streamRoute

func emptyRouteState() *routeState {
	return &routeState{ops: map[int]*liveOp{}, streams: map[int32]*streamRoute{}}
}

// nodeID returns the deployed node id (-1 before deployment).
func (rs *routeState) nodeID() int {
	if rs.spec == nil {
		return -1
	}
	return rs.spec.NodeID
}

// lookup returns the stream's entry (never nil: unmentioned streams share
// the empty noRoute entry).
func (rs *routeState) lookup(sid int32) *streamRoute {
	if sr := rs.streams[sid]; sr != nil {
		return sr
	}
	return &noRoute
}

// stream returns the entry a mutator edits, creating it on first mention.
func (rs *routeState) stream(sid int) *streamRoute {
	sr := rs.streams[int32(sid)]
	if sr == nil {
		sr = &streamRoute{}
		rs.streams[int32(sid)] = sr
	}
	return sr
}

// clone deep-copies the routing state (sharing liveOp pointers and
// partition-count slices, see routeState) so a mutator can edit freely
// before publishing. The derived fields are copied as they are and rebuilt
// by complete.
func (rs *routeState) clone() *routeState {
	c := &routeState{
		spec:    rs.spec,
		ops:     make(map[int]*liveOp, len(rs.ops)),
		streams: make(map[int32]*streamRoute, len(rs.streams)),
	}
	for k, v := range rs.ops {
		c.ops[k] = v
	}
	for sid, sr := range rs.streams {
		cp := *sr
		cp.subs = append([]int(nil), sr.subs...)
		cp.fwd = append([]Dest(nil), sr.fwd...)
		cp.relay = maps.Clone(sr.relay)
		if sr.part != nil {
			cp.part = sr.part.clone()
		}
		c.streams[sid] = &cp
	}
	return c
}

// complete derives every entry's resolved fields from the edited ones; each
// mutator calls it on its clone right before publishing. Consumers are the
// subscribed operators installed here, followers the relay entries of those
// that left; partition tables get their per-slot resolution; and streams are
// pinned to lanes: streams sharing a consumer operator are unioned into one
// group (so a join or merge is fed by a single lane), and each group hashes
// its lowest stream id to a lane.
func (rs *routeState) complete(w uint32, capacity float64) {
	// Union-find over stream ids, keyed by shared consumer op.
	parent := map[int32]int32{}
	var find func(x int32) int32
	find = func(x int32) int32 {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if rb < ra { // keep the lowest stream id as the root
			ra, rb = rb, ra
		}
		parent[rb] = ra
	}
	byOp := map[int]int32{} // op id → representative input stream
	for sid, sr := range rs.streams {
		sr.cons, sr.follow = nil, nil
		for _, id := range sr.subs {
			if op := rs.ops[id]; op != nil {
				sr.cons = append(sr.cons, op)
			} else if addr := sr.relay[id]; addr != "" {
				sr.follow = append(sr.follow, follower{int32(id) + 1, addr})
			}
			if rep, ok := byOp[id]; ok {
				union(rep, sid)
			} else {
				byOp[id] = sid
			}
		}
		sr.xferNs = max(0, int64(time.Duration(sr.xfer/capacity*float64(time.Second))))
		if sr.part != nil {
			sr.part.complete()
		}
	}
	for sid, sr := range rs.streams {
		sr.lane = fibLane(uint64(uint32(find(sid))), w)
	}
}

// laneFor assigns one tuple of the stream to its lane: addressed tuples
// hash the operator they name, whatever the stream's pinning; everything
// else goes to the stream's pinned consumer group.
func (sr *streamRoute) laneFor(t *Tuple, w uint32) uint32 {
	if t.target != 0 {
		return fibLane(uint64(uint32(t.target)), w)
	}
	return sr.lane
}

// clone copies a partition table for a copy-on-write route mutation. The
// counts slice is shared — per-slot routed counters are atomics that keep
// accumulating across snapshot swaps (and survive repartitions).
func (pt *partTable) clone() *partTable {
	return &partTable{
		parent: pt.parent,
		k:      pt.k,
		slots:  append([]int(nil), pt.slots...),
		shards: append([]Dest(nil), pt.shards...),
		ops:    append([]int(nil), pt.ops...),
		counts: pt.counts,
		route:  pt.route,
	}
}

// accepts reports whether a tuple of stream sid addressed to target (an
// operator id + 1, as decoded off the wire) has somewhere to go here: the
// operator is installed and consumes the stream, or it left and the stream
// holds its relay entry. Anything else is a routing gap, whatever the
// target names.
func (rs *routeState) accepts(sid int32, sr *streamRoute, target int32) bool {
	id := int(target) - 1
	if op := rs.ops[id]; op != nil {
		return slices.Contains(op.spec.Inputs, int(sid))
	}
	return sr.relay[id] != ""
}
