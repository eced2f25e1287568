package engine

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rodsp/internal/obs"
	"rodsp/internal/query"
	"rodsp/internal/stats"
	"rodsp/internal/wal"
)

// ShedPolicy selects which tuple is sacrificed when the bounded ingress
// queue is full.
type ShedPolicy int

const (
	// DropNewest rejects the arriving tuple (default: keeps the oldest
	// work, preserving FIFO latency for tuples already admitted).
	DropNewest ShedPolicy = iota
	// DropOldest evicts the head of the queue to admit the arrival
	// (bounds staleness: fresh tuples win over stale backlog).
	DropOldest
)

func (p ShedPolicy) String() string {
	if p == DropOldest {
		return "drop-oldest"
	}
	return "drop-newest"
}

// ParseShedPolicy parses "drop-newest" | "drop-oldest".
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "", "drop-newest":
		return DropNewest, nil
	case "drop-oldest":
		return DropOldest, nil
	default:
		return DropNewest, fmt.Errorf("engine: unknown shed policy %q (want drop-newest|drop-oldest)", s)
	}
}

// NodeConfig tunes the node's data-plane resilience knobs. The zero value
// selects the defaults noted on each field.
type NodeConfig struct {
	// IngressCap bounds the work queue; arrivals beyond it are shed per
	// ShedPolicy. With W worker lanes each lane is bounded at
	// ceil(IngressCap/W). <= 0 selects DefaultIngressCap.
	IngressCap int
	// ShedPolicy picks the victim when the ingress queue is full.
	ShedPolicy ShedPolicy
	// OutboxCap is the number of tuples one per-peer outbox holds, in
	// total: accepted-but-unwritten plus, on a node with a WAL, written-
	// but-unacked. Every lane worker shares it. Without a WAL an offer
	// beyond it drops with a counter; with one it is the sender's credit,
	// and a worker whose offer does not fit waits for the receiver's acks
	// to free room (see outbox.go). It bounds the ring, it does not size
	// it: the ring starts at one frame of slots and grows to the link's
	// high-water mark, so its memory is what the link has held at most,
	// never more than OutboxCap tuples.
	// <= 0 selects DefaultOutboxCap.
	OutboxCap int
	// BackoffBase/BackoffMax shape the reconnect schedule
	// (base·2^attempt capped at max, ±25% jitter). Defaults 50ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Workers is the worker-lane count: parallel data-plane shards, each
	// with its own bounded queue, shed accounting and worker goroutine
	// (see lane.go for the (stream, key) → lane assignment). <= 0 selects
	// a single lane — the deterministic legacy data plane; deployments
	// that want one lane per core pass runtime.GOMAXPROCS(0). Capped at
	// maxWorkers.
	Workers int
	// WALDir enables the per-node durability layer, and it alone decides
	// what the node's links do. As a sender, the node numbers every frame
	// it ships (to other nodes and to the collector alike), retains it in
	// the outbox ring until the receiver acks it, and makes a worker wait
	// for room when the ring is full. As a receiver, it WAL-logs
	// (fsync-batched) each sequenced frame before admission and acks it
	// after the commit, and a restart with the same WALDir recovers the
	// deployed spec, operator state and the unprocessed backlog (see
	// durable.go). Empty: frames go out unsequenced, settle when written
	// and drop on a full ring, and sequenced frames that arrive are
	// deduped and acked on admission, without a log.
	WALDir string
	// CheckpointEvery is the interval between checkpoint attempts; a
	// checkpoint only lands at a drained moment (empty lanes, empty
	// outboxes), truncating the WAL behind it. <= 0 selects 100ms when
	// WALDir is set.
	CheckpointEvery time.Duration
}

// Default data-plane bounds.
const (
	DefaultIngressCap = 100000
	DefaultOutboxCap  = 4096
)

// batchMax bounds how many tuples one lock acquisition may move on the hot
// path: an ingress admission chunk and a worker dequeue run.
const batchMax = 256

// dialTimeout bounds each outbox dial. flushTimeout is the deadline of each
// outbox write, so a stalled (but not dead) peer surfaces as a link failure.
const (
	dialTimeout  = 2 * time.Second
	flushTimeout = 2 * time.Second
)

func (cfg *NodeConfig) applyDefaults() {
	if cfg.IngressCap <= 0 {
		cfg.IngressCap = DefaultIngressCap
	}
	if cfg.OutboxCap <= 0 {
		cfg.OutboxCap = DefaultOutboxCap
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 2 * time.Second
	}
	cfg.Workers = resolveWorkers(cfg.Workers)
	if cfg.WALDir != "" && cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 100 * time.Millisecond
	}
}

// Node is one engine process: it listens for control and tuple connections,
// hosts deployed operators, and runs a virtual CPU of the configured
// capacity (cost-units of operator work completed per wall second), shared
// by its worker lanes. Routing state is a copy-on-write snapshot (n.route)
// so the data plane never locks against the control plane; counters are
// atomics aggregated by Stats.
type Node struct {
	capacity float64
	cfg      NodeConfig
	ln       net.Listener
	workers  uint32
	lanes    []*lane

	mu    sync.Mutex // serializes route mutators and start/stop
	route atomic.Pointer[routeState]

	started   atomic.Bool
	startNano atomic.Int64
	busy      atomic.Int64 // virtual CPU ns consumed (all lanes + transfer)
	injected  atomic.Int64
	emitted   atomic.Int64
	dropNoRt  atomic.Int64 // tuples with no local consumer and no route onward
	closed    atomic.Bool

	warnMu        sync.Mutex
	noRouteWarned map[int32]bool // per-stream one-shot warn latch
	relayWarned   map[string]bool

	peers       map[string]*outbox
	peersMu     sync.Mutex
	peersClosed bool

	faultsMu sync.Mutex
	faults   map[string]*LinkFault

	connsMu sync.Mutex
	conns   map[net.Conn]bool

	estimator    *stats.CostEstimator
	wg           sync.WaitGroup
	sendMaxNanos atomic.Int64 // worst observed send() duration (worker path)
	scratch      sync.Pool    // *ingressScratch

	probe atomic.Pointer[nodeProbe] // observer state; see SetObserver

	// Durability state (see durable.go). bornNano doubles as the outbox
	// incarnation, so a restarted node announces a fresh identity.
	bornNano        int64
	wal             *wal.Log
	durableInflight atomic.Int64 // durable admissions between WAL append and enqueue
	sendersMu       sync.Mutex
	senders         map[string]*sender // per-sender admission lock and dedup marks
	dedupDropped    atomic.Int64
	replayed        atomic.Int64
	checkpoints     atomic.Int64
	recovered       atomic.Bool // restored state or backlog from a prior run
	restartIntent   atomic.Bool // set by the control-plane restart command
	ckQuit          chan struct{}
	done            chan struct{} // closed when Close completes (see Done)
}

// nodeProbe bundles the observer state so data-plane goroutines (ingress,
// workers, outboxes) read it with one atomic load.
type nodeProbe struct {
	ev     *obs.EventLog
	stages *obs.StageSet
	every  int64
}

type liveOp struct {
	spec OpSpec

	// mu guards the operator's mutable state. A lane worker keeps it from
	// one tuple to the next while consecutive tuples step this operator
	// (workerRun.hold) and drops it before it sleeps, observes, emits or
	// routes, so it is held for at most one run's worth of operator steps
	// between two pacing sleeps. Steady state nobody waits for it: one lane
	// owns the operator's input streams. The other takers are the transient
	// window where a route republish moves a stream to another lane while
	// the old lane still drains queued tuples, tryCheckpoint (only at a
	// drained moment) and recovery (before any worker runs).
	mu        sync.Mutex
	selAcc    float64
	window    [2][]int64 // join windows: origin-arrival wall ns per side
	sideOf    map[int]int
	processed int64
	nextSeq   int64 // Seq of the operator's next output (see process)
}

// partTable is a node's keyed routing table for one sharded stream: fixed
// slots map to shard indices, shard indices to destinations (a replica that
// is local under the table, or a remote replica home). A replica that
// migrated away keeps its slots addressed to it here until the next table
// push, and the worker forwards them along the stream's relay entry. route
// is the per-slot answer the data plane reads, derived from the other fields
// by complete. counts accumulates per-slot routed tuples on the splitter's
// home — the observed slot rates skew-aware repartitioning feeds on; its
// entries are accessed atomically and the slice is shared across route
// snapshots. The other fields are immutable once the table is published in a
// snapshot.
type partTable struct {
	parent string
	k      int
	slots  []int
	shards []Dest
	ops    []int
	counts []int64
	route  []slotDest
}

// slotDest is where one partition slot's tuples go from this node: target
// is the owning replica's operator id + 1 when the table marks it local
// (the Tuple.target encoding), otherwise addr is the replica's remote home.
// Both zero means the tuple has nowhere to go.
type slotDest struct {
	target int32
	addr   string
}

func newPartTable(ps *PartitionSpec) *partTable {
	return &partTable{
		parent: ps.Parent,
		k:      ps.K,
		slots:  append([]int(nil), ps.Slots...),
		shards: append([]Dest(nil), ps.Shards...),
		ops:    append([]int(nil), ps.Ops...),
		counts: make([]int64, len(ps.Slots)),
	}
}

// slotOf maps a tuple to its partition slot. Unkeyed tuples (Key zero)
// hash their sequence number instead, so a keyless workload degrades to a
// uniform spread rather than collapsing onto one shard.
func slotOf(t *Tuple) int {
	k := t.Key
	if k == 0 {
		k = uint64(t.Seq)
	}
	return query.SlotOfKey(k)
}

// complete resolves every slot. It builds a fresh route slice: the previous
// one may belong to a published snapshot.
func (pt *partTable) complete() {
	pt.route = make([]slotDest, len(pt.slots))
	for slot, shard := range pt.slots {
		if d := pt.shards[shard]; d.Local {
			pt.route[slot].target = int32(d.LocalOp) + 1
		} else {
			pt.route[slot].addr = d.Addr
		}
	}
}

// NewNode starts a node listening on addr ("127.0.0.1:0" for an ephemeral
// port) with the given virtual CPU capacity and default resilience bounds.
func NewNode(addr string, capacity float64) (*Node, error) {
	return NewNodeConfig(addr, capacity, NodeConfig{})
}

// NewNodeConfig starts a node with explicit data-plane bounds.
func NewNodeConfig(addr string, capacity float64, cfg NodeConfig) (*Node, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("engine: capacity %g must be positive", capacity)
	}
	cfg.applyDefaults()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("engine: listen %s: %w", addr, err)
	}
	w := cfg.Workers
	n := &Node{
		capacity:      capacity,
		cfg:           cfg,
		ln:            ln,
		workers:       uint32(w),
		noRouteWarned: map[int32]bool{},
		relayWarned:   map[string]bool{},
		peers:         map[string]*outbox{},
		faults:        map[string]*LinkFault{},
		conns:         map[net.Conn]bool{},
		estimator:     stats.NewCostEstimator(),
		senders:       map[string]*sender{},
		bornNano:      time.Now().UnixNano(),
		done:          make(chan struct{}),
	}
	n.route.Store(emptyRouteState())
	laneCap := (cfg.IngressCap + w - 1) / w
	n.lanes = make([]*lane, w)
	for i := range n.lanes {
		n.lanes[i] = newLane(uint32(i), laneCap)
	}
	n.scratch.New = func() any { return newIngressScratch(w) }
	// Recovery runs BEFORE any goroutine starts: the WAL's surviving
	// backlog is replayed into the lane queues while no connection can be
	// accepted, so re-sent retained batches from upstream peers cannot
	// race the replay (they would advance the dedup marks past
	// records not yet re-admitted). Peers dialing during replay queue in
	// the listen backlog.
	if cfg.WALDir != "" {
		if err := n.openDurability(); err != nil {
			ln.Close()
			return nil, err
		}
	}
	n.wg.Add(1 + w)
	go n.acceptLoop()
	for _, l := range n.lanes {
		go n.laneWorker(l)
	}
	if n.wal != nil {
		n.ckQuit = make(chan struct{})
		n.wg.Add(1)
		go n.checkpointLoop()
	}
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Workers returns the node's worker-lane count.
func (n *Node) Workers() int { return int(n.workers) }

// SetObserver attaches an event log for control-plane events and sampled
// per-tuple trace spans, plus the per-stage latency histograms the spans
// feed (1 in traceEvery tuples per stream is sampled; 0 disables tracing).
// The obs.EventLog methods and obs.StageSet.Observe are nil-receiver safe,
// so instrumentation sites emit unconditionally.
func (n *Node) SetObserver(ev *obs.EventLog, stages *obs.StageSet, traceEvery int64) {
	n.probe.Store(&nodeProbe{ev: ev, stages: stages, every: traceEvery})
}

// observer returns the attached observer state (nil/0 before SetObserver).
func (n *Node) observer() (*obs.EventLog, *obs.StageSet, int64) {
	if p := n.probe.Load(); p != nil {
		return p.ev, p.stages, p.every
	}
	return nil, nil, 0
}

// tracePick reports whether the sampling stride selects tuple t. The
// stride offset is derived from the stream id (a splitmix-style hash), so
// every stream rotates through its own sampling phase: with the previous
// shared `Seq%every == 0` residue, streams whose seqs never hit zero modulo
// the stride (or that emit fewer than `every` tuples) went entirely
// unsampled for whole runs.
func tracePick(every int64, t Tuple) bool {
	if every <= 0 || t.Stream < 0 {
		return false
	}
	off := int64(((uint64(uint32(t.Stream)) * 0x9E3779B97F4A7C15) >> 33) % uint64(every))
	return t.Seq%every == off
}

// Close shuts the node down and waits for its goroutines. Outboxes drain
// best-effort (buffered tuples are flushed when the link is up, counted as
// dropped otherwise) before their goroutines exit, and a worker waiting
// for ring room gives up; once every producer has stopped, any
// tuples stranded in outbox rings are swept into the drop counters so the
// outbox accounting closes post-Close.
func (n *Node) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	if n.ckQuit != nil {
		close(n.ckQuit)
	}
	for _, l := range n.lanes {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	}
	err := n.ln.Close()
	n.peersMu.Lock()
	if !n.peersClosed {
		n.peersClosed = true
		for _, o := range n.peers {
			o.stop()
		}
	}
	n.peersMu.Unlock()
	n.connsMu.Lock()
	for c := range n.conns {
		c.Close()
	}
	n.connsMu.Unlock()
	n.wg.Wait()
	// Producers may have appended after an outbox writer's final drain, and
	// a durable writer exits with its unacked region still in the ring;
	// with all goroutines stopped, sweep the leftovers.
	n.peersMu.Lock()
	for _, o := range n.peers {
		o.dropRemaining()
	}
	n.peersMu.Unlock()
	if n.wal != nil {
		n.wal.Close()
	}
	close(n.done)
	return err
}

// Done is closed once Close has fully completed — every goroutine joined,
// the WAL closed. A supervisor (rodnode) blocks on it to learn the node
// went down, then consults RestartRequested.
func (n *Node) Done() <-chan struct{} { return n.done }

// RestartRequested reports whether the node was closed by the control
// plane's restart command (a supervisor should recreate it with the same
// address and WAL directory) rather than killed or stopped.
func (n *Node) RestartRequested() bool { return n.restartIntent.Load() }

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveConn(conn)
		}()
	}
}

func (n *Node) serveConn(conn net.Conn) {
	// Close marks the node closed before it closes the registered
	// connections, so a connection accepted just before Close either is
	// registered in time to be closed or sees the mark here; otherwise its
	// reader would block Close's wait for as long as the peer keeps it open.
	n.connsMu.Lock()
	if n.closed.Load() {
		n.connsMu.Unlock()
		conn.Close()
		return
	}
	n.conns[conn] = true
	n.connsMu.Unlock()
	defer func() {
		conn.Close()
		n.connsMu.Lock()
		delete(n.conns, conn)
		n.connsMu.Unlock()
	}()
	var kind [1]byte
	if _, err := io.ReadFull(conn, kind[:]); err != nil {
		return
	}
	switch kind[0] {
	case connControl:
		n.serveControl(bufio.NewReaderSize(conn, 16<<10), conn)
	case connTuples:
		n.serveTuples(bufio.NewReaderSize(conn, tupleConnBuffer), conn)
	}
}

// tupleConnBuffer is a tuple connection's read buffer, on a node and at the
// sink, and the byte budget of one outbox write (outbox.ship), so one read
// can take in a whole burst. It holds several full durable frames (a
// 512-tuple one is 14 350 bytes), so serveTuples can see that the next frame
// has already arrived and leave the ack to it.
const tupleConnBuffer = 64 << 10

// MaxWriteTuples bounds how many tuples one outbox write carries: the write
// stays within tupleConnBuffer bytes and no tuple record is smaller than
// the fixed 28 bytes. A write that fails is counted dropped although the
// peer may have read some of it, so this is also how many tuples one broken
// link can count twice.
const MaxWriteTuples = tupleConnBuffer / tupleFrameSize

// serveTuples drains one tuple connection until it ends or a frame fails
// to decode (nothing of a bad frame is admitted). Sequence-bearing frames,
// which every node with a WAL sends, take admitDurable (dedup against the
// sender's marks; on this node's WAL, append and wait for the group
// commit; admit), then ack the sequence so the sender releases its
// retained copy. With a WAL here the ack is written only after fsync,
// which is the at-least-once linchpin (anything unacked is still retained
// upstream and re-sent); without one it follows admission, so the
// sender's retention still covers the link and the marks filter its
// re-sends. Acks are cumulative, so the ack is skipped when br already
// holds the whole next sequenced frame: reading that frame cannot block,
// and its ack covers this one. An ack is therefore never withheld across a
// read that might block; if the next frame then fails (its decode or its
// WAL write) the connection drops and the sender re-sends both, which the
// marks filter. Frames without a sequence (sources, or a node without a
// WAL) take the volatile path; both coexist on one connection.
//
// The whole filter→log→commit→advance window runs under the sender's
// admission lock (sender.mu), which also guards its marks: a sender that
// reconnects and replays a retained batch while the OLD connection's
// goroutine is still mid-admission (blocked in WaitCommitted, marks not
// yet advanced) would otherwise pass the filter a second time and be
// delivered twice. Admissions from DIFFERENT senders still share one group
// commit.
func (n *Node) serveTuples(br *bufio.Reader, conn net.Conn) {
	tr := NewTupleReader(br)
	var adm admission
	var from *sender
	for {
		batch, err := tr.ReadBatch()
		if err != nil {
			return
		}
		seq, sequenced := tr.BatchSeq()
		if !sequenced {
			n.enqueueInboundBatch(batch)
			continue
		}
		if from == nil {
			_, addr, _ := tr.Hello()
			from = n.senderOf(addr)
		}
		from.mu.Lock()
		err = n.admitDurable(from, batch, tr.Frame(), &adm)
		from.mu.Unlock()
		if err != nil {
			// The WAL failed: without durability we must not ack (the
			// sender keeps the batch and re-sends), and the marks were
			// not advanced, so nothing is stranded. Drop the connection.
			ev, _, _ := n.observer()
			ev.Emit(obs.LevelWarn, obs.EventWALError,
				"node", n.route.Load().nodeID(), "err", err.Error())
			return
		}
		if seqFrameBuffered(br) {
			continue
		}
		if err := writeAck(conn, seq); err != nil {
			return
		}
	}
}

// sender is one upstream sender's dedup state at this node: its marks and
// the admission lock that guards them. A sender is the address announced
// in its connection's hello, which an outbox keeps across reconnects and a
// restarted node re-announces; sequenced batches without a hello
// (hand-rolled senders) share the "" entry.
type sender struct {
	addr  string
	mu    sync.Mutex
	marks seqMarks
}

// senderOf returns (creating on first use) one sender's entry.
func (n *Node) senderOf(addr string) *sender {
	n.sendersMu.Lock()
	defer n.sendersMu.Unlock()
	s := n.senders[addr]
	if s == nil {
		s = &sender{addr: addr, marks: seqMarks{}}
		n.senders[addr] = s
	}
	return s
}

// enqueueInboundBatch admits a batch of tuples arriving from the network
// (or a source injector) to the bounded per-lane work queues, processing
// chunks of at most batchMax tuples. Shedding (per the configured policy),
// per-stream shed counters and the shed-onset hysteresis latch are all
// computed batch-wise with per-tuple accounting preserved.
func (n *Node) enqueueInboundBatch(ts []Tuple) {
	for len(ts) > 0 {
		chunk := ts
		if len(chunk) > batchMax {
			chunk = ts[:batchMax]
		}
		ts = ts[len(chunk):]
		n.enqueueChunk(chunk)
	}
}

// ingressSpan records one traced tuple's transit crossing for the span
// event emitted after admission.
type ingressSpan struct {
	stream int32
	seq    int64
	ts     int64
	wait   float64
}

// ingressScratch is the pooled per-call grouping state of enqueueChunk:
// admissions bucketed per lane (as stretches of the chunk, not copies of
// it) and deferred events. Pooled (not per-call) so the unsampled ingress
// path stays allocation-free.
type ingressScratch struct {
	perLane [][]chunkRange
	spans   []ingressSpan
	noRoute []int32
}

func newIngressScratch(w int) *ingressScratch {
	return &ingressScratch{perLane: make([][]chunkRange, w)}
}

// bucket puts chunk tuple ci on lane li, extending the lane's last stretch
// when ci follows it directly.
func (sc *ingressScratch) bucket(li uint32, ci int) {
	rs := sc.perLane[li]
	if n := len(rs); n > 0 && rs[n-1].hi == ci {
		rs[n-1].hi++
		return
	}
	sc.perLane[li] = append(rs, chunkRange{ci, ci + 1})
}

func (sc *ingressScratch) reset() {
	for i := range sc.perLane {
		sc.perLane[i] = sc.perLane[i][:0]
	}
	sc.spans = sc.spans[:0]
	sc.noRoute = sc.noRoute[:0]
}

// enqueueChunk routes one ingress chunk: it loads the route snapshot once,
// fetches a stream's entry once per run of equal Stream, records per worker
// lane which stretches of the chunk it admits, then copies each lane's
// stretches from the chunk into its queue with one lane-lock acquisition.
// No node-wide lock is taken anywhere on this path, and nothing is sent:
// ingress only admits, so it never waits on an outbox (see outbox.go).
//
// A tuple goes to a lane when a consumer here takes it: an addressed tuple
// (relayed to one consumer, or keyed to one replica) when rs.accepts it, an
// untargeted one when the stream has subscribers, and an untargeted keyed
// tuple whose replica lives elsewhere by the table, which goes onward from
// its stream's lane. The lane worker decides what each of them does,
// against the snapshot it takes the tuple with — step the consumer, or, for
// one that has left, copy the tuple along its relay entry, or send a keyed
// tuple to its replica's node — so every tuple meets exactly one snapshot's
// routing, and a consumer's copies leave in queue order, however its moves
// interleave with the queue.
func (n *Node) enqueueChunk(chunk []Tuple) {
	if n.closed.Load() {
		return
	}
	rs := n.route.Load()
	ev, stages, every := n.observer()
	sc := n.scratch.Get().(*ingressScratch)
	sc.reset()
	var spanNow int64 // lazy arrival timestamp shared by the chunk's traced tuples
	var xferBusy int64
	nodeID := rs.nodeID()
	n.injected.Add(int64(len(chunk)))
	var sr *streamRoute
	var sid, tgt int32
	var tgtOK bool // whether rs accepts target tgt on stream sid
	for ci := range chunk {
		t := &chunk[ci]
		if sr == nil || t.Stream != sid {
			sid, sr, tgt = t.Stream, rs.lookup(t.Stream), 0
		}
		// Mark trace samples at first ingress unless the source already
		// flagged them (TraceTs starts from the origin Ts, keeping the
		// telescoped sum equal to the sink latency).
		if every > 0 && t.Flags&TupleTraced == 0 && tracePick(every, *t) {
			t.Flags |= TupleTraced
		}
		if t.Flags&TupleTraced != 0 {
			if spanNow == 0 {
				spanNow = time.Now().UnixNano()
			}
			if t.TraceTs == 0 {
				t.TraceTs = t.Ts
			}
			wait := float64(spanNow-t.TraceTs) / float64(time.Second)
			t.TraceTs = spanNow
			stages.Observe(obs.StageTransit, wait)
			if ev != nil {
				sc.spans = append(sc.spans, ingressSpan{stream: t.Stream, seq: t.Seq, ts: t.Ts, wait: wait})
			}
		}
		xferBusy += sr.xferNs // receive-side transfer CPU cost
		switch {
		case t.target != 0:
			if t.target != tgt {
				tgt, tgtOK = t.target, rs.accepts(sid, sr, t.target)
			}
			if tgtOK {
				sc.bucket(sr.laneFor(t, n.workers), ci)
			} else {
				n.dropNoRoute(sc, sid)
			}
		case sr.part != nil:
			// Keyed (sharded) streams route through the partition table:
			// each tuple goes to exactly one replica — addressed to it here
			// when the table marks it local, left untargeted for the
			// stream's lane to send to its home otherwise — never to the
			// stream's broadcast subscribers.
			switch d := &sr.part.route[slotOf(t)]; {
			case d.target != 0:
				t.target = d.target
				sc.bucket(sr.laneFor(t, n.workers), ci)
			case d.addr != "":
				sc.bucket(sr.lane, ci)
			default:
				n.dropNoRoute(sc, sid)
			}
		case len(sr.subs) > 0:
			sc.bucket(sr.lane, ci)
		default:
			n.dropNoRoute(sc, sid)
		}
	}
	if xferBusy > 0 {
		n.busy.Add(xferBusy)
	}
	// Ingress spans go out before the tuples become visible to a lane
	// worker, so a tuple's "process" span can never precede its "ingress"
	// span in the event log.
	for _, sp := range sc.spans {
		ev.Emit(obs.LevelDebug, obs.EventSpan, "stage", "ingress",
			"node", nodeID, "stream", int(sp.stream), "seq", sp.seq,
			"ts", sp.ts, "wait", sp.wait)
	}
	for li := range sc.perLane {
		if len(sc.perLane[li]) == 0 {
			continue
		}
		res := n.lanes[li].admit(chunk, sc.perLane[li], n.cfg.ShedPolicy)
		if res.shedOnset {
			ev.Emit(obs.LevelWarn, obs.EventShedOnset,
				"node", nodeID, "lane", int(n.lanes[li].id),
				"queue", res.qlen, "cap", n.lanes[li].cap,
				"policy", n.cfg.ShedPolicy.String(), "stream", int(res.onsetStream),
				"shed", res.shedTotal)
		}
	}
	for _, sid := range sc.noRoute {
		ev.Emit(obs.LevelWarn, obs.EventNoRoute,
			"node", nodeID, "stream", int(sid))
	}
	n.scratch.Put(sc)
}

// dropNoRoute counts one inbound tuple that has neither a local consumer
// nor a route onward (instead of silently absorbing it into the injected
// count) and queues the stream's one-shot warn event.
func (n *Node) dropNoRoute(sc *ingressScratch, sid int32) {
	n.dropNoRt.Add(1)
	n.warnMu.Lock()
	if !n.noRouteWarned[sid] {
		n.noRouteWarned[sid] = true
		sc.noRoute = append(sc.noRoute, sid)
	}
	n.warnMu.Unlock()
}

// QueueLen returns the current work-queue length summed over lanes.
func (n *Node) QueueLen() int {
	total := 0
	for _, l := range n.lanes {
		l.mu.Lock()
		total += l.qlenLocked()
		l.mu.Unlock()
	}
	return total
}

// stall charges the virtual CPU with sec seconds of state-transfer work by
// enqueueing an overhead work item (on lane 0; the virtual CPU accumulator
// is node-wide, so every lane paces against it). It is a charge, not a
// pause: pacing sleeps only while virtual busy time runs ahead of the wall
// clock, so the stall delays the node's tuples only by what exceeds its
// idle credit, the wall time since it started minus its virtual busy time.
// On a lightly loaded node it costs nothing, and on a saturated one it
// pauses the node for up to sec: on one capacity-1 node, a 200 ms stall
// held the next tuple 192 ms after 10 ms idle, 82 ms after 120 ms idle
// and 1.2 ms after 1 s idle.
func (n *Node) stall(sec float64) {
	if n.closed.Load() {
		return
	}
	l := n.lanes[0]
	l.mu.Lock()
	l.queue = append(l.queue, Tuple{Stream: stallStream, Value: sec * n.capacity})
	l.cond.Signal()
	l.mu.Unlock()
}

// stallStream is the reserved stream id carrying stall work items.
const stallStream int32 = -1

// sendBatch offers a run of tuples to the destination's outbox. Only lane
// workers call it. On a node without a WAL it never blocks: a dead, slow or
// partitioned peer costs the caller one bounded ring insertion (the chaos
// test asserts the worker path never stalls there), and the rest of ts that
// did not fit is counted in the outbox's drop counter. On a node with a WAL
// the caller waits, while the ring is full, for the receiver's acks to free
// room (see outbox.go).
// sendMaxNanos records the longest call either way. It returns how many
// tuples the ring took, a prefix of ts.
func (n *Node) sendBatch(addr string, ts []Tuple) int { return n.send(addr, ts, false) }

// sendRelay is sendBatch for the addressed copies relay entries carry,
// which the outbox numbers per flow (see outbox.enqueueBatch).
func (n *Node) sendRelay(addr string, ts []Tuple) int { return n.send(addr, ts, true) }

func (n *Node) send(addr string, ts []Tuple, relay bool) int {
	t0 := time.Now()
	accepted := 0
	if o := n.outboxFor(addr); o != nil {
		accepted = o.enqueueBatch(ts, relay)
	}
	storeMax(&n.sendMaxNanos, int64(time.Since(t0)))
	return accepted
}

// storeMax raises a to v if v is larger. The compare-and-swap loop keeps
// the maximum under concurrent callers, where a load-then-store would let
// a smaller value overwrite a larger one written in between.
func storeMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// outboxFor returns (creating on first use) the outbox for addr; nil once
// the node is closing.
func (n *Node) outboxFor(addr string) *outbox {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	if n.peersClosed {
		return nil
	}
	o, ok := n.peers[addr]
	if !ok {
		o = newOutbox(n, addr)
		n.peers[addr] = o
		n.wg.Add(1)
		go o.run()
	}
	return o
}

// linkFault returns the injected fault for addr (nil when healthy).
func (n *Node) linkFault(addr string) *LinkFault {
	n.faultsMu.Lock()
	defer n.faultsMu.Unlock()
	return n.faults[addr]
}

// SetLinkFault injects a fault on the outbound link to addr: severing also
// breaks the live connection so the outbox falls into its reconnect cycle.
func (n *Node) SetLinkFault(addr string, f LinkFault) {
	n.faultsMu.Lock()
	n.faults[addr] = &f
	n.faultsMu.Unlock()
	if f.Sever {
		n.peersMu.Lock()
		o := n.peers[addr]
		n.peersMu.Unlock()
		if o != nil {
			o.breakConn()
		}
	}
	ev, _, _ := n.observer()
	ev.Emit(obs.LevelWarn, obs.EventLinkFault, "node", n.route.Load().nodeID(), "addr", addr,
		"sever", f.Sever, "drop", f.Drop, "delayMs", f.Delay.Seconds()*1000)
}

// ClearLinkFault heals the link to addr ("" heals every link).
func (n *Node) ClearLinkFault(addr string) {
	n.faultsMu.Lock()
	if addr == "" {
		n.faults = map[string]*LinkFault{}
	} else {
		delete(n.faults, addr)
	}
	n.faultsMu.Unlock()
	ev, _, _ := n.observer()
	ev.Emit(obs.LevelInfo, obs.EventLinkFault, "node", n.route.Load().nodeID(), "addr", addr, "clear", true)
}

// peerDown records a link failure. The relay-error warn event is latched
// per destination so a flapping peer does not flood the log, and the latch
// is re-armed by peerUp so each new failure episode stays visible.
func (n *Node) peerDown(addr string, err error) {
	n.warnMu.Lock()
	warned := n.relayWarned[addr]
	n.relayWarned[addr] = true
	n.warnMu.Unlock()
	if !warned {
		ev, _, _ := n.observer()
		ev.Emit(obs.LevelWarn, obs.EventRelayError,
			"node", n.route.Load().nodeID(), "addr", addr, "err", err.Error())
	}
}

// peerUp re-arms the relay-error latch after a successful (re)connection.
func (n *Node) peerUp(addr string) {
	n.warnMu.Lock()
	warned := n.relayWarned[addr]
	delete(n.relayWarned, addr)
	n.warnMu.Unlock()
	if warned {
		ev, _, _ := n.observer()
		ev.Emit(obs.LevelInfo, obs.EventPeerUp, "node", n.route.Load().nodeID(), "addr", addr)
	}
}

// outboxSnapshots returns per-peer outbox accounting, sorted by address.
func (n *Node) outboxSnapshots() []outboxStats {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	out := make([]outboxStats, 0, len(n.peers))
	for _, o := range n.peers {
		out = append(out, o.stats())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Stats snapshots the node's metrics. Counters come from atomics and the
// immutable route snapshot; the only locks taken are the per-lane queue
// mutexes (each held for a few loads), so a high-rate stats poller never
// stalls ingress or the control plane.
func (n *Node) Stats() *NodeStats {
	rs := n.route.Load()
	s := &NodeStats{
		NodeID:         rs.nodeID(),
		Injected:       n.injected.Load(),
		Emitted:        n.emitted.Load(),
		DroppedNoRoute: n.dropNoRt.Load(),
		SendMaxMs:      float64(n.sendMaxNanos.Load()) / float64(time.Millisecond),
		OpCost:         map[int]float64{},
		OpSel:          map[int]float64{},
		Workers:        int(n.workers),
	}
	if s.NodeID < 0 {
		s.NodeID = 0
	}
	multi := n.workers > 1
	var shedBy map[int]int64
	for _, l := range n.lanes {
		l.mu.Lock()
		q := l.qlenLocked()
		ir := l.inRun
		if len(l.shedByStream) > 0 {
			if shedBy == nil {
				shedBy = map[int]int64{}
			}
			for sid, v := range l.shedByStream {
				shedBy[int(sid)] += v
			}
		}
		l.mu.Unlock()
		s.QueueLen += q
		s.WorkerInFlight += int64(ir)
		s.Shed += l.shed.Load()
		if multi {
			s.Lanes = append(s.Lanes, LaneStats{
				Lane:      int(l.id),
				Queue:     q,
				InFlight:  ir,
				Processed: l.processed.Load(),
				Shed:      l.shed.Load(),
				BusySec:   float64(l.busy.Load()) / float64(time.Second),
			})
		}
	}
	s.ShedByStream = shedBy
	for sid, sr := range rs.streams {
		pt := sr.part
		if pt == nil {
			continue
		}
		routed := false
		for i := range pt.counts {
			if atomic.LoadInt64(&pt.counts[i]) > 0 {
				routed = true
				break
			}
		}
		if !routed {
			continue
		}
		if s.PartCounts == nil {
			s.PartCounts = map[int][]int64{}
		}
		counts := make([]int64, len(pt.counts))
		for i := range pt.counts {
			counts[i] = atomic.LoadInt64(&pt.counts[i])
		}
		s.PartCounts[int(sid)] = counts
	}
	if n.started.Load() {
		elapsed := time.Duration(time.Now().UnixNano() - n.startNano.Load())
		s.ElapsedSec = elapsed.Seconds()
		if elapsed > 0 {
			s.Utilization = float64(n.busy.Load()) / float64(elapsed)
			if s.Utilization > 1 {
				s.Utilization = 1
			}
		}
	}
	for id := range rs.ops {
		if c, ok := n.estimator.Cost(id); ok {
			s.OpCost[id] = c
		}
		if sel, ok := n.estimator.Selectivity(id); ok {
			s.OpSel[id] = sel
		}
	}
	for _, o := range n.outboxSnapshots() {
		s.OutboxEnqueued += o.Enqueued
		s.OutboxSent += o.Sent
		s.OutboxDropped += o.Dropped
		s.OutboxPending += o.Pending
		s.PeerReconnects += o.Reconnects
	}
	if n.wal != nil {
		ws := n.wal.Stats()
		s.WALActive = true
		s.WALRecords = ws.Records
		s.WALSyncs = ws.Syncs
		s.WALBytes = ws.Bytes
		s.Checkpoints = n.checkpoints.Load()
		s.Replayed = n.replayed.Load()
		s.Recovered = n.recovered.Load()
	}
	s.DedupDropped = n.dedupDropped.Load()
	return s
}
