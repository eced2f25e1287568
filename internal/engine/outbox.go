package engine

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"rodsp/internal/obs"
)

// Per-peer outbox: every remote destination gets one goroutine (the
// writer) fed by ONE bounded ring that holds at most cfg.OutboxCap tuples.
// Three monotone positions under one mutex describe everything the outbox
// holds:
//
//	      acked          shipped           tail
//	        │               │                │
//	────────┼───────────────┼────────────────┼───────────▶ position
//	 settled│ on the wire,  │ accepted, not  │ free: tail − acked ≤ OutboxCap
//	        │ awaiting ack  │ yet written    │
//
// The ring's backing array grows to what the link holds: it starts at one
// frame, min(OutboxCap, outboxBatchMax) slots, and put doubles it, up to
// OutboxCap, when an offer would take tail − acked past its length, copying
// [acked, tail) to the same positions modulo the new length. It never
// shrinks, so its memory follows the link's high-water mark, and a new link
// costs one frame of slots rather than OutboxCap of them. The bound and the
// credit are OutboxCap whatever the array's length.
//
// The producers are the node's lane workers; they append at tail. The
// writer takes the array with [shipped, tail) under the lock and, with the
// lock released, encodes it straight from those slots as consecutive frames
// of at most outboxBatchMax tuples each (a frame stops at the array's wrap,
// so its slots are contiguous; see ship for why nobody else touches them),
// gathering whole frames while the burst fits the receiver's read buffer;
// it then advances shipped and issues one write.
//
// One fact decides what a link does: whether the sending node runs a WAL.
// Every outbox of a node that does is durable, the one to the collector
// included: each frame carries the position after its last tuple as its
// sequence, and every receiver acks the sequenced frames it reads (a node
// with a WAL after its group commit, a node without one after admission,
// the collector after recording), so the cumulative ack IS the new acked
// cursor: a tuple leaves the ring only when an ack covers it, retention is
// the region [acked, shipped) held in place, and a reconnect rewinds
// shipped to acked — replay is the ordinary ship loop. No ring drops: its
// free room is the sender's credit, and a worker whose offer does not fit
// waits for acks to free room, then places the rest in order, so a
// receiver that is down or behind slows its senders' workers, their lanes
// fill, and their ingress sheds: overload lands at a node's edge, where it
// is counted per stream. The waits cannot close a cycle: only workers on
// nodes with a WAL wait, only for acks, and every ack is written by a
// reader goroutine (a node's ingress or the collector's) that never waits
// on a lane (a full lane sheds) or on a ring (a reader sends nothing), so
// every chain of waits has length one, around node-level cycles such as
// a(0) → x(2) → d(0) too. Stopping the outbox (node Close) releases a
// waiting worker, and what it had not placed is counted dropped, as at
// shutdown.
//
// An outbox of a node without a WAL is volatile: its frames carry no
// sequence, acked follows shipped as soon as the write returns, and a full
// ring drops the rest of an offer with a counter, so its workers never
// wait. The outbox dials with exponential backoff plus jitter and re-arms
// the per-peer relay-error latch on recovery so repeated failures stay
// visible.

// errOutboxClosed signals an orderly shutdown of the writer loop.
var errOutboxClosed = errors.New("engine: outbox closed")

// outboxBatchMax bounds how many tuples one frame carries. A frame is the
// unit a durable receiver logs and acks, so it bounds how much of the ring
// one ack releases; a write carries as many whole frames as fit in
// tupleConnBuffer bytes (at most MaxWriteTuples tuples).
const outboxBatchMax = 512

// LinkFault is an injected fault on the outbound link to one peer address:
// Sever fails dials and breaks the live connection, Drop silently discards
// tuples (counted as outbox drops; a discarded run frees its ring room as a
// write or an ack would), Delay stalls each flush by the given duration.
// Faults compose (a Drop+Delay link discards slowly). On a node with a WAL
// a ring that Sever or Delay keeps full makes the workers wait until the
// fault clears.
type LinkFault struct {
	Sever bool
	Drop  bool
	Delay time.Duration
}

// outboxStats is a snapshot of one outbox's accounting, taken under the
// ring lock: enqueued == sent + dropped + pending holds in every snapshot.
type outboxStats struct {
	Addr       string
	Enqueued   int64 // tuples offered
	Sent       int64 // tuples written (volatile) or acked (durable)
	Dropped    int64 // overflow without a WAL + fault-drop + failed write + shutdown leftovers
	Pending    int64 // still in the ring: tail − acked
	Reconnects int64 // successful connections after a loss
}

type outbox struct {
	node        *Node
	addr        string
	durable     bool   // the node runs a WAL: number, retain until acked, wait for room
	incarnation uint64 // sender identity: the owning node's birth nanos
	quit        chan struct{}
	notify      chan struct{} // capacity-1 writer wakeup

	mu                   sync.Mutex
	room                 sync.Cond // on mu: acked moved or the outbox stopped
	stopped              bool      // no room will come: waiting producers give up
	ring                 []Tuple   // position p lives in ring[p % len(ring)]; grows to OutboxCap
	acked, shipped, tail uint64    // acked ≤ shipped ≤ tail ≤ acked + len(ring)
	enqueued             int64
	sent                 int64
	dropped              int64
	reconnects           int64
	conn                 net.Conn          // live connection, so a sever fault can break it
	relaySeq             map[markKey]int64 // next Seq of each addressed flow (see enqueueBatch)

	enc []byte // writer-owned: the frame being shipped
}

func newOutbox(n *Node, addr string) *outbox {
	o := &outbox{
		node:        n,
		addr:        addr,
		durable:     n.wal != nil,
		incarnation: uint64(n.bornNano),
		quit:        make(chan struct{}),
		notify:      make(chan struct{}, 1),
		ring:        make([]Tuple, min(n.cfg.OutboxCap, outboxBatchMax)),
	}
	o.room.L = &o.mu
	return o
}

// enqueueBatch places a run of tuples at the ring's tail, in order, and
// returns how many it placed; the tuples are copied, so the caller keeps
// ownership of ts. On a node without a WAL the ring takes the longest
// prefix it has room for and drops the rest with a counter. On a node with
// one it takes what fits, then waits under o.mu until an ack frees room
// (applyAck), and so on until all of ts is in. A stopped outbox takes
// nothing more: stop ends a wait, and what was not placed is counted
// dropped, as at shutdown.
//
// With relay set, ts are addressed copies a relay entry carries, and the
// outbox numbers them itself, per (stream, target), in ring order: each
// flow it carries is then one increasing sequence, as the receiver's marks
// require, although the copies' own Seqs may run backwards — a tuple can
// reach this node again after its consumer came and went, behind newer
// ones. A flow starts at the clock, above anything an earlier outbox to
// the peer numbered.
func (o *outbox) enqueueBatch(ts []Tuple, relay bool) int {
	o.mu.Lock()
	k := 0
	for !o.stopped {
		if k += o.put(ts[k:], relay); k == len(ts) || !o.durable {
			break
		}
		o.wake() // the placed prefix must ship for room to come
		o.room.Wait()
	}
	o.enqueued += int64(len(ts) - k)
	o.dropped += int64(len(ts) - k)
	o.mu.Unlock()
	if k > 0 {
		o.wake()
	}
	return k
}

// put copies the longest prefix of ts the ring has room for to its tail,
// growing the array first if the offer would overfill it, numbering relayed
// copies, and returns the prefix's length. Callers hold o.mu.
func (o *outbox) put(ts []Tuple, relay bool) int {
	held := int(o.tail - o.acked)
	o.grow(held + len(ts))
	k := min(len(o.ring)-held, len(ts))
	at := int(o.tail % uint64(len(o.ring)))
	first := copy(o.ring[at:], ts[:k])
	copy(o.ring, ts[first:k])
	if relay {
		if o.relaySeq == nil {
			o.relaySeq = map[markKey]int64{}
		}
		for p := o.tail; p < o.tail+uint64(k); p++ {
			t := &o.ring[p%uint64(len(o.ring))]
			key := markKey{t.Stream, t.target}
			seq, ok := o.relaySeq[key]
			if !ok {
				seq = time.Now().UnixNano()
			}
			t.Seq, o.relaySeq[key] = seq, seq+1
		}
	}
	o.tail += uint64(k)
	o.enqueued += int64(k)
	return k
}

// grow doubles the ring's array until it holds need tuples or reaches
// OutboxCap, and moves [acked, tail) to the same positions modulo the new
// length. The old array is never written again, so a writer still encoding
// from it reads slots nobody touches (see ship). Callers hold o.mu.
func (o *outbox) grow(need int) {
	size, bound := len(o.ring), o.node.cfg.OutboxCap
	if need <= size || size == bound {
		return
	}
	for size < need && size < bound {
		size *= 2
	}
	ring := make([]Tuple, min(size, bound))
	for p := o.acked; p < o.tail; {
		from, to := int(p%uint64(len(o.ring))), int(p%uint64(len(ring)))
		k := copy(ring[to:], o.ring[from:min(len(o.ring), from+int(o.tail-p))])
		p += uint64(k)
	}
	o.ring = ring
}

// stop ends the outbox: its writer exits after a best-effort final drain,
// and a producer waiting for ring room gives up, since no room will come.
func (o *outbox) stop() {
	close(o.quit)
	o.mu.Lock()
	o.stopped = true
	o.room.Broadcast()
	o.mu.Unlock()
}

func (o *outbox) wake() {
	select {
	case o.notify <- struct{}{}:
	default:
	}
}

func (o *outbox) stats() outboxStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return outboxStats{
		Addr:       o.addr,
		Enqueued:   o.enqueued,
		Sent:       o.sent,
		Dropped:    o.dropped,
		Pending:    int64(o.tail - o.acked),
		Reconnects: o.reconnects,
	}
}

// applyAck moves acked up to the peer's cumulative ack: the covered tuples
// count as sent and their ring slots free up. The sequence comes off the
// network, so it is checked against the cursors: at or below acked it is a
// stale or duplicate ack and changes nothing; beyond shipped it names
// tuples that were never written, which fails the connection (reconnect and
// replay from acked, nothing released).
func (o *outbox) applyAck(seq uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if seq > o.shipped {
		return fmt.Errorf("engine: %s acked position %d, beyond shipped %d", o.addr, seq, o.shipped)
	}
	if seq > o.acked {
		o.sent += int64(seq - o.acked)
		o.acked = seq
		o.room.Broadcast()
		o.wake() // a fault-drop may be waiting for the retained region to settle
	}
	return nil
}

// ackReader applies durability acks off one connection's return direction
// until the connection fails or the peer acks out of range; the failure is
// reported so the write loop reconnects (and replays what is still
// unacked) even when it has nothing new to ship.
func (o *outbox) ackReader(conn net.Conn, done chan<- error) {
	br := bufio.NewReaderSize(conn, 512)
	for {
		seq, err := readAck(br)
		if err == nil {
			err = o.applyAck(seq)
		}
		if err != nil {
			done <- err
			return
		}
	}
}

// breakConn severs the live connection (if any); the writer loop sees the
// write error and falls back into the dial/backoff cycle.
func (o *outbox) breakConn() {
	o.mu.Lock()
	c := o.conn
	o.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// dial connects to the peer, honoring an injected link fault.
func (o *outbox) dial() (net.Conn, error) {
	if f := o.node.linkFault(o.addr); f != nil && f.Sever {
		return nil, fmt.Errorf("engine: link to %s severed by fault", o.addr)
	}
	return net.DialTimeout("tcp", o.addr, dialTimeout)
}

// run is the outbox goroutine: connect (with backoff), drain the ring,
// reconnect on failure, until quit. Whatever is still in the ring when it
// exits is swept into the drop counter by Node.Close.
func (o *outbox) run() {
	defer o.node.wg.Done()
	attempt := 0
	connected := false
	for {
		conn, err := o.dial()
		if err != nil {
			o.node.peerDown(o.addr, err)
			d := backoffDelay(o.node.cfg.BackoffBase, o.node.cfg.BackoffMax, attempt, rand.Float64())
			attempt++
			select {
			case <-o.quit:
				return
			case <-time.After(d):
			}
			continue
		}
		o.mu.Lock()
		if connected || attempt > 0 {
			o.reconnects++
		}
		o.conn = conn // published so a sever fault can break it
		o.mu.Unlock()
		attempt = 0
		connected = true
		o.node.peerUp(o.addr)
		err = o.writeLoop(conn)
		o.mu.Lock()
		o.conn = nil
		o.mu.Unlock()
		conn.Close()
		if errors.Is(err, errOutboxClosed) {
			return
		}
		o.node.peerDown(o.addr, err)
	}
}

// writeLoop ships tuples over one connection until it fails or quit fires.
// Every connection opens with the hello, which names the sender the
// receiver keys its dedup marks by. A durable one then rewinds shipped to
// acked, so everything the peer has not acknowledged goes out again ahead
// of anything new.
func (o *outbox) writeLoop(conn net.Conn) error {
	open := appendHello(append(o.enc[:0], connTuples), o.incarnation, o.node.Addr())
	var ackDone chan error
	if o.durable {
		o.mu.Lock()
		o.shipped = o.acked
		o.mu.Unlock()
		ackDone = make(chan error, 1)
		go o.ackReader(conn, ackDone)
		// An ack moves a ring cursor, so the reader must not outlive its
		// connection: applied after the next connection's rewind, a late
		// ack would read as beyond shipped.
		defer func() {
			conn.Close()
			if ackDone != nil {
				<-ackDone
			}
		}()
	}
	o.enc = open
	conn.SetWriteDeadline(time.Now().Add(flushTimeout)) //nolint:errcheck
	if _, err := conn.Write(open); err != nil {
		return err
	}
	for {
		if err := o.drain(conn); err != nil {
			return err
		}
		select {
		case err := <-ackDone:
			// The ack channel died: reconnect so the unacked region re-sends
			// even though we may have nothing new to write.
			ackDone = nil
			return err
		case <-o.quit:
			// Best-effort final drain of whatever arrived since.
			o.drain(conn) //nolint:errcheck
			return errOutboxClosed
		case <-o.notify:
		}
	}
}

// drain ships run after run until the ring has nothing more to write on
// this wakeup or a write fails.
func (o *outbox) drain(conn net.Conn) error {
	for {
		if k, err := o.ship(conn); k == 0 || err != nil {
			return err
		}
	}
}

// ship sends what is ready, [shipped, tail), as a burst of frames with one
// write under a write deadline (so a stalled peer surfaces as an error
// instead of blocking shutdown), honoring an injected fault, and returns
// how many tuples it shipped (0: nothing to do until the next wakeup). It
// takes the ring's array with the cursors and encodes from that snapshot
// with the lock released. A frame is at most outboxBatchMax tuples and
// never crosses the array's wrap, so it is one contiguous stretch of slots,
// encoded where it lies; whole frames are gathered while the write stays
// within tupleConnBuffer, the receiver's read buffer. Nothing else writes
// the burst's slots meanwhile: producers only write the current array, at
// positions ≥ tail, which map clear of [acked, tail); acked never passes
// shipped, which moves only after the encode; a growth copies the slots
// into a new array and never writes the old one again; and the only other
// slot write, traceOut's, is this goroutine's. An ack arriving before
// shipped moves names tuples not yet written and fails the connection
// (applyAck). Drop accounting stays per tuple. A volatile burst is settled
// here — sent on success, dropped on a failed write; nobody waits for its
// room, since only a node with a WAL waits. Each durable frame
// carries its end position as its sequence and stays in the ring until
// applyAck covers it; a failed write leaves the burst for the reconnect
// replay. A Drop fault discards one frame's worth of tuples per call, and a
// Delay fault stalls each write.
func (o *outbox) ship(conn net.Conn) (int, error) {
	f := o.node.linkFault(o.addr)
	o.mu.Lock()
	ring, from, tail := o.ring, o.shipped, o.tail
	if from == tail {
		o.mu.Unlock()
		return 0, nil
	}
	if f != nil && f.Drop {
		// Discard the next frame's run in place. Positions are contiguous,
		// so a durable link first lets the retained region ahead of it
		// settle (applyAck wakes the writer) rather than count unacked
		// tuples as dropped.
		k := 0
		if o.acked == o.shipped {
			k = frameLen(from, tail, len(ring))
			o.acked += uint64(k)
			o.shipped = o.acked
			o.dropped += int64(k)
			o.room.Broadcast()
		}
		o.mu.Unlock()
		return k, nil
	}
	o.mu.Unlock()
	o.enc = o.enc[:0]
	pos := from
	for pos < tail {
		k := frameLen(pos, tail, len(ring))
		at := int(pos % uint64(len(ring)))
		run := ring[at : at+k]
		fields := fieldsOf(run)
		if o.durable {
			fields |= fieldSeq
		}
		if len(o.enc) > 0 && len(o.enc)+frameSize(fields, k) > tupleConnBuffer {
			break
		}
		o.traceOut(run, pos)
		pos += uint64(k)
		o.enc = appendFrame(o.enc, run, fields, pos)
	}
	if f != nil && f.Delay > 0 {
		select {
		case <-o.quit:
		case <-time.After(f.Delay):
		}
	}
	o.mu.Lock()
	o.shipped = pos
	o.mu.Unlock()
	conn.SetWriteDeadline(time.Now().Add(flushTimeout)) //nolint:errcheck
	_, err := conn.Write(o.enc)
	k := int(pos - from)
	if !o.durable {
		o.mu.Lock()
		o.acked = o.shipped
		if err != nil {
			o.dropped += int64(k)
		} else {
			o.sent += int64(k)
		}
		o.mu.Unlock()
	}
	return k, err
}

// frameLen is the length of the frame that starts at position pos in an
// array of size slots: at most outboxBatchMax tuples, ending at tail or at
// the array's end.
func frameLen(pos, tail uint64, size int) int {
	return min(int(tail-pos), outboxBatchMax, size-int(pos%uint64(size)))
}

// traceOut marks the stage boundary of the traced tuples of run, which
// starts at position pos, as they leave the outbox: the time since a
// tuple's last boundary (the worker's service end, or its ingress admission
// on a relay hop) is outbox residence. The spans are emitted without the
// lock; the refreshed TraceTs is then written, under o.mu (a growth reads
// the current array's slots), into run (the writer's snapshot, which goes
// onto the wire)
// and into the slot of the ring's current array, which differs if the ring
// grew since the snapshot, so the receiver's transit stage starts here. A
// durable replay re-sends the slot as it was last shipped and refreshes it
// again: its outbox stage is the time since the previous send, and the
// stages still telescope.
func (o *outbox) traceOut(run []Tuple, pos uint64) {
	ev, stages, _ := o.node.observer()
	if ev == nil && stages == nil {
		return
	}
	var now int64
	for i := range run {
		if run[i].Flags&TupleTraced == 0 {
			continue
		}
		if now == 0 {
			now = time.Now().UnixNano()
		}
		var wait float64
		if run[i].TraceTs > 0 {
			wait = float64(now-run[i].TraceTs) / float64(time.Second)
		}
		stages.Observe(obs.StageOutbox, wait)
		ev.Emit(obs.LevelDebug, obs.EventSpan, "stage", "outbox",
			"addr", o.addr, "stream", int(run[i].Stream), "seq", run[i].Seq,
			"ts", run[i].Ts, "wait", wait)
	}
	if now == 0 {
		return
	}
	o.mu.Lock()
	for i := range run {
		if run[i].Flags&TupleTraced != 0 {
			run[i].TraceTs = now
			o.ring[(pos+uint64(i))%uint64(len(o.ring))].TraceTs = now
		}
	}
	o.mu.Unlock()
}

// dropRemaining counts everything still in the ring as dropped — at
// shutdown no write and no ack is coming.
func (o *outbox) dropRemaining() {
	o.mu.Lock()
	o.dropped += int64(o.tail - o.acked)
	o.acked, o.shipped = o.tail, o.tail
	o.mu.Unlock()
}

// backoffDelay computes the reconnect delay for the given attempt:
// base·2^attempt capped at max, scaled by a jitter factor in [0.75, 1.25)
// derived from jitter ∈ [0, 1). Exposed as a pure function for testing.
func backoffDelay(base, max time.Duration, attempt int, jitter float64) time.Duration {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	scaled := time.Duration(float64(d) * (0.75 + 0.5*jitter))
	if scaled <= 0 {
		scaled = base
	}
	return scaled
}
