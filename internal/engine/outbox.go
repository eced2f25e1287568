package engine

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"rodsp/internal/obs"
)

// Per-peer outbox: every remote destination gets its own goroutine fed by
// two kinds of buffer. The shared mutex ring serves multi-producer callers
// (ingress relays, tests); each worker lane additionally
// owns one lock-free SPSC ring to this peer, so the hot egress path never
// takes a mutex. The writer gathers runs from the shared ring and every
// lane ring per wakeup, encodes them into per-run buffers, and flushes the
// whole gather with one vectored net.Buffers write. The outbox dials with
// exponential backoff plus jitter, drops with a counter when a ring
// overflows or the link is down, and re-arms the per-peer relay-error
// latch on recovery so repeated failures stay visible.

// errOutboxClosed signals an orderly shutdown of the writer loop.
var errOutboxClosed = errors.New("engine: outbox closed")

// outboxBatchMax bounds how many tuples one gather may take per source
// ring, so a saturated ring cannot delay the flush (and hence delivery)
// unboundedly.
const outboxBatchMax = 512

// LinkFault is an injected fault on the outbound link to one peer address:
// Sever fails dials and breaks the live connection, Drop silently discards
// tuples (counted as outbox drops), Delay stalls each flush by the given
// duration. Faults compose (a Drop+Delay link discards slowly).
type LinkFault struct {
	Sever bool
	Drop  bool
	Delay time.Duration
}

// outboxStats is a snapshot of one outbox's accounting. The invariant
// enqueued == sent + dropped + pending holds at quiescence (Pending counts
// ring-buffered tuples — shared and per-lane — plus a gathered-but-
// unflushed writer run; mid-gather the split between ring and in-flight is
// racy, which is why the ledger audits it only once the node is drained).
type outboxStats struct {
	Addr       string
	Enqueued   int64 // tuples accepted into a ring
	Sent       int64 // tuples flushed to the socket
	Dropped    int64 // overflow + fault-drop + lost-on-disconnect
	Pending    int64 // still buffered (rings + writer in-flight)
	Reconnects int64 // successful connections after a loss
}

type outbox struct {
	node *Node
	addr string
	quit chan struct{}

	mu     sync.Mutex
	ring   []Tuple       // fixed capacity cfg.OutboxCap (multi-producer path)
	head   int           // index of the oldest buffered tuple
	count  int           // buffered tuples
	notify chan struct{} // capacity-1 writer wakeup

	lanes []*spscRing // one SPSC ring per worker lane (lane-worker producers)

	connMu sync.Mutex
	conn   net.Conn

	enqueued   atomic.Int64
	sent       atomic.Int64
	dropped    atomic.Int64
	inflight   atomic.Int64 // gathered from the rings, not yet flushed
	reconnects atomic.Int64

	// Writer-owned scratch: the gathered tuples, the boundaries between
	// source runs within the gather, per-run encode buffers and the
	// net.Buffers vector reused across flushes.
	gather  []Tuple
	segEnds []int
	encBufs [][]byte
	vbufs   net.Buffers

	// Durable (retain-until-ack) mode: the peer runs a WAL, so every
	// shipped gather goes out as sequence-bearing frames and is retained
	// (copied) until the peer's cumulative ack covers its sequence —
	// `sent` advances on ack, not on write, and a reconnect replays the
	// hello plus every retained batch in order. Retention is bounded by
	// OutboxCap tuples; the writer poll-waits for ack room rather than
	// dropping, so overload backpressures into the rings (where the
	// existing overflow accounting applies).
	durable     bool
	incarnation uint64 // sender identity: the owning node's birth nanos
	batchSeq    uint64 // writer-owned per-outbox durability sequence
	retMu       sync.Mutex
	retained    []retainedBatch
	retTuples   atomic.Int64 // tuples held in retained (stats + cap check)
	reenc       []byte       // writer-owned durable encode buffer
}

// retainedBatch is one shipped-but-unacked durable batch.
type retainedBatch struct {
	seq uint64
	ts  []Tuple
}

func newOutbox(n *Node, addr string, durable bool) *outbox {
	w := int(n.workers)
	o := &outbox{
		node:        n,
		addr:        addr,
		ring:        make([]Tuple, n.cfg.OutboxCap),
		notify:      make(chan struct{}, 1),
		quit:        make(chan struct{}),
		lanes:       make([]*spscRing, w),
		encBufs:     make([][]byte, w+1),
		durable:     durable,
		incarnation: uint64(n.bornNano),
	}
	laneCap := (n.cfg.OutboxCap + w - 1) / w
	for i := range o.lanes {
		o.lanes[i] = newSPSCRing(laneCap)
	}
	return o
}

// enqueueBatch offers a run of tuples to the shared mutex ring under a
// single lock acquisition, accepting the longest prefix the ring has room
// for and dropping (with a counter) the rest. It never blocks; the tuples
// are copied, so the caller keeps ownership of ts.
func (o *outbox) enqueueBatch(ts []Tuple) int {
	o.enqueued.Add(int64(len(ts)))
	o.mu.Lock()
	k := len(o.ring) - o.count
	if k > len(ts) {
		k = len(ts)
	}
	tail := (o.head + o.count) % len(o.ring)
	first := len(o.ring) - tail
	if first > k {
		first = k
	}
	copy(o.ring[tail:], ts[:first])
	copy(o.ring, ts[first:k])
	o.count += k
	o.mu.Unlock()
	if k < len(ts) {
		o.dropped.Add(int64(len(ts) - k))
	}
	if k > 0 {
		o.wake()
	}
	return k
}

// enqueueLane offers a run of tuples on one lane's SPSC ring: no lock, a
// couple of atomic loads and one atomic store. Same prefix-accept,
// drop-with-counter contract as enqueueBatch. Must only be called from
// that lane's worker goroutine (single producer).
func (o *outbox) enqueueLane(lane int, ts []Tuple) int {
	o.enqueued.Add(int64(len(ts)))
	k := o.lanes[lane].push(ts)
	if k < len(ts) {
		o.dropped.Add(int64(len(ts) - k))
	}
	if k > 0 {
		o.wake()
	}
	return k
}

func (o *outbox) wake() {
	select {
	case o.notify <- struct{}{}:
	default:
	}
}

// gatherRuns drains one run from the shared ring and one from every lane
// ring (each bounded by outboxBatchMax) into the writer's gather buffer,
// recording the boundary after each source so the flush can keep the runs
// as separate writev segments. The total is marked in-flight for the
// stats invariant.
func (o *outbox) gatherRuns() []Tuple {
	dst := o.gather[:0]
	o.segEnds = o.segEnds[:0]
	o.mu.Lock()
	k := o.count
	if k > outboxBatchMax {
		k = outboxBatchMax
	}
	for i := 0; i < k; i++ {
		dst = append(dst, o.ring[(o.head+i)%len(o.ring)])
	}
	o.head = (o.head + k) % len(o.ring)
	o.count -= k
	o.inflight.Store(int64(k))
	o.mu.Unlock()
	o.segEnds = append(o.segEnds, len(dst))
	for _, r := range o.lanes {
		dst = r.drainInto(dst, outboxBatchMax)
		o.segEnds = append(o.segEnds, len(dst))
		o.inflight.Store(int64(len(dst)))
	}
	o.gather = dst
	return dst
}

func (o *outbox) stats() outboxStats {
	o.mu.Lock()
	pending := int64(o.count)
	o.mu.Unlock()
	for _, r := range o.lanes {
		pending += int64(r.size())
	}
	return outboxStats{
		Addr:       o.addr,
		Enqueued:   o.enqueued.Load(),
		Sent:       o.sent.Load(),
		Dropped:    o.dropped.Load(),
		Pending:    pending + o.inflight.Load() + o.retTuples.Load(),
		Reconnects: o.reconnects.Load(),
	}
}

// applyAck settles every retained batch covered by the peer's cumulative
// ack: their tuples count as sent and the retention space frees up. Late
// acks for batches already swept by dropRemaining are no-ops (each batch is
// settled exactly once, under retMu).
func (o *outbox) applyAck(seq uint64) {
	var freed int64
	o.retMu.Lock()
	i := 0
	for ; i < len(o.retained) && o.retained[i].seq <= seq; i++ {
		freed += int64(len(o.retained[i].ts))
	}
	if i > 0 {
		rest := len(o.retained) - i
		copy(o.retained, o.retained[i:])
		for j := rest; j < len(o.retained); j++ {
			o.retained[j] = retainedBatch{}
		}
		o.retained = o.retained[:rest]
		o.retTuples.Add(-freed)
	}
	o.retMu.Unlock()
	if freed > 0 {
		o.sent.Add(freed)
	}
}

// ackReader drains durability acks off one connection's return direction,
// settling retained batches until the connection fails; the failure is
// reported so the write loop reconnects (and re-sends what is still
// retained) even when it has nothing new to ship.
func (o *outbox) ackReader(conn net.Conn, done chan<- error) {
	br := bufio.NewReaderSize(conn, 512)
	for {
		seq, err := readAck(br)
		if err != nil {
			done <- err
			return
		}
		o.applyAck(seq)
	}
}

// sendHelloAndRetained opens a durable connection: announce the sender
// identity, then replay every still-retained batch in sequence order so
// the peer (which may have just restarted) recovers anything it lost.
func (o *outbox) sendHelloAndRetained(conn net.Conn) error {
	buf := appendHello(o.reenc[:0], o.incarnation, o.node.Addr())
	o.retMu.Lock()
	for _, rb := range o.retained {
		buf = appendSeqFrame(buf, rb.ts, rb.seq)
	}
	o.retMu.Unlock()
	o.reenc = buf
	conn.SetWriteDeadline(time.Now().Add(o.node.cfg.FlushTimeout)) //nolint:errcheck
	_, err := conn.Write(buf)
	return err
}

// setConn publishes the live connection so a sever fault can break it.
func (o *outbox) setConn(c net.Conn) {
	o.connMu.Lock()
	o.conn = c
	o.connMu.Unlock()
}

// breakConn severs the live connection (if any); the writer loop sees the
// write error and falls back into the dial/backoff cycle.
func (o *outbox) breakConn() {
	o.connMu.Lock()
	c := o.conn
	o.connMu.Unlock()
	if c != nil {
		c.Close()
	}
}

// dial connects to the peer, honoring an injected link fault.
func (o *outbox) dial() (net.Conn, error) {
	if f := o.node.linkFault(o.addr); f != nil && f.Sever {
		return nil, fmt.Errorf("engine: link to %s severed by fault", o.addr)
	}
	return net.DialTimeout("tcp", o.addr, o.node.cfg.DialTimeout)
}

// run is the outbox goroutine: connect (with backoff), drain the rings,
// reconnect on failure, until quit.
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
				o.dropRemaining()
				return
			case <-time.After(d):
			}
			continue
		}
		if connected || attempt > 0 {
			o.reconnects.Add(1)
		}
		attempt = 0
		connected = true
		o.setConn(conn)
		o.node.peerUp(o.addr)
		err = o.writeLoop(conn)
		o.setConn(nil)
		conn.Close()
		if errors.Is(err, errOutboxClosed) {
			return
		}
		o.node.peerDown(o.addr, err)
	}
}

// writeLoop ships tuples over one connection until it fails or quit fires.
// Each iteration gathers one run from every source ring and flushes the
// gather with a single vectored write (one net.Buffers WriteTo) under a
// write deadline, so a stalled peer surfaces as an error instead of
// blocking shutdown. Drop accounting stays per tuple: a fault-dropped or
// write-failed gather counts each of its tuples.
func (o *outbox) writeLoop(conn net.Conn) error {
	// Every later write goes straight to the socket (vectored), so the
	// connection preamble does too.
	conn.SetWriteDeadline(time.Now().Add(o.node.cfg.FlushTimeout)) //nolint:errcheck
	if _, err := conn.Write([]byte{connTuples}); err != nil {
		return err
	}
	var ackDone chan error
	if o.durable {
		if err := o.sendHelloAndRetained(conn); err != nil {
			return err
		}
		ackDone = make(chan error, 1)
		go o.ackReader(conn, ackDone)
	}
	for {
		select {
		case err := <-ackDone:
			// The ack channel died: reconnect so retained batches re-send
			// even though we may have nothing new to write.
			return err
		case <-o.quit:
			// Best-effort final drain of whatever is already buffered.
			f := o.node.linkFault(o.addr)
			for {
				run := o.gatherRuns()
				if len(run) == 0 {
					return errOutboxClosed
				}
				if err := o.ship(conn, run, f); err != nil {
					o.dropRemaining()
					return errOutboxClosed
				}
			}
		case <-o.notify:
		}
		for {
			run := o.gatherRuns()
			if len(run) == 0 {
				break
			}
			f := o.node.linkFault(o.addr)
			if err := o.ship(conn, run, f); err != nil {
				return err
			}
		}
	}
}

// ship writes and flushes one gathered run, honoring an injected fault,
// and settles the run's accounting (sent on success, dropped on fault or
// failure; in-flight is cleared either way). Each source run is encoded
// into its own reusable buffer and the whole gather goes out as one
// vectored write.
func (o *outbox) ship(conn net.Conn, run []Tuple, f *LinkFault) error {
	total := int64(len(run))
	if f != nil && f.Drop {
		o.dropped.Add(total)
		o.inflight.Store(0)
		return nil
	}
	// Stage boundary: a traced tuple leaves the outbox now; the time since
	// its last boundary (the worker's service end, or its ingress admission
	// on a relay hop) is outbox residence. The tuples go onto the wire with
	// the refreshed TraceTs, so the receiver's transit stage starts here.
	if ev, stages, _ := o.node.observer(); ev != nil || stages != nil {
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
			run[i].TraceTs = now
			stages.Observe(obs.StageOutbox, wait)
			ev.Emit(obs.LevelDebug, obs.EventSpan, "stage", "outbox",
				"addr", o.addr, "stream", int(run[i].Stream), "seq", run[i].Seq,
				"ts", run[i].Ts, "wait", wait)
		}
	}
	if o.durable {
		return o.shipDurable(conn, run, f)
	}
	bufs := o.vbufs[:0]
	prev := 0
	for si, end := range o.segEnds {
		seg := run[prev:end]
		prev = end
		if len(seg) == 0 {
			continue
		}
		o.encBufs[si] = appendFrames(o.encBufs[si][:0], seg)
		bufs = append(bufs, o.encBufs[si])
	}
	o.vbufs = bufs // WriteTo consumes its receiver; keep the backing array
	if f != nil && f.Delay > 0 {
		select {
		case <-o.quit:
		case <-time.After(f.Delay):
		}
	}
	conn.SetWriteDeadline(time.Now().Add(o.node.cfg.FlushTimeout)) //nolint:errcheck
	if _, err := bufs.WriteTo(conn); err != nil {
		o.dropped.Add(total)
		o.inflight.Store(0)
		return err
	}
	o.sent.Add(total)
	o.inflight.Store(0)
	return nil
}

// shipDurable ships one gather in durable mode: wait for retention room
// (acks free it — dropping here would defeat retain-until-ack, so overload
// backpressures into the rings instead), retain a copy under the next
// sequence number, then write it as one sequence-bearing frame. `sent` does NOT
// advance here — applyAck settles it when the peer's fsync ack arrives. A
// write error keeps the retained copies for the reconnect replay.
//
// A single gather can exceed OutboxCap (one run from the shared ring plus
// one per lane ring, each up to outboxBatchMax), so the run ships as a
// sequence of bounded frames, one sequence each. The room wait only blocks while
// something IS retained: an empty retention always admits the next chunk,
// so the writer can never livelock waiting for acks that would only arrive
// once it makes progress.
func (o *outbox) shipDurable(conn net.Conn, run []Tuple, f *LinkFault) error {
	max := o.node.cfg.OutboxCap
	if max > outboxBatchMax {
		max = outboxBatchMax
	}
	var werr error
	for len(run) > 0 {
		chunk := run
		if len(chunk) > max {
			chunk = run[:max]
		}
		run = run[len(chunk):]
		// Once the write has failed no acks are coming on this connection,
		// so skip the room wait and just retain the rest for the replay
		// (a transient, gather-bounded overshoot of the retention cap).
		for werr == nil {
			ret := int(o.retTuples.Load())
			if ret == 0 || ret+len(chunk) <= o.node.cfg.OutboxCap {
				break
			}
			select {
			case <-o.quit:
				o.dropped.Add(int64(len(chunk) + len(run)))
				o.inflight.Store(0)
				return errOutboxClosed
			case <-time.After(500 * time.Microsecond):
			}
		}
		o.batchSeq++
		rb := retainedBatch{seq: o.batchSeq, ts: append([]Tuple(nil), chunk...)}
		o.retMu.Lock()
		o.retained = append(o.retained, rb)
		o.retTuples.Add(int64(len(chunk)))
		o.retMu.Unlock()
		o.inflight.Store(int64(len(run)))
		if werr != nil {
			continue
		}
		o.reenc = appendSeqFrame(o.reenc[:0], rb.ts, rb.seq)
		if f != nil && f.Delay > 0 {
			select {
			case <-o.quit:
			case <-time.After(f.Delay):
			}
		}
		conn.SetWriteDeadline(time.Now().Add(o.node.cfg.FlushTimeout)) //nolint:errcheck
		if _, err := conn.Write(o.reenc); err != nil {
			werr = err
		}
	}
	return werr
}

// dropRemaining counts everything still buffered as dropped (shutdown or
// terminal link failure with no connection to drain into). The SPSC rings
// are swept consumer-side; callers must guarantee the writer goroutine is
// not concurrently gathering (it is the writer itself, or Node.Close after
// every goroutine has stopped).
func (o *outbox) dropRemaining() {
	o.mu.Lock()
	k := int64(o.count)
	o.head = 0
	o.count = 0
	o.mu.Unlock()
	for _, r := range o.lanes {
		k += int64(r.discard())
	}
	k += o.inflight.Swap(0)
	// Sweep retained-but-unacked batches: at shutdown no ack is coming.
	o.retMu.Lock()
	for _, rb := range o.retained {
		k += int64(len(rb.ts))
	}
	o.retained = nil
	o.retTuples.Store(0)
	o.retMu.Unlock()
	if k > 0 {
		o.dropped.Add(k)
	}
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
