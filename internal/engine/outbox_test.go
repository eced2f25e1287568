package engine

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rodsp/internal/obs"
)

func TestBackoffSchedule(t *testing.T) {
	base, max := 100*time.Millisecond, time.Second
	// Neutral jitter (0.5) leaves the exponential schedule untouched.
	for _, tc := range []struct {
		attempt int
		want    time.Duration
	}{
		{0, 100 * time.Millisecond},
		{1, 200 * time.Millisecond},
		{2, 400 * time.Millisecond},
		{3, 800 * time.Millisecond},
		{4, time.Second}, // capped
		{10, time.Second},
	} {
		if got := backoffDelay(base, max, tc.attempt, 0.5); got != tc.want {
			t.Errorf("attempt %d: got %v, want %v", tc.attempt, got, tc.want)
		}
	}
	// Jitter scales within [0.75, 1.25).
	if got := backoffDelay(base, max, 0, 0); got != 75*time.Millisecond {
		t.Errorf("jitter 0: got %v, want 75ms", got)
	}
	if got := backoffDelay(base, max, 0, 0.999); got >= 125*time.Millisecond || got <= 100*time.Millisecond {
		t.Errorf("jitter ~1: got %v, want in (100ms, 125ms)", got)
	}
	// Zero/negative inputs fall back to sane defaults, never zero delay.
	if got := backoffDelay(0, 0, 3, 0); got <= 0 {
		t.Errorf("defaulted schedule produced non-positive delay %v", got)
	}
}

// deadAddr returns a localhost address nothing is listening on.
func deadAddr(t testing.TB) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// Overflow accounting: with the link severed, a small outbox accepts up to
// its capacity and drops (with a counter) beyond it; after Close every
// buffered tuple is accounted as dropped, so enqueued == sent + dropped.
func TestOutboxOverflowAccounting(t *testing.T) {
	n, err := NewNodeConfig("127.0.0.1:0", 1, NodeConfig{
		OutboxCap:   8,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := deadAddr(t)
	n.SetLinkFault(addr, LinkFault{Sever: true}) // dials must fail, deterministically

	const total = 100
	accepted := 0
	for i := 0; i < total; i++ {
		if n.sendBatch(addr, []Tuple{{Stream: 1, Seq: int64(i)}}) == 1 {
			accepted++
		}
	}
	snaps := n.outboxSnapshots()
	if len(snaps) != 1 {
		t.Fatalf("want 1 outbox, got %d", len(snaps))
	}
	s := snaps[0]
	if s.Enqueued != total {
		t.Fatalf("enqueued = %d, want %d", s.Enqueued, total)
	}
	if int64(accepted) != s.Enqueued-s.Dropped {
		t.Fatalf("accepted %d but enqueued-dropped = %d", accepted, s.Enqueued-s.Dropped)
	}
	if s.Dropped < total-8 {
		t.Fatalf("dropped = %d, want >= %d (cap 8)", s.Dropped, total-8)
	}
	if s.Enqueued != s.Sent+s.Dropped+s.Pending {
		t.Fatalf("accounting broken: enqueued %d != sent %d + dropped %d + pending %d",
			s.Enqueued, s.Sent, s.Dropped, s.Pending)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-close: nothing pending, nothing sent, everything accounted.
	s = n.outboxSnapshots()[0]
	if s.Sent != 0 || s.Pending != 0 || s.Enqueued != s.Dropped {
		t.Fatalf("post-close accounting: %+v", s)
	}
}

// A severed link falls into the backoff/reconnect cycle (emitting one
// relay_error per episode) and recovers once the fault clears: delivery
// resumes, the reconnect counter advances, and peer_up re-arms the latch.
func TestOutboxReconnectAfterPartition(t *testing.T) {
	a, err := NewNodeConfig("127.0.0.1:0", 1, NodeConfig{
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ev := obs.NewEventLog(0)
	a.SetObserver(ev, nil, 0)
	b, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addr := b.Addr()

	a.sendBatch(addr, []Tuple{{Stream: 1}})
	waitUntil(t, 2*time.Second, "first delivery", func() bool {
		return b.Stats().Injected > 0
	})
	before := b.Stats().Injected

	a.SetLinkFault(addr, LinkFault{Sever: true})
	// The severed link surfaces as a relay_error once the outbox notices
	// (the break, or the next failed dial).
	waitUntil(t, 2*time.Second, "relay_error after sever", func() bool {
		a.sendBatch(addr, []Tuple{{Stream: 1}})
		return ev.Count(obs.EventRelayError) > 0
	})

	a.ClearLinkFault(addr)
	waitUntil(t, 4*time.Second, "delivery after heal", func() bool {
		a.sendBatch(addr, []Tuple{{Stream: 1}})
		return b.Stats().Injected > before
	})
	if s := a.outboxSnapshots()[0]; s.Reconnects < 1 {
		t.Fatalf("reconnects = %d, want >= 1 (%+v)", s.Reconnects, s)
	}
	if ev.Count(obs.EventPeerUp) == 0 {
		t.Fatal("no peer_up event after the link healed")
	}
	if ev.Count(obs.EventLinkFault) < 2 {
		t.Fatal("link_fault events missing for set/clear")
	}
}

// A Drop fault silently discards tuples while counting them, without
// breaking the connection — on a volatile link and on a durable one (where
// the discarded run also leaves the ring without waiting for an ack).
func TestOutboxDropFault(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "volatile"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			var acfg, bcfg NodeConfig
			if durable {
				acfg.WALDir, bcfg.WALDir = t.TempDir(), t.TempDir()
			}
			b, err := NewNodeConfig("127.0.0.1:0", 1, bcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			addr := b.Addr()
			a, err := NewNodeConfig("127.0.0.1:0", 1, acfg)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			// Increasing sequences: a durable receiver dedups on them.
			var seq int64
			send := func() {
				a.sendBatch(addr, []Tuple{{Stream: 1, Seq: seq}})
				seq++
			}

			send()
			waitUntil(t, 2*time.Second, "first delivery", func() bool {
				return b.Stats().Injected > 0
			})
			before := b.Stats().Injected

			a.SetLinkFault(addr, LinkFault{Drop: true})
			for i := 0; i < 50; i++ {
				send()
			}
			waitUntil(t, 2*time.Second, "drops counted", func() bool {
				return a.outboxSnapshots()[0].Dropped >= 50
			})
			if got := b.Stats().Injected; got != before {
				t.Fatalf("receiver saw %d tuples during a drop fault (had %d)", got, before)
			}
			if s := a.outboxSnapshots()[0]; s.Pending != 0 || s.Sent != before {
				t.Fatalf("drop fault left sent %d pending %d, want %d and 0", s.Sent, s.Pending, before)
			}
			a.ClearLinkFault(addr)
			waitUntil(t, 2*time.Second, "delivery after clearing drop fault", func() bool {
				send()
				return b.Stats().Injected > before
			})
		})
	}
}

// seqRun returns n tuples of one stream with consecutive sequences.
func seqRun(stream int32, from, n int) []Tuple {
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{Stream: stream, Seq: int64(from + i)}
	}
	return ts
}

// durableSender starts a WAL-armed node, so every link it ships on is
// durable.
func durableSender(t *testing.T, cfg NodeConfig) *Node {
	t.Helper()
	cfg.WALDir = t.TempDir()
	n, err := NewNodeConfig("127.0.0.1:0", 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// ackPeer is a hand-rolled durable peer driven from the test goroutine: it
// decodes frames the way a node would and acks only what the test tells it
// to. Every read and write runs under a deadline, so a wrong expectation
// fails the test instead of hanging it.
type ackPeer struct {
	t  *testing.T
	ln *net.TCPListener
}

type ackConn struct {
	t    *testing.T
	conn net.Conn
	tr   *TupleReader
}

func newAckPeer(t *testing.T) *ackPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &ackPeer{t: t, ln: ln.(*net.TCPListener)}
}

func (p *ackPeer) addr() string { return p.ln.Addr().String() }

// accept takes the outbox's next connection and consumes its preamble.
func (p *ackPeer) accept() *ackConn {
	p.t.Helper()
	p.ln.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	conn, err := p.ln.Accept()
	if err != nil {
		p.t.Fatalf("accept: %v", err)
	}
	p.t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(20 * time.Second)) //nolint:errcheck
	br := bufio.NewReader(conn)
	if kind, err := br.ReadByte(); err != nil || kind != connTuples {
		p.t.Fatalf("preamble: %q, %v", kind, err)
	}
	return &ackConn{t: p.t, conn: conn, tr: NewTupleReader(br)}
}

// next returns a copy of the next frame's tuples and its sequence.
func (c *ackConn) next() ([]Tuple, uint64) {
	c.t.Helper()
	batch, err := c.tr.ReadBatch()
	if err != nil {
		c.t.Fatalf("reading frame: %v", err)
	}
	seq, ok := c.tr.BatchSeq()
	if !ok {
		c.t.Fatal("durable link sent a frame without a sequence")
	}
	return append([]Tuple(nil), batch...), seq
}

// readN reads frames until n tuples have arrived, checking that every
// frame's sequence is the ring position after its last tuple, counted from
// pos. It returns the tuples.
func (c *ackConn) readN(pos uint64, n int) []Tuple {
	c.t.Helper()
	var got []Tuple
	for len(got) < n {
		batch, seq := c.next()
		got = append(got, batch...)
		if want := pos + uint64(len(got)); seq != want {
			c.t.Fatalf("frame sequence %d, want ring position %d", seq, want)
		}
	}
	if len(got) != n {
		c.t.Fatalf("read %d tuples, want %d", len(got), n)
	}
	return got
}

func (c *ackConn) ack(seq uint64) {
	c.t.Helper()
	if err := writeAck(c.conn, seq); err != nil {
		c.t.Fatalf("writing ack %d: %v", seq, err)
	}
}

// wantSeqs fails unless ts carries exactly the sequences from, from+1, ...
func wantSeqs(t *testing.T, what string, ts []Tuple, from, n int) {
	t.Helper()
	if len(ts) != n {
		t.Fatalf("%s: %d tuples, want %d", what, len(ts), n)
	}
	for i := range ts {
		if ts[i].Seq != int64(from+i) {
			t.Fatalf("%s: tuple %d has Seq %d, want %d", what, i, ts[i].Seq, from+i)
		}
	}
}

// awaitOutbox polls the node's single outbox until its sent and pending
// counts match, and returns the matching snapshot.
func awaitOutbox(t *testing.T, n *Node, what string, sent, pending int64) outboxStats {
	t.Helper()
	var s outboxStats
	waitUntil(t, 5*time.Second, what, func() bool {
		s = n.outboxSnapshots()[0]
		return s.Sent == sent && s.Pending == pending
	})
	return s
}

// OutboxCap is the bound: with the writer stalled, every producer together
// gets exactly OutboxCap tuples into the ring. On a node without a WAL the
// rest are dropped and counted; the writer is stalled with a Delay fault (a
// peer that merely stops reading cannot: 64 tuples vanish into the kernel's
// socket buffer). On a node with a WAL the rest wait for room until Close
// releases them, on a link whose peer accepts the connection and never
// acks.
func TestOutboxCapIsTheBound(t *testing.T) {
	const (
		bound     = 64
		producers = 5 // more producers than lanes: offers interleave
		runs, per = 20, 16
	)
	for _, link := range []string{"volatile", "durable"} {
		t.Run(link, func(t *testing.T) {
			peer := newAckPeer(t)
			// Connections are held open and never read.
			var heldMu sync.Mutex
			var held []net.Conn
			t.Cleanup(func() {
				heldMu.Lock()
				defer heldMu.Unlock()
				for _, conn := range held {
					conn.Close()
				}
			})
			go func() {
				for {
					conn, err := peer.ln.Accept()
					if err != nil {
						return
					}
					heldMu.Lock()
					held = append(held, conn)
					heldMu.Unlock()
				}
			}()
			cfg := NodeConfig{Workers: 4, OutboxCap: bound}
			var n *Node
			if link == "durable" {
				n = durableSender(t, cfg)
			} else {
				var err error
				if n, err = NewNodeConfig("127.0.0.1:0", 1, cfg); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { n.Close() })
				n.SetLinkFault(peer.addr(), LinkFault{Delay: time.Hour})
			}
			var accepted atomic.Int64
			offer := func() {
				var wg sync.WaitGroup
				for p := 0; p < producers; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						for r := 0; r < runs; r++ {
							accepted.Add(int64(n.sendBatch(peer.addr(), seqRun(int32(p+1), r*per, per))))
						}
					}(p)
				}
				wg.Wait()
			}
			const offered = producers * runs * per
			if link == "durable" {
				done := make(chan struct{})
				go func() {
					offer()
					close(done)
				}()
				waitUntil(t, 5*time.Second, "a full ring", func() bool {
					ss := n.outboxSnapshots()
					return len(ss) == 1 && ss[0].Pending == bound
				})
				// A second buffer behind the ring would show up as more
				// tuples placed by now.
				time.Sleep(50 * time.Millisecond)
				if s := n.outboxSnapshots()[0]; s.Enqueued != bound || s.Pending != bound || s.Dropped != 0 || s.Sent != 0 {
					t.Fatalf("a full ring that cannot ship or settle: %+v", s)
				}
				select {
				case <-done:
					t.Fatal("every producer returned with the ring full and no ack")
				default:
				}
				// Close releases the waiting producers; the rest of each
				// waiting offer counts dropped, and later offers find no
				// outbox, as at any shutdown.
				n.Close()
				<-done
				if s := n.outboxSnapshots()[0]; accepted.Load() != bound || s.Enqueued <= bound ||
					s.Sent+s.Dropped != s.Enqueued || s.Dropped < s.Enqueued-bound || s.Pending != 0 {
					t.Fatalf("accepted %d of %d offered with OutboxCap %d, then closed: %+v", accepted.Load(), offered, bound, s)
				}
				return
			}
			offer()
			// Give the writer time to take its first run out of the ring: a
			// second buffer behind the ring would show up as room here.
			time.Sleep(50 * time.Millisecond)
			offer()
			s := n.outboxSnapshots()[0]
			if accepted.Load() != bound || s.Pending != bound || s.Dropped != 2*offered-bound ||
				s.Enqueued != 2*offered || s.Sent != 0 {
				t.Fatalf("accepted %d of %d offered with OutboxCap %d: %+v", accepted.Load(), 2*offered, bound, s)
			}
		})
	}
}

// An ack is a ring cursor written by the peer, so it is validated: stale
// and duplicate acks change nothing, an in-range ack releases exactly the
// prefix it covers, and an ack beyond shipped fails the connection without
// releasing anything — the unacked tuples replay on the next one.
func TestOutboxAckValidation(t *testing.T) {
	peer := newAckPeer(t)
	n := durableSender(t, NodeConfig{OutboxCap: 64, BackoffBase: 5 * time.Millisecond})
	n.sendBatch(peer.addr(), seqRun(1, 0, 10))
	c := peer.accept()
	wantSeqs(t, "first frame", c.readN(0, 10), 0, 10)
	awaitOutbox(t, n, "shipped, unacked", 0, 10)

	for _, step := range []struct {
		name          string
		ack           uint64
		sent, pending int64
	}{
		{"in range, mid frame", 4, 4, 6},
		{"duplicate", 4, 4, 6},
		{"stale", 2, 4, 6},
		{"zero", 0, 4, 6},
		{"rest of the frame", 10, 10, 0},
		{"stale after settling", 7, 10, 0},
	} {
		c.ack(step.ack)
		// A no-op ack has no event to wait on. Acks apply in order, so the
		// next effective step (and the replay below) exposes any cursor a
		// no-op moved.
		s := awaitOutbox(t, n, step.name, step.sent, step.pending)
		if s.Dropped != 0 || s.Enqueued != s.Sent+s.Pending {
			t.Fatalf("%s: %+v", step.name, s)
		}
	}

	// Five more tuples go out as positions 11..15; the peer acks far beyond
	// them. Nothing is released, the connection fails, and the next one
	// opens with the hello and the same five tuples.
	n.sendBatch(peer.addr(), seqRun(1, 10, 5))
	wantSeqs(t, "second frame", c.readN(10, 5), 10, 5)
	c.ack(99)
	c2 := peer.accept()
	wantSeqs(t, "replay after the out-of-range ack", c2.readN(10, 5), 10, 5)
	if _, _, ok := c2.tr.Hello(); !ok {
		t.Fatal("reconnect did not open with a hello")
	}
	s := awaitOutbox(t, n, "nothing released by the out-of-range ack", 10, 5)
	if s.Reconnects < 1 || s.Dropped != 0 {
		t.Fatalf("after the out-of-range ack: %+v", s)
	}
	c2.ack(15)
	awaitOutbox(t, n, "replayed tuples acked", 15, 0)
}

// Every producer's accepted tuples arrive in its offer order while the
// ring wraps, grows and (without a WAL) overflows under several producers,
// and enqueued == sent + dropped + pending holds in every snapshot. The
// ring starts at one frame of slots and grows to OutboxCap while the
// writer encodes from it and, on the durable link, acks arrive; some
// tuples are traced, so the writer's TraceTs refresh meets the growth.
func TestOutboxMultiProducerFIFO(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	const producers, runs, per = 6, 300, 24
	bothLinks(t, func(t *testing.T, durable bool) {
		sink := newTupleSink(t)
		addr := sink.ln.Addr().String()
		// A ring much smaller than the offered total, so it wraps many
		// times and, on the volatile link, overflows now and then.
		cfg := NodeConfig{OutboxCap: 4 * outboxBatchMax}
		var n *Node
		if durable {
			n = durableSender(t, cfg)
		} else {
			var err error
			if n, err = NewNodeConfig("127.0.0.1:0", 1, cfg); err != nil {
				t.Fatal(err)
			}
			defer n.Close()
		}
		n.SetObserver(obs.NewEventLog(0), nil, 0)
		o := n.outboxFor(addr)
		// The link is up before the producers start, so the writer
		// encodes while they offer.
		waitUntil(t, 5*time.Second, "the outbox connected", func() bool {
			o.mu.Lock()
			defer o.mu.Unlock()
			return o.conn != nil
		})

		stop := make(chan struct{})
		sampled := make(chan int)
		go func() {
			samples := 0
			defer func() { sampled <- samples }()
			for {
				select {
				case <-stop:
					return
				default:
				}
				samples++
				if s := o.stats(); s.Enqueued-s.Sent-s.Dropped-s.Pending != 0 {
					t.Errorf("sample %d breaks the ledger: %+v", samples, s)
					return
				}
			}
		}()

		want := make([][]int64, producers)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for r := 0; r < runs; r++ {
					run := seqRun(int32(p+1), r*per, per)
					for i := range run {
						if (p+i)%7 == 0 {
							run[i].Flags, run[i].TraceTs = TupleTraced, 1
						}
					}
					for _, tp := range run[:n.sendBatch(addr, run)] {
						want[p] = append(want[p], tp.Seq)
					}
				}
			}(p)
		}
		wg.Wait()
		waitUntil(t, 10*time.Second, "outbox drained into the sink", func() bool {
			s := o.stats()
			return s.Pending == 0 && int64(sink.count()) == s.Sent
		})
		close(stop)
		if samples := <-sampled; samples == 0 {
			t.Fatal("the sampler never ran")
		}

		s := o.stats()
		if s.Enqueued != producers*runs*per || s.Enqueued != s.Sent+s.Dropped || durable && s.Dropped != 0 {
			t.Fatalf("ledger does not close: %+v", s)
		}
		o.mu.Lock()
		slots := len(o.ring)
		o.mu.Unlock()
		if slots <= outboxBatchMax {
			t.Fatalf("the ring never grew past %d slots: %+v", slots, s)
		}
		sink.mu.Lock()
		defer sink.mu.Unlock()
		for p := range want {
			got := sink.byStream[int32(p+1)]
			if len(got) != len(want[p]) {
				t.Fatalf("producer %d: %d tuples at the sink, %d accepted", p, len(got), len(want[p]))
			}
			for i := range got {
				if got[i].Seq != want[p][i] {
					t.Fatalf("producer %d: arrival %d has Seq %d, want %d (order broken)", p, i, got[i].Seq, want[p][i])
				}
			}
		}
	})
}

// Retention is the ring itself, and its free room is the sender's credit:
// while the peer withholds acks the ring fills to OutboxCap and further
// offers wait. Each ack frees room, the waiting offers go on in order, and
// nothing is dropped: the acks settle every tuple offered, and the identity
// enqueued == sent + dropped + pending holds while the producer waits.
func TestDurableRetainInPlace(t *testing.T) {
	const bound, total = 64, 12 * 16
	peer := newAckPeer(t)
	n := durableSender(t, NodeConfig{OutboxCap: bound})
	done := make(chan int, 1)
	go func() {
		accepted := 0
		for r := 0; r < total/16; r++ {
			accepted += n.sendBatch(peer.addr(), seqRun(1, r*16, 16))
		}
		done <- accepted
	}()
	c := peer.accept()
	wantSeqs(t, "shipped while unacked", c.readN(0, bound), 0, bound)
	s := awaitOutbox(t, n, "ring full, nothing acked", 0, bound)
	time.Sleep(50 * time.Millisecond)
	select {
	case k := <-done:
		t.Fatalf("offers past a full ring returned (%d placed) with no ack", k)
	default:
	}
	if s = n.outboxSnapshots()[0]; s.Enqueued != bound || s.Dropped != 0 || s.Pending != bound {
		t.Fatalf("waiting for room: %+v", s)
	}
	// Each ack makes room for the next OutboxCap tuples, which the writer
	// ships, numbered where the ring left off.
	for read := bound; read < total; read += min(bound, total-read) {
		c.ack(uint64(read))
		k := min(bound, total-read)
		wantSeqs(t, fmt.Sprintf("after the ack of %d", read), c.readN(uint64(read), k), read, k)
	}
	c.ack(total)
	s = awaitOutbox(t, n, "everything offered acked", total, 0)
	if k := <-done; k != total || s.Dropped != 0 || s.Enqueued != total {
		t.Fatalf("placed %d of %d: %+v", k, total, s)
	}
}

// A producer waiting for durable ring room is released when no ack can come
// any more, by the node's Close. What it had not placed is counted dropped,
// as at shutdown, and the outbox identity still closes.
func TestDurableRetainReleasedByStop(t *testing.T) {
	const bound, offered = 64, 100
	t.Run("close", func(t *testing.T) {
		peer := newAckPeer(t) // the kernel completes the dial; nothing acks
		n := durableSender(t, NodeConfig{OutboxCap: bound})
		o := n.outboxFor(peer.addr())
		done := make(chan int, 1)
		go func() { done <- n.sendBatch(peer.addr(), seqRun(1, 0, offered)) }()
		waitUntil(t, 5*time.Second, "a full ring", func() bool { return o.stats().Pending == bound })
		select {
		case k := <-done:
			t.Fatalf("the offer returned (%d placed) with the ring full and no ack", k)
		case <-time.After(50 * time.Millisecond):
		}
		t0 := time.Now()
		n.Close()
		select {
		case k := <-done:
			if k != bound {
				t.Fatalf("released offer placed %d, want %d", k, bound)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("close did not release the waiting producer")
		}
		if d := time.Since(t0); d > time.Second {
			t.Fatalf("close released the waiting producer after %v", d)
		}
		// Close sweeps the ring itself too.
		if s := o.stats(); s.Enqueued != offered || s.Dropped != offered || s.Enqueued != s.Sent+s.Dropped+s.Pending {
			t.Fatalf("after close: %+v", s)
		}
	})
}

// A reconnect rewinds shipped to acked: the new connection opens with the
// hello, then carries exactly the unacked suffix, in order, under the same
// positional sequences, ahead of anything new.
func TestDurableReconnectRewindsToAcked(t *testing.T) {
	peer := newAckPeer(t)
	n := durableSender(t, NodeConfig{OutboxCap: 64, BackoffBase: 5 * time.Millisecond})
	n.sendBatch(peer.addr(), seqRun(1, 0, 10))
	c := peer.accept()
	wantSeqs(t, "first connection", c.readN(0, 10), 0, 10)
	inc, sender, ok := c.tr.Hello()
	if !ok || sender != n.Addr() {
		t.Fatalf("hello = (%d, %q, %v), want sender %q", inc, sender, ok, n.Addr())
	}
	c.ack(6)
	awaitOutbox(t, n, "prefix acked", 6, 4)
	c.conn.Close()

	c2 := peer.accept()
	wantSeqs(t, "replayed suffix", c2.readN(6, 4), 6, 4)
	if inc2, sender2, ok := c2.tr.Hello(); !ok || inc2 != inc || sender2 != sender {
		t.Fatalf("reconnect hello = (%d, %q, %v), want (%d, %q)", inc2, sender2, ok, inc, sender)
	}
	n.sendBatch(peer.addr(), seqRun(1, 10, 3))
	wantSeqs(t, "new tuples after the replay", c2.readN(10, 3), 10, 3)
	c2.ack(13)
	s := awaitOutbox(t, n, "all acked", 13, 0)
	if s.Reconnects < 1 || s.Dropped != 0 {
		t.Fatalf("after the reconnect: %+v", s)
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// storeMax keeps the largest value under concurrent writers; the
// load-then-store it replaced could end below the maximum.
func TestStoreMaxConcurrent(t *testing.T) {
	for round := 0; round < 50; round++ {
		var a atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 1000; i++ {
					storeMax(&a, int64(i*8+g))
				}
			}(g)
		}
		wg.Wait()
		if got := a.Load(); got != 999*8+7 {
			t.Fatalf("max = %d, want %d", got, 999*8+7)
		}
	}
	var a atomic.Int64
	a.Store(10)
	storeMax(&a, 3)
	if a.Load() != 10 {
		t.Fatalf("storeMax lowered the value to %d", a.Load())
	}
}

// recordConn is a connection whose writes all succeed and are kept, one
// entry per Write call.
type recordConn struct {
	net.Conn
	writes [][]byte
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (c *recordConn) SetWriteDeadline(time.Time) error { return nil }

// shipper is an outbox with no writer goroutine, for a test that calls ship
// itself and records each write. Tuple Seq equals ring position throughout.
// A durable one belongs to a node with a WAL, so an offer that overfills
// its ring waits for an ack or for stop.
func shipper(t *testing.T, ringCap int, durable bool) (*outbox, *recordConn) {
	t.Helper()
	cfg := NodeConfig{OutboxCap: ringCap}
	if durable {
		cfg.WALDir = t.TempDir()
	}
	n, err := NewNodeConfig("127.0.0.1:0", 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return newOutbox(n, deadAddr(t)), &recordConn{}
}

// shipWant ships once and checks that it made one write of whole frames,
// carrying exactly the tuples at positions [from, ends[last]) in one frame
// per entry of ends, and that a durable frame's sequence is the position
// after its last tuple (ends itself).
func shipWant(t *testing.T, o *outbox, conn *recordConn, from int, ends ...uint64) {
	t.Helper()
	k := int(ends[len(ends)-1]) - from
	writes := len(conn.writes)
	if got, err := o.ship(conn); got != k || err != nil {
		t.Fatalf("ship from position %d: %d tuples (%v), want %d", from, got, err, k)
	}
	if len(conn.writes) != writes+1 {
		t.Fatalf("ship from position %d made %d writes", from, len(conn.writes)-writes)
	}
	w := conn.writes[writes]
	if len(w) > tupleConnBuffer {
		t.Fatalf("ship from position %d wrote %d bytes, over the %d-byte budget", from, len(w), tupleConnBuffer)
	}
	got, seqs, frames := decodeAll(t, w)
	if frames != len(ends) {
		t.Fatalf("ship from position %d wrote %d frames, want %d", from, frames, len(ends))
	}
	wantSeqs(t, fmt.Sprintf("write from position %d", from), got, from, k)
	switch {
	case o.durable && !slices.Equal(seqs, ends):
		t.Fatalf("write from position %d: sequences %v, want %v", from, seqs, ends)
	case !o.durable && len(seqs) != 0:
		t.Fatalf("volatile frames carry sequences %v", seqs)
	}
	// Byte for byte, the write is the frames a one-frame-per-write outbox
	// would have sent, back to back.
	var want []byte
	start := from
	for _, end := range ends {
		ts := got[start-from : int(end)-from]
		if o.durable {
			want = appendSeqFrame(want, ts, end)
		} else {
			want = appendFrames(want, ts)
		}
		start = int(end)
	}
	if !bytes.Equal(w, want) {
		t.Fatalf("write from position %d differs from its frames encoded one by one", from)
	}
}

// bothLinks runs f as a volatile and as a durable subtest.
func bothLinks(t *testing.T, f func(t *testing.T, durable bool)) {
	for _, durable := range []bool{false, true} {
		name := "volatile"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) { f(t, durable) })
	}
}

// ship encodes frames where they lie in the ring, so a frame that reaches
// the ring's end stops there and the rest goes out as the next frame of the
// same write.
func TestOutboxShipFromRingWrap(t *testing.T) {
	bothLinks(t, func(t *testing.T, durable bool) {
		o, conn := shipper(t, 16, durable)
		o.enqueueBatch(seqRun(1, 0, 10), false)
		shipWant(t, o, conn, 0, 10)
		if durable {
			if err := o.applyAck(10); err != nil {
				t.Fatal(err)
			}
		}
		// Positions 10..21 occupy slots 10..15, then wrap to slots 0..5.
		if got := o.enqueueBatch(seqRun(1, 10, 12), false); got != 12 {
			t.Fatalf("accepted %d of 12", got)
		}
		shipWant(t, o, conn, 10, 16, 22)
		if k, err := o.ship(conn); k != 0 || err != nil {
			t.Fatalf("an empty ring shipped %d tuples (%v)", k, err)
		}
		wantAcked := uint64(22)
		if durable {
			wantAcked = 10
		}
		if o.acked != wantAcked || o.shipped != 22 || o.tail != 22 || len(conn.writes) != 2 {
			t.Fatalf("cursors acked %d shipped %d tail %d after %d writes, want %d/22/22 after 2",
				o.acked, o.shipped, o.tail, len(conn.writes), wantAcked)
		}
	})
}

// The ring's array grows to what the link holds. A fresh outbox holds one
// frame of slots whatever OutboxCap is, and an offer that would overfill
// the array doubles it to the smallest size that takes the offer, never
// above OutboxCap, carrying the held region [acked, tail) to the same
// positions. The ledger balances in every snapshot. A durable ring that
// grows while it holds an unacked region that wraps its old array re-sends
// that region after a reconnect, record for record and in order, and a
// traced tuple's refreshed TraceTs lands in the array current at the
// refresh, though the writer encodes from an older one.
func TestOutboxRingGrowsWithOccupancy(t *testing.T) {
	bothLinks(t, func(t *testing.T, durable bool) {
		const bound = 65536
		o, conn := shipper(t, bound, durable)
		if len(o.ring) != outboxBatchMax {
			t.Fatalf("a fresh outbox at OutboxCap %d holds %d slots, want %d", bound, len(o.ring), outboxBatchMax)
		}
		hwm := 0
		offer := func(from, k int) {
			t.Helper()
			ts := seqRun(1, from, k)
			for i := range ts {
				ts[i].Ts, ts[i].Value, ts[i].Key = int64(from+i)*7, float64(from+i)/3, uint64(1000+from+i)
				if i%5 == 0 {
					ts[i].Flags, ts[i].TraceTs = TupleTraced, int64(from+i)
				}
			}
			room := bound - int(o.tail-o.acked)
			if got := o.enqueueBatch(ts, false); got != min(k, room) {
				t.Fatalf("offer of %d at position %d: %d accepted", k, from, got)
			}
			hwm = max(hwm, int(o.tail-o.acked))
			want := outboxBatchMax
			for want < hwm {
				want *= 2
			}
			if len(o.ring) != min(want, bound) {
				t.Fatalf("after an offer to position %d (high-water mark %d): %d slots, want %d",
					from+k, hwm, len(o.ring), min(want, bound))
			}
			if s := o.stats(); s.Enqueued != s.Sent+s.Dropped+s.Pending {
				t.Fatalf("after an offer to position %d: %+v", from+k, s)
			}
		}
		settle := func(pos uint64) {
			t.Helper()
			if durable {
				if err := o.applyAck(pos); err != nil {
					t.Fatal(err)
				}
			}
		}
		offer(0, 300)
		shipWant(t, o, conn, 0, 300)
		settle(300)
		// Positions 300..699 wrap the 512-slot array.
		offer(300, 400)
		shipWant(t, o, conn, 300, 512, 700)
		first, _, _ := decodeAll(t, conn.writes[len(conn.writes)-1])
		if durable {
			// The region stays unacked while the ring doubles beneath it.
			offer(700, 600)
			o.mu.Lock()
			o.shipped = o.acked // what a reconnect does (writeLoop)
			o.mu.Unlock()
			shipWant(t, o, conn, 300, 812, 1024, 1300)
			replay, _, _ := decodeAll(t, conn.writes[len(conn.writes)-1])
			for i := range first {
				if replay[i] != first[i] {
					t.Fatalf("replayed tuple %d is %+v, first sent as %+v", i, replay[i], first[i])
				}
			}
			settle(1300)
		} else {
			offer(700, 600)
			shipWant(t, o, conn, 700, 1024, 1300)
		}
		// Offers up to the bound double the array to OutboxCap, not past it.
		// A volatile ring drops the 600 past it; a durable one waits for
		// room until stop ends the wait, and counts them dropped then.
		if durable {
			go func() {
				for o.stats().Pending < bound {
					time.Sleep(time.Millisecond)
				}
				o.stop()
			}()
		}
		for pos := 1300; pos < 1300+bound+600; pos += 6000 {
			offer(pos, min(6000, 1300+bound+600-pos))
		}
		if s := o.stats(); len(o.ring) != bound || s.Pending != bound || s.Dropped != 600 {
			t.Fatalf("past the bound: %d slots, %+v", len(o.ring), s)
		}

		if durable {
			o, _ := shipper(t, bound, true)
			o.node.SetObserver(obs.NewEventLog(0), nil, 0)
			ts := seqRun(1, 0, 100)
			for i := range ts {
				ts[i].Flags, ts[i].TraceTs = TupleTraced, 1
			}
			o.enqueueBatch(ts, false)
			snap := o.ring
			o.enqueueBatch(seqRun(1, 100, 1000), false)
			if len(o.ring) != 2048 {
				t.Fatalf("%d slots after 1100 offered, want 2048", len(o.ring))
			}
			o.traceOut(snap[:100], 0)
			for i := range ts {
				if o.ring[i].TraceTs <= 1 || o.ring[i].TraceTs != snap[i].TraceTs {
					t.Fatalf("traced tuple %d: TraceTs %d in the ring, %d in the snapshot: want both refreshed",
						i, o.ring[i].TraceTs, snap[i].TraceTs)
				}
			}
		}
	})
}

// A full ring leaves in writes of as many whole outboxBatchMax frames as
// fit in tupleConnBuffer: four of plain 28-byte records (a fifth would make
// 71 710 bytes), three of keyed 36-byte ones (a fourth would make 73 752).
func TestOutboxShipGathersWholeFrames(t *testing.T) {
	bothLinks(t, func(t *testing.T, durable bool) {
		o, conn := shipper(t, DefaultOutboxCap, durable)
		o.enqueueBatch(seqRun(1, 0, DefaultOutboxCap), false)
		shipWant(t, o, conn, 0, 512, 1024, 1536, 2048)
		shipWant(t, o, conn, 2048, 2560, 3072, 3584, 4096)
		if durable {
			if err := o.applyAck(4096); err != nil {
				t.Fatal(err)
			}
		} else if o.sent != DefaultOutboxCap {
			t.Fatalf("sent %d of a full ring", o.sent)
		}
		keyed := seqRun(1, 4096, DefaultOutboxCap)
		for i := range keyed {
			keyed[i].Key = uint64(i + 1)
		}
		o.enqueueBatch(keyed, false)
		shipWant(t, o, conn, 4096, 4608, 5120, 5632)
		shipWant(t, o, conn, 5632, 6144, 6656, 7168)
		shipWant(t, o, conn, 7168, 7680, 8192)
	})
}

// A Drop fault discards one frame's run per ship and writes nothing; on a
// durable link it first waits for the retained region ahead of the run to
// be acked.
func TestOutboxShipDropsOneRunPerShip(t *testing.T) {
	bothLinks(t, func(t *testing.T, durable bool) {
		o, conn := shipper(t, 16, durable)
		o.enqueueBatch(seqRun(1, 0, 10), false)
		shipWant(t, o, conn, 0, 10)
		o.node.SetLinkFault(o.addr, LinkFault{Drop: true})
		if durable {
			o.enqueueBatch(seqRun(1, 10, 2), false)
			if k, err := o.ship(conn); k != 0 || err != nil {
				t.Fatalf("dropped %d tuples (%v) behind an unacked region", k, err)
			}
			if err := o.applyAck(10); err != nil {
				t.Fatal(err)
			}
			o.enqueueBatch(seqRun(1, 12, 10), false)
		} else {
			o.enqueueBatch(seqRun(1, 10, 12), false)
		}
		// Positions 10..21: a run to the ring's end, then the wrapped rest.
		for _, want := range []int{6, 6, 0} {
			if k, err := o.ship(conn); k != want || err != nil {
				t.Fatalf("a drop-fault ship discarded %d tuples (%v), want %d", k, err, want)
			}
		}
		if len(conn.writes) != 1 || o.dropped != 12 || o.sent != 10 || o.acked != 22 || o.shipped != 22 {
			t.Fatalf("after the drop fault: %d writes, dropped %d, sent %d, acked %d, shipped %d; want 1/12/10/22/22",
				len(conn.writes), o.dropped, o.sent, o.acked, o.shipped)
		}
	})
}

// An ack may only cover tuples already written. One that arrives while the
// run it names is still between encode and write (held there by a Delay
// fault) fails the connection and releases nothing; the next connection
// replays the run under the same sequence.
func TestOutboxEarlyAckRejected(t *testing.T) {
	peer := newAckPeer(t)
	n := durableSender(t, NodeConfig{OutboxCap: 64, BackoffBase: 5 * time.Millisecond})
	n.SetLinkFault(peer.addr(), LinkFault{Delay: 300 * time.Millisecond})
	n.sendBatch(peer.addr(), seqRun(1, 0, 10))
	c := peer.accept()
	c.ack(10)
	c2 := peer.accept()
	wantSeqs(t, "replay after the early ack", c2.readN(0, 10), 0, 10)
	s := awaitOutbox(t, n, "nothing released by the early ack", 0, 10)
	if s.Reconnects < 1 || s.Dropped != 0 {
		t.Fatalf("after the early ack: %+v", s)
	}
	c2.ack(10)
	awaitOutbox(t, n, "replayed run acked", 10, 0)
	c.conn.Close()
}

// firstFrame accepts the outbox's next connection and returns the bytes it
// sent, exactly, from the preamble to the end of its first tuple frame, and
// that frame's tuples. The connection is closed when it returns.
func (p *ackPeer) firstFrame() ([]byte, []Tuple) {
	p.t.Helper()
	p.ln.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	conn, err := p.ln.Accept()
	if err != nil {
		p.t.Fatalf("accept: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second)) //nolint:errcheck
	// Unbuffered: the reader consumes exactly the bytes it decodes, and the
	// tee keeps exactly those.
	var raw bytes.Buffer
	r := io.TeeReader(conn, &raw)
	if _, err := io.ReadFull(r, make([]byte, 1)); err != nil {
		p.t.Fatalf("preamble: %v", err)
	}
	batch, err := NewTupleReader(r).ReadBatch()
	if err != nil {
		p.t.Fatalf("reading frame: %v", err)
	}
	return raw.Bytes(), append([]Tuple(nil), batch...)
}

// A reconnect replays the unacked region from the ring slots: the same
// bytes as the first send, record for record, except each traced tuple's
// TraceTs. That is refreshed at every ship and kept in the slot, so the
// replay's outbox stage is the time since the previous send.
func TestDurableReconnectResendsIdenticalRecords(t *testing.T) {
	peer := newAckPeer(t)
	n := durableSender(t, NodeConfig{OutboxCap: 64, BackoffBase: 5 * time.Millisecond})
	ev := obs.NewEventLog(0)
	n.SetObserver(ev, nil, 0)
	const count = 40
	ts := seqRun(1, 0, count)
	for i := range ts {
		ts[i].Ts, ts[i].Value, ts[i].Key = int64(i)*7, float64(i)/3, uint64(1000+i)
		if i%3 == 0 {
			ts[i].Flags, ts[i].TraceTs = TupleTraced, 1
		}
	}
	n.sendBatch(peer.addr(), ts)
	raw1, first := peer.firstFrame() // closing it makes the outbox reconnect
	raw2, replay := peer.firstFrame()

	wantSeqs(t, "first send", first, 0, count)
	wantSeqs(t, "replay", replay, 0, count)
	if len(raw1) != len(raw2) {
		t.Fatalf("replay is %d bytes, the first send %d", len(raw2), len(raw1))
	}
	// Blank each traced record's TraceTs: preamble, hello (opcode,
	// incarnation, address length, address), frame header, sequence, then
	// records of recordSize bytes with flags and TraceTs after the fixed 28.
	recs := 1 + 1 + 8 + 2 + len(n.Addr()) + frameHeaderSize + seqFieldSize
	rec := recordSize(raw1[recs-seqFieldSize-frameHeaderSize+1])
	if rec != tupleFrameSize+traceFieldSize+keyFieldSize {
		t.Fatalf("record size %d: the frame does not carry trace and key fields", rec)
	}
	for i := range ts {
		if ts[i].Flags == 0 {
			if first[i] != ts[i] || replay[i] != ts[i] {
				t.Fatalf("untraced tuple %d: sent %+v, then %+v, offered %+v", i, first[i], replay[i], ts[i])
			}
			continue
		}
		if !(ts[i].TraceTs < first[i].TraceTs && first[i].TraceTs < replay[i].TraceTs) {
			t.Fatalf("traced tuple %d: TraceTs %d, sent %d, replayed %d: want each ship to refresh it",
				i, ts[i].TraceTs, first[i].TraceTs, replay[i].TraceTs)
		}
		at := recs + i*rec + tupleFrameSize + 1
		clear(raw1[at : at+8])
		clear(raw2[at : at+8])
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("the replay differs from the first send outside the traced tuples' TraceTs")
	}
	// Each traced tuple's second outbox span is the replay's, and it waited
	// from the first send's TraceTs to the replay's. (Closing the second
	// connection starts a third replay, which may have added a third span.)
	waits := map[int64][]float64{}
	for _, e := range ev.Events() {
		if e.Type == obs.EventSpan && e.Fields["stage"] == "outbox" {
			seq := e.Fields["seq"].(int64)
			waits[seq] = append(waits[seq], e.Fields["wait"].(float64))
		}
	}
	for i := range ts {
		if ts[i].Flags == 0 {
			continue
		}
		want := float64(replay[i].TraceTs-first[i].TraceTs) / float64(time.Second)
		if w := waits[int64(i)]; len(w) < 2 || w[1] != want {
			t.Fatalf("traced tuple %d: outbox waits %v, want the replay's to be %v", i, w, want)
		}
	}
}

// Addressed copies a relay entry carries are numbered by the outbox, one
// increasing sequence per (stream, target) in ring order, whatever Seqs
// they came with: a tuple that reached the node again after its consumer
// came and went may sit behind newer ones. Untargeted tuples keep the Seq
// their producer gave them, and a copy the full ring drops takes no number.
// Numbering does not depend on the link's mode; a volatile ring is the one
// that drops.
func TestOutboxNumbersRelayedFlows(t *testing.T) {
	o, _ := shipper(t, 8, false)
	o.enqueueBatch([]Tuple{{Stream: 1, Seq: 40}, {Stream: 1, Seq: 41}}, false)
	before := time.Now().UnixNano()
	relayed := []Tuple{
		{Stream: 1, Seq: 90, target: 3}, {Stream: 1, Seq: 12, target: 3}, // a newer copy, then an older one
		{Stream: 1, Seq: 90, target: 4}, // the same tuple for a second consumer
		{Stream: 2, Seq: 5, target: 3},
	}
	if got := o.enqueueBatch(relayed, true); got != 4 {
		t.Fatalf("accepted %d of 4", got)
	}
	if got := o.enqueueBatch([]Tuple{{Stream: 1, Seq: 7, target: 3}, {Stream: 1, Seq: 8, target: 3}, {Stream: 1, Seq: 9, target: 3}}, true); got != 2 {
		t.Fatalf("accepted %d of 3 into a ring with 2 slots free", got)
	}
	seqs := map[markKey][]int64{}
	for p := o.acked; p < o.tail; p++ {
		tp := o.ring[p%uint64(len(o.ring))]
		seqs[markKey{tp.Stream, tp.target}] = append(seqs[markKey{tp.Stream, tp.target}], tp.Seq)
	}
	if u := seqs[markKey{1, 0}]; len(u) != 2 || u[0] != 40 || u[1] != 41 {
		t.Fatalf("untargeted tuples renumbered: %v", u)
	}
	for key, want := range map[markKey]int{{1, 3}: 4, {1, 4}: 1, {2, 3}: 1} {
		s := seqs[key]
		if len(s) != want || s[0] < before {
			t.Fatalf("flow %+v: seqs %v, want %d starting at the clock (%d)", key, s, want, before)
		}
		for i := 1; i < len(s); i++ {
			if s[i] != s[i-1]+1 {
				t.Fatalf("flow %+v: seqs %v, want consecutive", key, s)
			}
		}
	}
}
