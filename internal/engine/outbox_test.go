package engine

import (
	"bufio"
	"net"
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
func deadAddr(t *testing.T) string {
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
// breaking the connection.
func TestOutboxDropFault(t *testing.T) {
	a, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
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

	a.SetLinkFault(addr, LinkFault{Drop: true})
	for i := 0; i < 50; i++ {
		a.sendBatch(addr, []Tuple{{Stream: 1}})
	}
	waitUntil(t, 2*time.Second, "drops counted", func() bool {
		return a.outboxSnapshots()[0].Dropped >= 50
	})
	if got := b.Stats().Injected; got != before {
		t.Fatalf("receiver saw %d tuples during a drop fault (had %d)", got, before)
	}
	a.ClearLinkFault(addr)
	waitUntil(t, 2*time.Second, "delivery after clearing drop fault", func() bool {
		a.sendBatch(addr, []Tuple{{Stream: 1}})
		return b.Stats().Injected > before
	})
}

// TestDurableShipOversizedGather pins the retention livelock: with workers,
// one gather can collect more tuples than OutboxCap (a run from the shared
// ring plus one per lane ring), so a durable writer that waits for
// retTuples+len(run) <= cap before retaining would spin forever on its very
// first gather. The oversized gather must instead ship as multiple bounded
// sequence-bearing frames and fully settle once the peer acks them.
func TestDurableShipOversizedGather(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// Receiver: decode frames off the connection and ack every sequence, the
	// way a durable peer would after its group commit.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReaderSize(conn, 16*1024)
		if _, err := br.ReadByte(); err != nil { // connTuples preamble
			return
		}
		tr := NewTupleReader(br)
		for {
			if _, err := tr.ReadBatch(); err != nil {
				return
			}
			if seq, ok := tr.BatchSeq(); ok {
				if err := writeAck(conn, seq); err != nil {
					return
				}
			}
		}
	}()

	n, err := NewNodeConfig("127.0.0.1:0", 1, NodeConfig{
		OutboxCap: 64,
		Workers:   4,
		WALDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	// Build the durable outbox by hand so the rings can be filled past
	// OutboxCap before its writer goroutine ever runs.
	o := newOutbox(n, ln.Addr().String(), true)
	shared := make([]Tuple, n.cfg.OutboxCap)
	for i := range shared {
		shared[i] = Tuple{Stream: 1, Seq: int64(i)}
	}
	if got := o.enqueueBatch(shared); got != len(shared) {
		t.Fatalf("shared ring accepted %d of %d", got, len(shared))
	}
	total := len(shared)
	for li := range o.lanes {
		laneRun := make([]Tuple, 16)
		for i := range laneRun {
			laneRun[i] = Tuple{Stream: 2, Seq: int64(li*16 + i)}
		}
		total += o.enqueueLane(li, laneRun)
	}
	if total <= n.cfg.OutboxCap {
		t.Fatalf("test needs a gather larger than OutboxCap, buffered only %d", total)
	}
	n.peersMu.Lock()
	n.peers[o.addr] = o
	n.peersMu.Unlock()
	n.wg.Add(1)
	go o.run()

	waitUntil(t, 5*time.Second, "oversized gather shipped and acked", func() bool {
		return o.sent.Load() == int64(total) && o.retTuples.Load() == 0
	})
	if d := o.dropped.Load(); d != 0 {
		t.Fatalf("durable path dropped %d tuples", d)
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
