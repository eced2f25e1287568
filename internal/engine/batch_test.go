package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rodsp/internal/obs"
)

// SendBatch → ReadBatch round-trips tuples exactly, splitting batches that
// exceed the wire cap.
func TestBatchWireRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 256, MaxBatchWire + 7} {
		var buf bytes.Buffer
		tw, err := NewTupleWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]Tuple, n)
		for i := range in {
			in[i] = Tuple{Stream: int32(i % 5), Ts: int64(i) * 100, Seq: int64(i), Value: float64(i) / 3}
		}
		if err := tw.SendBatch(in); err != nil {
			t.Fatal(err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if b := buf.Bytes(); len(b) == 0 || b[0] != connTuples {
			t.Fatalf("n=%d: preamble missing", n)
		}
		tr := NewTupleReader(bytes.NewReader(buf.Bytes()[1:])) // skip preamble
		var out []Tuple
		for len(out) < n {
			batch, err := tr.ReadBatch()
			if err != nil {
				t.Fatalf("n=%d: ReadBatch after %d tuples: %v", n, len(out), err)
			}
			if len(batch) > MaxBatchWire {
				t.Fatalf("n=%d: frame carried %d tuples (cap %d)", n, len(batch), MaxBatchWire)
			}
			out = append(out, batch...)
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("n=%d: tuple %d = %+v, want %+v", n, i, out[i], in[i])
			}
		}
	}
}

// A tuple with no local consumer and no route onward is counted in
// DroppedNoRoute and warns once per stream instead of vanishing.
func TestNoRouteAccounting(t *testing.T) {
	n, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ev := obs.NewEventLog(0)
	n.SetObserver(ev, nil, 0)

	for i := 0; i < 10; i++ {
		n.enqueueInboundBatch([]Tuple{{Stream: 7, Seq: int64(i)}})
	}
	n.enqueueInboundBatch([]Tuple{{Stream: 8}, {Stream: 8}, {Stream: 7}})
	s := n.Stats()
	if s.DroppedNoRoute != 13 {
		t.Fatalf("DroppedNoRoute = %d, want 13", s.DroppedNoRoute)
	}
	if s.Injected != 13 {
		t.Fatalf("Injected = %d, want 13", s.Injected)
	}
	// One warn event per stream, not per tuple.
	if got := ev.Count(obs.EventNoRoute); got != 2 {
		t.Fatalf("no_route events = %d, want 2 (one per stream)", got)
	}
}

// Outbox invariant under batched flushes: concurrent batch enqueues racing
// a severed/healed link and reconnects still satisfy
// enqueued == sent + dropped + pending at quiescence, with every tuple
// accounted exactly once. The ring starts at one frame of slots and grows
// to OutboxCap while the link flips, and some tuples are traced, so the
// writer's TraceTs refresh meets the growth. Run with -race.
func TestOutboxBatchInvariant(t *testing.T) {
	a, err := NewNodeConfig("127.0.0.1:0", 1, NodeConfig{
		OutboxCap:   4 * outboxBatchMax,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetObserver(obs.NewEventLog(0), nil, 0)
	b, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	addr := b.Addr()

	const (
		producers  = 4
		batches    = 50
		batchSize  = 32
		totalSent  = producers * batches * batchSize
		faultFlips = 6
	)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]Tuple, batchSize)
			for i := 0; i < batches; i++ {
				for j := range batch {
					batch[j] = Tuple{Stream: 1, Seq: int64(p*batches*batchSize + i*batchSize + j)}
					if j%7 == 0 {
						batch[j].Flags, batch[j].TraceTs = TupleTraced, 1
					}
				}
				a.sendBatch(addr, batch)
			}
		}(p)
	}
	// Flip the link while producers hammer the ring.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < faultFlips; i++ {
		time.Sleep(time.Duration(1+rng.Intn(4)) * time.Millisecond)
		if i%2 == 0 {
			a.SetLinkFault(addr, LinkFault{Sever: true})
		} else {
			a.ClearLinkFault(addr)
		}
	}
	wg.Wait()
	a.ClearLinkFault(addr)

	// Quiescence: the writer drains the ring (link is healed), after which
	// the books must balance exactly.
	waitUntil(t, 5*time.Second, "outbox drained after heal", func() bool {
		s := a.outboxSnapshots()[0]
		return s.Pending == 0 && s.Sent+s.Dropped == s.Enqueued
	})
	s := a.outboxSnapshots()[0]
	if s.Enqueued != totalSent {
		t.Fatalf("enqueued = %d, want %d", s.Enqueued, totalSent)
	}
	if s.Enqueued != s.Sent+s.Dropped+s.Pending {
		t.Fatalf("invariant broken: %+v", s)
	}
	// Everything the receiver saw must be a subset of what was sent.
	if got := b.Stats().Injected; got > int64(totalSent) || got != s.Sent {
		t.Fatalf("receiver injected %d, sender sent %d (dropped %d)", got, s.Sent, s.Dropped)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	s = a.outboxSnapshots()[0]
	if s.Pending != 0 || s.Enqueued != s.Sent+s.Dropped {
		t.Fatalf("post-close accounting: %+v", s)
	}
}

// Batched routing keeps per-destination order: a run of outputs for one
// peer arrives in emission order even when shipped as multiple frames.
func TestOutboxBatchOrdering(t *testing.T) {
	a, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetObserver(obs.NewEventLog(0), nil, 0)
	b, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const total = 1000
	batch := make([]Tuple, total)
	for i := range batch {
		batch[i] = Tuple{Stream: 1, Seq: int64(i)}
	}
	if got := a.sendBatch(b.Addr(), batch); got != total {
		t.Fatalf("accepted %d of %d", got, total)
	}
	waitUntil(t, 2*time.Second, "all tuples delivered", func() bool {
		return b.Stats().Injected == total
	})
}

func BenchmarkSendBatchEncode(bench *testing.B) {
	for _, size := range []int{1, 64, 512} {
		bench.Run(fmt.Sprintf("batch%d", size), func(bench *testing.B) {
			tw, err := NewTupleWriter(discard{})
			if err != nil {
				bench.Fatal(err)
			}
			batch := make([]Tuple, size)
			bench.ReportAllocs()
			bench.ResetTimer()
			for i := 0; i < bench.N; i++ {
				if err := tw.SendBatch(batch); err != nil {
					bench.Fatal(err)
				}
			}
		})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
