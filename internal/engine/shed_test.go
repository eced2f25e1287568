package engine

import (
	"testing"
	"time"

	"rodsp/internal/obs"
)

// startShedNode builds a started node with a tiny ingress bound, one local
// consumer on stream 1, and a worker pinned by a virtual-CPU stall so the
// queue fills deterministically.
func startShedNode(t *testing.T, ingressCap int, policy ShedPolicy, stallSec float64) (*Node, *obs.EventLog) {
	t.Helper()
	n, err := NewNodeConfig("127.0.0.1:0", 1, NodeConfig{
		IngressCap: ingressCap,
		ShedPolicy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	ev := obs.NewEventLog(0)
	n.SetObserver(ev, nil, 0)
	err = n.deploy(&NodeSpec{
		NodeID:   0,
		Capacity: 1,
		Ops:      []OpSpec{{ID: 0, Kind: "delay", Cost: 0.001, Selectivity: 0, Inputs: []int{1}, Out: 2}},
		Routes:   map[int][]Dest{1: {{Local: true, LocalOp: 0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp := n.handleControl(&controlRequest{Cmd: "start"}); !resp.OK {
		t.Fatalf("start: %s", resp.Err)
	}
	n.stall(stallSec)
	// The stall rides lane 0's queue; wait until the worker has dequeued it
	// (and is busy sleeping) instead of pausing a fixed 20ms.
	waitUntil(t, time.Second, "stall dequeued", func() bool {
		return len(queueSeqs(n)) == 0
	})
	return n, ev
}

// queueSeqs snapshots the Seq values currently queued, lane by lane (the
// shed tests run single-lane, so lane order is irrelevant).
func queueSeqs(n *Node) []int64 {
	var out []int64
	for _, l := range n.lanes {
		l.mu.Lock()
		for _, t := range l.queue[l.qhead:] {
			out = append(out, t.Seq)
		}
		l.mu.Unlock()
	}
	return out
}

// Drop-newest: arrivals beyond the bound are rejected, the oldest admitted
// tuples survive, and the episode is bracketed by shed_onset/shed_clear.
func TestShedDropNewest(t *testing.T) {
	n, ev := startShedNode(t, 4, DropNewest, 0.3)
	for i := 0; i < 10; i++ {
		n.enqueueInboundBatch([]Tuple{{Stream: 1, Seq: int64(i)}})
	}
	if got := queueSeqs(n); len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Fatalf("drop-newest queue = %v, want [0 1 2 3]", got)
	}
	st := n.Stats()
	if st.Shed != 6 {
		t.Fatalf("shed = %d, want 6", st.Shed)
	}
	if st.ShedByStream[1] != 6 {
		t.Fatalf("shedByStream = %v, want {1: 6}", st.ShedByStream)
	}
	if st.Injected != 10 {
		t.Fatalf("injected = %d, want 10", st.Injected)
	}
	if ev.Count(obs.EventShedOnset) != 1 {
		t.Fatalf("shed_onset events = %d, want 1", ev.Count(obs.EventShedOnset))
	}
	// Once the stall ends the worker drains the backlog and declares the
	// episode over at half the cap.
	waitUntil(t, 2*time.Second, "shed_clear", func() bool {
		return ev.Count(obs.EventShedClear) == 1
	})
}

// Drop-oldest: the head is evicted to admit each arrival, so the newest
// tuples survive and the evicted ones are counted against their stream.
func TestShedDropOldest(t *testing.T) {
	n, ev := startShedNode(t, 4, DropOldest, 0.3)
	for i := 0; i < 10; i++ {
		n.enqueueInboundBatch([]Tuple{{Stream: 1, Seq: int64(i)}})
	}
	if got := queueSeqs(n); len(got) != 4 || got[0] != 6 || got[3] != 9 {
		t.Fatalf("drop-oldest queue = %v, want [6 7 8 9]", got)
	}
	st := n.Stats()
	if st.Shed != 6 {
		t.Fatalf("shed = %d, want 6", st.Shed)
	}
	if st.ShedByStream[1] != 6 {
		t.Fatalf("shedByStream = %v, want {1: 6}", st.ShedByStream)
	}
	if ev.Count(obs.EventShedOnset) != 1 {
		t.Fatalf("shed_onset events = %d, want 1", ev.Count(obs.EventShedOnset))
	}
	waitUntil(t, 2*time.Second, "shed_clear", func() bool {
		return ev.Count(obs.EventShedClear) == 1
	})
}

func TestParseShedPolicy(t *testing.T) {
	if p, err := ParseShedPolicy(""); err != nil || p != DropNewest {
		t.Fatalf("empty: %v %v", p, err)
	}
	if p, err := ParseShedPolicy("drop-oldest"); err != nil || p != DropOldest {
		t.Fatalf("drop-oldest: %v %v", p, err)
	}
	if _, err := ParseShedPolicy("lifo"); err == nil {
		t.Fatal("unknown policy must error")
	}
	if DropNewest.String() != "drop-newest" || DropOldest.String() != "drop-oldest" {
		t.Fatal("String() mismatch")
	}
}
