package engine

import (
	"bytes"
	"math"
	"testing"
	"time"

	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/trace"
)

// Frames round-trip flags and trace timestamps exactly, and a mixed batch
// (any flagged tuple) carries the trace field for the whole frame without
// corrupting untraced members.
func TestTracedWireRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 63, 256} {
		var buf bytes.Buffer
		tw, err := NewTupleWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		in := make([]Tuple, n)
		for i := range in {
			in[i] = Tuple{Stream: int32(i % 5), Ts: int64(i) * 100, Seq: int64(i), Value: float64(i) / 3}
			if i%3 == 0 {
				in[i].Flags = TupleTraced
				in[i].TraceTs = int64(i)*100 + 7
			}
		}
		if err := tw.SendBatch(in); err != nil {
			t.Fatal(err)
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
		if want := 1 + frameHeaderSize + n*(tupleFrameSize+traceFieldSize); buf.Len() != want {
			t.Fatalf("n=%d: frame used %d bytes, want %d", n, buf.Len(), want)
		}
		if fields := buf.Bytes()[2]; fields != fieldTrace {
			t.Fatalf("n=%d: field mask 0x%02x, want fieldTrace", n, fields)
		}
		tr := NewTupleReader(bytes.NewReader(buf.Bytes()[1:])) // skip preamble
		var out []Tuple
		for len(out) < n {
			batch, err := tr.ReadBatch()
			if err != nil {
				t.Fatalf("n=%d: ReadBatch after %d tuples: %v", n, len(out), err)
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

// A fully untraced batch must NOT pay the 9-byte-per-tuple trace overhead.
func TestUntracedBatchStaysPlain(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTupleWriter(&buf)
	if err := tw.SendBatch(make([]Tuple, 16)); err != nil {
		t.Fatal(err)
	}
	tw.Flush() //nolint:errcheck
	if want := 1 + frameHeaderSize + 16*tupleFrameSize; buf.Len() != want {
		t.Fatalf("untraced batch used %d bytes, want %d", buf.Len(), want)
	}
}

// Plain and traced frames interleaved on one connection all decode in
// order, with trace context surviving exactly where it was sent.
func TestMixedTracedWire(t *testing.T) {
	var buf bytes.Buffer
	tw, _ := NewTupleWriter(&buf)
	plain := []Tuple{{Stream: 2, Seq: 2}, {Stream: 2, Seq: 3}}
	traced := []Tuple{
		{Stream: 3, Seq: 4, Flags: TupleTraced, TraceTs: 99},
		{Stream: 3, Seq: 5},
	}
	if err := tw.SendBatch(plain); err != nil {
		t.Fatal(err)
	}
	if err := tw.SendBatch(traced); err != nil {
		t.Fatal(err)
	}
	if err := tw.SendBatch(plain[:1]); err != nil {
		t.Fatal(err)
	}
	tw.Flush() //nolint:errcheck

	tr := NewTupleReader(bytes.NewReader(buf.Bytes()[1:]))
	var out []Tuple
	for len(out) < 5 {
		batch, err := tr.ReadBatch()
		if err != nil {
			t.Fatalf("ReadBatch after %d tuples: %v", len(out), err)
		}
		out = append(out, batch...)
	}
	want := []Tuple{plain[0], plain[1], traced[0], traced[1], plain[0]}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("tuple %d = %+v, want %+v", i, out[i], want[i])
		}
	}
}

// tracePick samples every stream at exactly 1-in-every with a per-stream
// phase: the offsets spread across the stride instead of all landing on
// residue zero (the old Seq%every==0 rule never sampled streams whose seqs
// miss that residue, and oversampled seq 0 of every stream).
func TestTracePickPerStreamOffsets(t *testing.T) {
	const every = 64
	const streams = 32
	offsets := map[int64]bool{}
	zeroOffset := 0
	for stream := int32(0); stream < streams; stream++ {
		var picked []int64
		for seq := int64(0); seq < every*4; seq++ {
			if tracePick(every, Tuple{Stream: stream, Seq: seq}) {
				picked = append(picked, seq)
			}
		}
		if len(picked) != 4 {
			t.Fatalf("stream %d: %d picks in 4 strides, want 4", stream, len(picked))
		}
		off := picked[0]
		if off < 0 || off >= every {
			t.Fatalf("stream %d: offset %d outside stride", stream, off)
		}
		for i, s := range picked {
			if s != off+int64(i)*every {
				t.Fatalf("stream %d: picks %v not one per stride", stream, picked)
			}
		}
		offsets[off] = true
		if off == 0 {
			zeroOffset++
		}
	}
	if len(offsets) < 8 {
		t.Fatalf("only %d distinct offsets across %d streams; phases not rotating", len(offsets), streams)
	}
	if zeroOffset == streams {
		t.Fatal("every stream sampled at offset 0 — the bias tracePick exists to fix")
	}
	// Disabled sampling and reserved stream ids never pick.
	if tracePick(0, Tuple{}) || tracePick(-1, Tuple{Seq: 0}) {
		t.Fatal("every<=0 must disable sampling")
	}
	if tracePick(1, Tuple{Stream: stallStream}) {
		t.Fatal("negative (reserved) streams must not be sampled")
	}
}

// End-to-end trace on a real 2-node pipeline at full sampling: the per-stage
// histograms must telescope to the sink latency histogram, and at least one
// tuple must correlate source→ingress→worker→outbox→…→sink with monotone
// hop times.
func TestStageTelescoping(t *testing.T) {
	g := pipeline(t, 0, 0)
	plan, _ := placement.NewPlan([]int{0, 1}, 2)
	caps := []float64{1, 1}
	cl, err := StartCluster(caps)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	stages := obs.NewStageSet(reg)
	sinkHist := reg.Histogram(obs.MetricSinkLatency, nil)
	ev := obs.NewEventLog(1 << 14)
	for _, nd := range cl.Nodes {
		nd.SetObserver(ev, stages, 1) // sample every tuple
	}
	cl.Collector.SetObserver(sinkHist, nil, stages, ev, 1)

	src := &SourceDriver{
		Stream:     g.Inputs()[0],
		Trace:      trace.New("const", 1, []float64{200}),
		Addrs:      []string{cl.Nodes[0].Addr()},
		TraceEvery: 1,
	}
	injected, err := src.Run(900*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.AwaitQuiescence(5*time.Second, 50*time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Give the collector's final batch a beat to land in the histograms.
	waitUntil(t, 2*time.Second, "all tuples delivered", func() bool {
		return sinkHist.Count() >= injected
	})

	// Telescoping: with every tuple sampled and nothing shed, total stage
	// seconds equal total sink latency seconds (each tuple's stages sum to
	// its own latency by construction; tolerance covers float accumulation).
	stageSum := stages.SumSeconds()
	sinkSum := sinkHist.Sum()
	if sinkSum <= 0 {
		t.Fatalf("sink histogram empty (injected %d)", injected)
	}
	if diff := math.Abs(stageSum - sinkSum); diff > 0.01*sinkSum+0.002 {
		t.Fatalf("stage sum %.6fs vs sink sum %.6fs (diff %.6fs): stages do not telescope",
			stageSum, sinkSum, diff)
	}
	// Every stage on the 2-hop path must have observations.
	for _, st := range []int{obs.StageTransit, obs.StageQueue, obs.StageService, obs.StageOutbox, obs.StageDeliver} {
		if stages.Count(st) == 0 {
			t.Fatalf("stage %s recorded no crossings", obs.StageName(st))
		}
	}

	// Correlation: pick a sink span and walk its tuple's hops in emission
	// order — the trace must cross both nodes and end at the sink with
	// non-decreasing wall offsets. The origin timestamp is the key: each
	// node numbers the stream it produces, so seq changes hop by hop.
	events := ev.Events()
	var key struct {
		ts    int64
		found bool
	}
	for _, e := range events {
		if e.Type == obs.EventSpan && e.Fields["stage"] == "sink" {
			key.ts = asInt64(e.Fields["ts"])
			key.found = true
			break
		}
	}
	if !key.found {
		t.Fatal("no sink span emitted")
	}
	var stagesSeen []string
	lastT := -1.0
	for _, e := range events {
		if e.Type != obs.EventSpan || asInt64(e.Fields["ts"]) != key.ts {
			continue
		}
		if e.T < lastT {
			t.Fatalf("hop %s at t=%.6f precedes previous hop at t=%.6f", e.Fields["stage"], e.T, lastT)
		}
		lastT = e.T
		stagesSeen = append(stagesSeen, e.Fields["stage"].(string))
	}
	counts := map[string]int{}
	for _, s := range stagesSeen {
		counts[s]++
	}
	// Two TCP hops (node0→node1, node1→collector): ingress and process on
	// both nodes, at least one outbox crossing, exactly one sink arrival.
	if counts["ingress"] < 2 || counts["process"] < 2 || counts["outbox"] < 1 || counts["sink"] != 1 {
		t.Fatalf("trace not fully correlated: hops %v", stagesSeen)
	}
	if stagesSeen[0] != "ingress" || stagesSeen[len(stagesSeen)-1] != "sink" {
		t.Fatalf("trace must start at ingress and end at sink: %v", stagesSeen)
	}
}

// asInt64 reads an event field recorded as any integer type.
func asInt64(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case float64:
		return int64(x)
	}
	return math.MinInt64
}

// With tracing armed but a batch containing no sampled tuple, the ingress
// path must not allocate: the trace branch costs a hash and a compare, not
// a span.
func TestUnsampledIngressAllocsZero(t *testing.T) {
	n, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.SetObserver(obs.NewEventLog(0), obs.NewStageSet(obs.NewRegistry()), 1<<30)

	batch := make([]Tuple, 64)
	seq := int64(1)
	for i := range batch {
		for tracePick(1<<30, Tuple{Stream: 9, Seq: seq}) {
			seq++
		}
		batch[i] = Tuple{Stream: 9, Seq: seq}
		seq++
	}
	// Warm-up latches the once-per-stream no-route warning (the batch has
	// no consumer, so tuples exit before the queue — keeping the worker
	// out of the allocation measurement).
	n.enqueueInboundBatch(batch)
	avg := testing.AllocsPerRun(200, func() {
		n.enqueueInboundBatch(batch)
	})
	if avg != 0 {
		t.Fatalf("unsampled ingress allocates %.1f per batch, want 0", avg)
	}
}

// BenchmarkIngressTraceArmed measures the per-batch ingress cost with trace
// capture compiled in and armed at the default sampling rate but no tuple
// sampled — the overhead every unsampled batch pays.
func BenchmarkIngressTraceArmed(b *testing.B) {
	for _, every := range []int64{0, 8192} {
		name := "off"
		if every > 0 {
			name = "armed"
		}
		b.Run(name, func(b *testing.B) {
			n, err := NewNode("127.0.0.1:0", 1)
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			n.SetObserver(obs.NewEventLog(0), obs.NewStageSet(obs.NewRegistry()), every)
			batch := make([]Tuple, 64)
			seq := int64(1)
			for i := range batch {
				for every > 0 && tracePick(every, Tuple{Stream: 9, Seq: seq}) {
					seq++
				}
				batch[i] = Tuple{Stream: 9, Seq: seq}
				seq++
			}
			n.enqueueInboundBatch(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.enqueueInboundBatch(batch)
			}
		})
	}
}
