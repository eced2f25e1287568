package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"maps"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/trace"
	"rodsp/internal/wal"
)

// TestDedupWatermarkFirstTuple pins the "seq 0" regression: sources number
// tuples from zero, so a missing watermark entry must admit seq 0 — the
// map's zero value cannot double as "already seen". The very first tuple
// of every stream was silently dropped as a duplicate before this was an
// existence check.
func TestDedupWatermarkFirstTuple(t *testing.T) {
	n, err := NewNodeConfig("127.0.0.1:0", 1, NodeConfig{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	var a admission
	first := []Tuple{{Stream: 7, Seq: 0}, {Stream: 7, Seq: 1}}
	keep := n.dedupFilter(first, &a)
	if len(keep) != 2 {
		t.Fatalf("fresh stream: kept %d of 2 (seq 0 must pass an empty watermark)", len(keep))
	}
	n.advanceMarks(a.pending)

	// Re-sent retained batch: both now behind the watermark.
	keep = n.dedupFilter(first, &a)
	if len(keep) != 0 {
		t.Fatalf("re-send: kept %d, want 0", len(keep))
	}
	if got := n.dedupDropped.Load(); got != 2 {
		t.Fatalf("dedupDropped = %d, want 2", got)
	}

	// Progress resumes past the mark, and an unrelated stream starts fresh
	// at seq 0 too.
	keep = n.dedupFilter([]Tuple{{Stream: 7, Seq: 2}, {Stream: 9, Seq: 0}}, &a)
	if len(keep) != 2 {
		t.Fatalf("progress + fresh stream: kept %d of 2", len(keep))
	}
	n.advanceMarks(a.pending)

	// A fresh stream whose seq 0 sits in the middle of its run: the run's
	// first tuple must not stand in for a watermark the stream lacks.
	keep = n.dedupFilter([]Tuple{{Stream: 7, Seq: 3}, {Stream: 11, Seq: 2}, {Stream: 11, Seq: 0}, {Stream: 11, Seq: 1}}, &a)
	if len(keep) != 4 {
		t.Fatalf("seq 0 mid-run of a fresh stream: kept %d of 4", len(keep))
	}
	n.advanceMarks(a.pending)
	if mk := n.dedup[11]; mk != 2 {
		t.Fatalf("stream 11 watermark %d, want 2", mk)
	}
}

// ---- the per-run dedup rules against per-tuple references ----
//
// The node decides its two dedup rules once per run of one stream; the
// references below decide them once per tuple, exactly as the rules are
// stated (durable.go). They live here, not in the package, so they cannot
// drift along with the code.

// refIngress is the per-tuple ingress rule: every tuple of a frame is
// compared against the marks as they stood when the frame arrived, then
// the marks advance over the kept tuples one by one.
type refIngress struct {
	marks   map[int32]int64
	dropped int64
}

func (r *refIngress) admit(frame []Tuple) (keep []Tuple) {
	for _, tp := range frame {
		if mk, seen := r.marks[tp.Stream]; !seen || tp.Seq > mk {
			keep = append(keep, tp)
		} else {
			r.dropped++
		}
	}
	for _, tp := range keep {
		refAdvance(r.marks, tp)
	}
	return keep
}

// refAdvance advances one stream's mark over one tuple (ingress after the
// commit, and replay).
func refAdvance(marks map[int32]int64, tp Tuple) {
	if mk, seen := marks[tp.Stream]; !seen || tp.Seq > mk {
		marks[tp.Stream] = tp.Seq
	}
}

// dedupFrames builds n frames with every shape a per-run rule could get
// wrong: interleaved streams and runs of one stream that recur inside a
// frame, streams that first appear (at seq 0) partway through, re-sent
// stretches of earlier traffic overlapping new tuples, and neighbours of
// one run swapped so seqs fall back inside it.
func dedupFrames(rng *rand.Rand, n int) [][]Tuple {
	next := map[int32]int64{}
	var sent []Tuple
	frames := make([][]Tuple, 0, n)
	for len(frames) < n {
		var f []Tuple
		if len(sent) > 0 && rng.Intn(3) == 0 {
			from := rng.Intn(len(sent))
			f = append(f, sent[from:min(len(sent), from+1+rng.Intn(40))]...)
		}
		streams := 2 + len(frames)/10 // a new stream joins every 10 frames
		for runs := 1 + rng.Intn(6); runs > 0; runs-- {
			sid := int32(1 + rng.Intn(streams))
			for k := 1 + rng.Intn(8); k > 0; k-- {
				f = append(f, Tuple{Stream: sid, Seq: next[sid], Ts: int64(rng.Intn(1e9)), Value: float64(next[sid])})
				next[sid]++
			}
		}
		if rng.Intn(3) == 0 {
			if i := 1 + rng.Intn(len(f)); i < len(f) && f[i].Stream == f[i-1].Stream {
				f[i], f[i-1] = f[i-1], f[i]
			}
		}
		sent = append(sent, f...)
		frames = append(frames, f)
	}
	return frames
}

func sameTuples(a, b []Tuple) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func TestDedupRunsMatchPerTupleReference(t *testing.T) {
	frames := dedupFrames(rand.New(rand.NewSource(11)), 400)

	// Ingress: filter, then advance once the frame would be durable.
	n, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ref := &refIngress{marks: map[int32]int64{}}
	var a admission
	var partial, whole int
	for i, f := range frames {
		in := append([]Tuple(nil), f...)
		got := n.dedupFilter(in, &a)
		want := ref.admit(f)
		if !sameTuples(got, want) {
			t.Fatalf("frame %d: ingress kept %v, per-tuple rule %v", i, got, want)
		}
		switch {
		case len(want) == len(f):
			whole++
			if &got[0] != &in[0] {
				t.Fatalf("frame %d: nothing filtered, but the frame was copied", i)
			}
		case len(want) > 0:
			partial++
		}
		n.advanceMarks(a.pending)
		if !reflect.DeepEqual(n.dedup, ref.marks) {
			t.Fatalf("frame %d: marks %v, per-tuple rule %v", i, n.dedup, ref.marks)
		}
		if got := n.dedupDropped.Load(); got != ref.dropped {
			t.Fatalf("frame %d: dedupDropped %d, per-tuple rule %d", i, got, ref.dropped)
		}
	}
	if partial < 10 || whole < 10 || ref.dropped < 100 {
		t.Fatalf("scenario too tame: %d partly and %d wholly kept frames, %d dropped", partial, whole, ref.dropped)
	}

	// Replay: records of three frames each, logged as received.
	r, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	replayMarks := map[int32]int64{}
	for i := 0; i < len(frames); i += 3 {
		rec := []byte{walRecordTuples}
		for j, f := range frames[i:min(len(frames), i+3)] {
			rec = appendSeqFrame(rec, f, uint64(i+j+1))
			for _, tp := range f {
				refAdvance(replayMarks, tp)
			}
		}
		if err := r.replayRecord(rec); err != nil {
			t.Fatalf("record at frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(r.dedup, replayMarks) {
			t.Fatalf("record at frame %d: replayed marks %v, per-tuple rule %v", i, r.dedup, replayMarks)
		}
	}

	// Sink: the running rule, batch by batch against tuple by tuple.
	c, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDedup(true)
	sink := &refSink{cap: DefaultLatencyReservoir, rng: rand.New(rand.NewSource(1)), marks: map[int32]int64{}}
	for i, f := range frames {
		var want []Tuple
		for _, tp := range f {
			if sink.add(tp, 0) {
				want = append(want, tp)
			}
		}
		if got := c.recordBatch(append([]Tuple(nil), f...), 0); !sameTuples(got, want) {
			t.Fatalf("frame %d: sink admitted %v, per-tuple rule %v", i, got, want)
		}
		c.mu.Lock()
		marks := maps.Clone(c.sinkMarks)
		c.mu.Unlock()
		if !reflect.DeepEqual(marks, sink.marks) {
			t.Fatalf("frame %d: sink marks %v, per-tuple rule %v", i, marks, sink.marks)
		}
		if c.Duplicates() != sink.dups {
			t.Fatalf("frame %d: %d duplicates, per-tuple rule %d", i, c.Duplicates(), sink.dups)
		}
	}
	if count, _, _, _, _ := c.LatencyStats(); count != sink.count || sink.dups < 100 {
		t.Fatalf("sink count %d, per-tuple rule %d (%d duplicates)", count, sink.count, sink.dups)
	}
}

// Reset starts a new statistics window; it must not forget which tuples
// were delivered, or a re-send arriving after it counts as fresh.
func TestCollectorResetKeepsDedupMarks(t *testing.T) {
	c, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDedup(true)
	c.recordBatch(seqRun(1, 0, 10), 0)
	c.Reset()
	c.recordBatch([]Tuple{{Stream: 1, Seq: 5}}, 0)
	if count, _, _, _, _ := c.LatencyStats(); c.Duplicates() != 1 || count != 0 {
		t.Fatalf("after Reset, re-sent seq 5: %d duplicates, count %d; want 1 and 0", c.Duplicates(), count)
	}
	c.SetDedup(true) // SetDedup, not Reset, clears the marks
	c.recordBatch([]Tuple{{Stream: 1, Seq: 5}}, 0)
	if count, _, _, _, _ := c.LatencyStats(); c.Duplicates() != 0 || count != 1 {
		t.Fatalf("after SetDedup, seq 5: %d duplicates, count %d; want 0 and 1", c.Duplicates(), count)
	}
}

// A record logged from a received sequenced frame — tag byte, then the
// frame as received, sequence field included — replays to exactly the
// tuples of the re-encoded record the survivors path writes, for every
// record shape.
func TestWALRecordAsReceivedReplays(t *testing.T) {
	base := seqRun(3, 40, 9)
	for _, shape := range []struct {
		name  string
		stamp func(i int, tp *Tuple)
	}{
		{"plain", func(int, *Tuple) {}},
		{"traced", func(i int, tp *Tuple) {
			if i%3 == 0 {
				tp.Flags, tp.TraceTs = TupleTraced, int64(1e9+i)
			}
		}},
		{"keyed", func(i int, tp *Tuple) { tp.Key = uint64(i)*0x9E3779B97F4A7C15 | 1 }},
		{"traced+keyed", func(i int, tp *Tuple) {
			tp.Flags, tp.TraceTs, tp.Key = TupleTraced, int64(i+1), uint64(i+7)
		}},
	} {
		ts := append([]Tuple(nil), base...)
		for i := range ts {
			ts[i].Value, ts[i].Ts = float64(i)/3, int64(1e12+i)
			shape.stamp(i, &ts[i])
		}
		tr := NewTupleReader(bytes.NewReader(appendSeqFrame(nil, ts, 77)))
		if _, err := tr.ReadBatch(); err != nil {
			t.Fatal(err)
		}
		received := append([]byte{walRecordTuples}, tr.Frame()...)
		reencoded := appendFrames([]byte{walRecordTuples}, ts)
		if len(received) != len(reencoded)+seqFieldSize {
			t.Fatalf("%s: record as received is %d bytes, re-encoded %d", shape.name, len(received), len(reencoded))
		}
		got, want := replayTuples(t, received), replayTuples(t, reencoded)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got, ts) {
			t.Fatalf("%s: as received replays to %v, re-encoded to %v, sent %v", shape.name, got, want, ts)
		}
		n, err := NewNode("127.0.0.1:0", 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.replayRecord(received); err != nil || n.replayed.Load() != int64(len(ts)) || n.dedup[3] != 48 {
			t.Fatalf("%s: replayRecord: err %v, replayed %d, mark %d", shape.name, err, n.replayed.Load(), n.dedup[3])
		}
		n.Close()
	}
}

// Replay admits whatever a record holds, unfiltered, so a frame with
// duplicates must be logged as its survivors only; a frame the filter kept
// whole is logged byte for byte as received.
func TestDurableRecordHoldsSurvivors(t *testing.T) {
	n, err := NewNodeConfig("127.0.0.1:0", 1, NodeConfig{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var a admission
	var frames [][]byte
	for _, f := range []struct {
		from int
		seq  uint64
	}{{0, 4}, {2, 8}} { // the second re-sends seqs 2 and 3
		frame := appendSeqFrame(nil, seqRun(1, f.from, 4), f.seq)
		tr := NewTupleReader(bytes.NewReader(frame))
		batch, err := tr.ReadBatch()
		if err != nil {
			t.Fatal(err)
		}
		if err := n.admitDurable(batch, tr.Frame(), &a); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
	}
	var recs [][]byte
	if err := n.wal.Replay(1, func(_ uint64, p []byte) error {
		recs = append(recs, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if !bytes.Equal(recs[0], append([]byte{walRecordTuples}, frames[0]...)) {
		t.Fatal("a wholly kept frame was not logged as received")
	}
	if got := replayTuples(t, recs[1]); !reflect.DeepEqual(got, seqRun(1, 4, 2)) {
		t.Fatalf("frame with duplicates logged as %v, want only its survivors (seqs 4, 5)", got)
	}
}

// replayTuples decodes a WAL data record the way replayRecord does.
func replayTuples(t *testing.T, rec []byte) []Tuple {
	t.Helper()
	var out []Tuple
	tr := NewTupleReader(bytes.NewReader(rec[1:]))
	for {
		batch, err := tr.ReadBatch()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, batch...)
	}
}

// durableConn opens a tuple connection with a durable sender's hello to a
// WAL-armed node with nothing deployed (admitted tuples have no route;
// only the acks matter here).
func durableConn(t *testing.T) net.Conn {
	t.Helper()
	n, err := NewNodeConfig("127.0.0.1:0", 1, NodeConfig{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	conn, err := net.DialTimeout("tcp", n.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if _, err := conn.Write(appendHello([]byte{connTuples}, 1, "ack-cadence")); err != nil {
		t.Fatal(err)
	}
	return conn
}

// seqFrames encodes k sequenced frames of per tuples each; frame i carries
// sequence (i+1)·per, as an outbox would number them.
func seqFrames(k, per int) [][]byte {
	out := make([][]byte, k)
	for i := range out {
		out[i] = appendSeqFrame(nil, seqRun(1, i*per, per), uint64((i+1)*per))
	}
	return out
}

// Acks are cumulative, so a burst of frames that arrives together — written
// by hand, or gathered by one outbox ship — is acked fewer times than it
// has frames, ending with its last sequence; frames sent one at a time are
// acked one at a time; and a frame is never left unacked while the rest of
// the next one has not arrived.
func TestDurableAckCadence(t *testing.T) {
	const k, per = 8, 64
	t.Run("burst", func(t *testing.T) {
		conn := durableConn(t)
		if _, err := conn.Write(bytes.Join(seqFrames(k, per), nil)); err != nil {
			t.Fatal(err)
		}
		var acks []uint64
		for len(acks) == 0 || acks[len(acks)-1] != k*per {
			ack, err := readAck(conn)
			if err != nil {
				t.Fatalf("after acks %v: %v", acks, err)
			}
			if len(acks) > 0 && ack <= acks[len(acks)-1] || ack%per != 0 || ack > k*per {
				t.Fatalf("ack %d after %v", ack, acks)
			}
			acks = append(acks, ack)
		}
		if len(acks) >= k {
			t.Fatalf("%d frames in one write got %d acks %v, want fewer", k, len(acks), acks)
		}
	})
	t.Run("ship", func(t *testing.T) {
		// The outbox gathers every ready frame into one write: three frames
		// (512, 512, 76 tuples) from one ship get fewer than three acks,
		// the last for the last frame's sequence.
		conn := durableConn(t)
		o, _ := shipper(t, 2*outboxBatchMax+76, true)
		o.enqueueBatch(seqRun(1, 0, 2*outboxBatchMax+76))
		if got, err := o.ship(conn); got != 2*outboxBatchMax+76 || err != nil {
			t.Fatalf("shipped %d tuples (%v)", got, err)
		}
		var acks []uint64
		for len(acks) == 0 || acks[len(acks)-1] != o.shipped {
			ack, err := readAck(conn)
			if err != nil {
				t.Fatalf("after acks %v: %v", acks, err)
			}
			if ack != outboxBatchMax && ack != 2*outboxBatchMax && ack != o.shipped ||
				len(acks) > 0 && ack <= acks[len(acks)-1] {
				t.Fatalf("ack %d after %v", ack, acks)
			}
			acks = append(acks, ack)
		}
		if len(acks) >= 3 {
			t.Fatalf("three frames in one ship got %d acks %v, want fewer", len(acks), acks)
		}
	})
	t.Run("idle", func(t *testing.T) {
		conn := durableConn(t)
		for i, f := range seqFrames(k, per) {
			if _, err := conn.Write(f); err != nil {
				t.Fatal(err)
			}
			if ack, err := readAck(conn); err != nil || ack != uint64((i+1)*per) {
				t.Fatalf("frame %d: ack %d (%v), want %d", i, ack, err, (i+1)*per)
			}
		}
	})
	t.Run("half", func(t *testing.T) {
		conn := durableConn(t)
		fs := seqFrames(2, per)
		cut := len(fs[1]) / 2
		if _, err := conn.Write(append(append([]byte(nil), fs[0]...), fs[1][:cut]...)); err != nil {
			t.Fatal(err)
		}
		if ack, err := readAck(conn); err != nil || ack != per {
			t.Fatalf("first frame with half the next behind it: ack %d (%v), want %d", ack, err, per)
		}
		if _, err := conn.Write(fs[1][cut:]); err != nil {
			t.Fatal(err)
		}
		if ack, err := readAck(conn); err != nil || ack != 2*per {
			t.Fatalf("second frame: ack %d (%v), want %d", ack, err, 2*per)
		}
	})
}

// TestDurableIngressMixedFrames drives one live tuple connection through
// every frame shape at once — hello, sequence-bearing durable batches, an
// unsequenced frame, a traced batch, and a duplicate re-send — and asserts
// the durability contract visible at the two ends: every sequenced
// batch is acked (after the group commit), the duplicate re-send is
// filtered by the watermarks yet still acked, and the sink sees each
// distinct tuple exactly once.
func TestDurableIngressMixedFrames(t *testing.T) {
	g := pipeline(t, 0.00001, 0.00001)
	plan, _ := placement.NewPlan([]int{0, 0}, 1)
	caps := []float64{1}
	cl, err := StartClusterConfig(caps, NodeConfig{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Collector.SetDedup(true)
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	in := int32(g.Inputs()[0])

	conn, err := net.DialTimeout("tcp", cl.Nodes[0].Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	if _, err := conn.Write([]byte{connTuples}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(appendHello(nil, 42, "test-sender")); err != nil {
		t.Fatal(err)
	}
	sendMarked := func(mark uint64, ts []Tuple) {
		t.Helper()
		if _, err := conn.Write(appendSeqFrame(nil, ts, mark)); err != nil {
			t.Fatal(err)
		}
		ack, err := readAck(conn)
		if err != nil {
			t.Fatalf("ack for mark %d: %v", mark, err)
		}
		if ack != mark {
			t.Fatalf("ack = %d, want %d", ack, mark)
		}
	}

	// Durable batch from seq 0 (the watermark regression path).
	sendMarked(1, []Tuple{{Stream: in, Seq: 0}, {Stream: in, Seq: 1}, {Stream: in, Seq: 2}})
	// Unsequenced frame on the same connection: volatile path, no ack.
	if _, err := conn.Write(appendFrames(nil, []Tuple{{Stream: in, Seq: 3}})); err != nil {
		t.Fatal(err)
	}
	// Traced durable batch.
	sendMarked(2, []Tuple{
		{Stream: in, Seq: 4, Flags: TupleTraced, TraceTs: time.Now().UnixNano()},
		{Stream: in, Seq: 5},
	})
	// Duplicate re-send of the first batch (a retained outbox replaying
	// after a reconnect): filtered, but still acked so the sender settles.
	sendMarked(3, []Tuple{{Stream: in, Seq: 0}, {Stream: in, Seq: 1}, {Stream: in, Seq: 2}})

	if err := cl.AwaitQuiescence(10*time.Second, 50*time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	delivered, _, _, _, _ := cl.Collector.LatencyStats()
	if delivered != 6 {
		t.Fatalf("delivered = %d, want 6 (seq 0..5 exactly once)", delivered)
	}
	if dups := cl.Collector.Duplicates(); dups != 0 {
		t.Fatalf("sink saw %d duplicates", dups)
	}
	sts, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !sts[0].WALActive {
		t.Fatal("node must report an active WAL")
	}
	if sts[0].DedupDropped != 3 {
		t.Fatalf("DedupDropped = %d, want 3 (the re-sent batch)", sts[0].DedupDropped)
	}
	if sts[0].WALRecords < 2 {
		t.Fatalf("WALRecords = %d, want >= 2", sts[0].WALRecords)
	}
}

// TestClusterKillRestartRecovers is the in-process kill-and-recover path:
// a three-node chain with the middle node durable-killed mid-stream, then
// restarted from its WAL directory by the coordinator. Everything injected
// must reach the sink exactly once — replay plus upstream re-send cover
// the crash window, the watermarks and the sink filter suppress the
// overlap.
func TestClusterKillRestartRecovers(t *testing.T) {
	qb := query.NewBuilder()
	in := qb.Input("I")
	s1 := qb.Delay("a", 0.00002, 1, in)
	s2 := qb.Delay("b", 0.00002, 1, s1)
	qb.Delay("c", 0.00002, 1, s2)
	g := qb.MustBuild()
	plan, _ := placement.NewPlan([]int{0, 1, 2}, 3)
	caps := []float64{1, 1, 1}
	cl, err := StartClusterConfig(caps, NodeConfig{
		WALDir:          t.TempDir(),
		CheckpointEvery: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Collector.SetDedup(true)
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}

	src := &SourceDriver{
		Stream:  g.Inputs()[0],
		Trace:   trace.New("const", 1, []float64{400, 400}),
		Addrs:   []string{cl.Nodes[0].Addr()},
		MaxRate: 5000,
	}
	done := make(chan int64, 1)
	go func() {
		n, _ := src.Run(900*time.Millisecond, nil)
		done <- n
	}()

	time.Sleep(300 * time.Millisecond)
	if err := cl.Controls[1].Fault(FaultSpec{Kill: true}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if err := cl.RestartNode(1); err != nil {
		t.Fatalf("restart: %v", err)
	}
	injected := <-done

	if err := cl.AwaitQuiescence(15*time.Second, 100*time.Millisecond); err != nil {
		t.Fatalf("recovery never drained: %v", err)
	}
	delivered, _, _, _, _ := cl.Collector.LatencyStats()
	if delivered != injected {
		t.Fatalf("delivered %d of %d injected across the crash", delivered, injected)
	}
	if dups := cl.Collector.Duplicates(); dups != 0 {
		t.Fatalf("sink saw %d duplicate deliveries", dups)
	}
	sts, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sts[1] == nil || !sts[1].Recovered {
		t.Fatalf("restarted node must report Recovered: %+v", sts[1])
	}
	for i, s := range sts {
		if s.Shed != 0 || s.OutboxDropped != 0 || s.DroppedNoRoute != 0 {
			t.Fatalf("node %d lost tuples: shed=%d dropped=%d noroute=%d",
				i, s.Shed, s.OutboxDropped, s.DroppedNoRoute)
		}
	}
}

// TestConcurrentReplaySameSenderNoDuplicates pins the reconnect-replay
// admission race: a sender that reconnects and replays retained batches
// while its OLD connection's goroutine is still mid-admission (between
// dedupFilter and advanceMarks, typically blocked in WaitCommitted) must
// not get the same batch admitted twice. Two live connections announcing
// the same hello identity hammer identical marked batches concurrently;
// the sink must see every distinct tuple exactly once.
func TestConcurrentReplaySameSenderNoDuplicates(t *testing.T) {
	g := pipeline(t, 0.00001, 0.00001)
	plan, _ := placement.NewPlan([]int{0, 0}, 1)
	caps := []float64{1}
	cl, err := StartClusterConfig(caps, NodeConfig{WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Collector.SetDedup(true)
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	in := int32(g.Inputs()[0])

	dial := func() net.Conn {
		t.Helper()
		conn, err := net.DialTimeout("tcp", cl.Nodes[0].Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(20 * time.Second)) //nolint:errcheck
		if _, err := conn.Write([]byte{connTuples}); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(appendHello(nil, 7, "same-sender")); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	connA, connB := dial(), dial()
	defer connA.Close()
	defer connB.Close()

	const batches, per = 40, 5
	sendMarked := func(conn net.Conn, mark uint64, ts []Tuple) error {
		if _, err := conn.Write(appendSeqFrame(nil, ts, mark)); err != nil {
			return err
		}
		_, err := readAck(conn)
		return err
	}
	var wg sync.WaitGroup
	for ci, conn := range []net.Conn{connA, connB} {
		wg.Add(1)
		go func(ci int, conn net.Conn) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				ts := make([]Tuple, per)
				for j := range ts {
					ts[j] = Tuple{Stream: in, Seq: int64(i*per + j)}
				}
				if err := sendMarked(conn, uint64(i+1), ts); err != nil {
					t.Errorf("conn %d batch %d: %v", ci, i, err)
					return
				}
			}
		}(ci, conn)
	}
	wg.Wait()

	if err := cl.AwaitQuiescence(15*time.Second, 50*time.Millisecond); err != nil {
		t.Fatalf("drain: %v", err)
	}
	delivered, _, _, _, _ := cl.Collector.LatencyStats()
	if delivered != batches*per {
		t.Fatalf("delivered = %d, want %d (each distinct tuple exactly once)", delivered, batches*per)
	}
	if dups := cl.Collector.Duplicates(); dups != 0 {
		t.Fatalf("sink saw %d duplicate deliveries", dups)
	}
}

// TestDeployRefreshesOutboxDurability pins the stale-mode gap: an outbox
// created before the spec named its peer durable must be recreated in the
// right mode when the spec lands (and back again when a redeploy drops the
// peer), instead of silently keeping the mode decided at creation.
func TestDeployRefreshesOutboxDurability(t *testing.T) {
	n, err := NewNodeConfig("127.0.0.1:0", 1, NodeConfig{
		WALDir:      t.TempDir(),
		BackoffBase: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	peer := deadAddr(t)

	peerOutbox := func() *outbox {
		n.peersMu.Lock()
		defer n.peersMu.Unlock()
		return n.peers[peer]
	}
	n.sendBatch(peer, []Tuple{{Stream: 1}}) // creates the outbox before any spec
	o := peerOutbox()
	if o == nil || o.durable {
		t.Fatalf("pre-deploy outbox must exist in volatile mode (got %+v)", o)
	}
	if err := n.deploy(&NodeSpec{DurablePeers: []string{peer}}); err != nil {
		t.Fatal(err)
	}
	n.sendBatch(peer, []Tuple{{Stream: 1}})
	o2 := peerOutbox()
	if o2 == nil || !o2.durable {
		t.Fatal("deploy naming the peer durable must recreate the outbox in durable mode")
	}
	if o2 == o {
		t.Fatal("stale volatile outbox survived the deploy")
	}
	// A redeploy that drops the peer reverts the link to volatile mode.
	if err := n.deploy(&NodeSpec{}); err != nil {
		t.Fatal(err)
	}
	n.sendBatch(peer, []Tuple{{Stream: 1}})
	if o3 := peerOutbox(); o3 == nil || o3.durable || o3 == o2 {
		t.Fatal("redeploy dropping the peer must recreate the outbox in volatile mode")
	}
}

// TestRestartNodeRejectsLiveExternal pins RestartNode's guard rails: only
// coordinator-owned nodes can be restarted in-process.
func TestRestartNodeRejectsLiveExternal(t *testing.T) {
	cl, err := StartCluster([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.RestartNode(5); err == nil {
		t.Fatal("out-of-range index must error")
	}
}

// walDirWith hand-builds a recoverable WAL directory: a manifest naming an
// empty spec plus one log record per payload.
func walDirWith(t *testing.T, payloads ...[]byte) string {
	t.Helper()
	dir := t.TempDir()
	m, err := json.Marshal(&durableManifest{Spec: &NodeSpec{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.WriteFileAtomic(filepath.Join(dir, manifestFile), m); err != nil {
		t.Fatal(err)
	}
	wl, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := wl.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := wl.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := wl.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestReplayRefusesUndecodableRecords pins "never ack what cannot be
// replayed" at recovery: every logged tuple was acked upstream, so a data
// record this binary cannot decode — one written by a pre-opTuples binary,
// or one cut short inside a frame — must stop the node from starting (WAL
// left in place) instead of being skipped. Records under a tag no binary
// ever wrote stay skipped.
func TestReplayRefusesUndecodableRecords(t *testing.T) {
	ts := []Tuple{{Stream: 1, Seq: 0}, {Stream: 1, Seq: 1}, {Stream: 1, Seq: 2}}
	good := appendFrames([]byte{walRecordTuples}, ts)
	// What the retired binary logged: tag 0x01, then its 0x81 batch frame.
	retired := append([]byte{walRecordRetired, 0x81, 0, 0, 0, 1}, make([]byte, tupleFrameSize)...)

	n, err := NewNodeConfig("127.0.0.1:0", 1, NodeConfig{WALDir: walDirWith(t, []byte{0x7f, 1, 2, 3}, good)})
	if err != nil {
		t.Fatalf("unknown tag + good record must recover: %v", err)
	}
	if got := n.Stats().Replayed; got != int64(len(ts)) {
		t.Errorf("replayed %d tuples, want %d", got, len(ts))
	}
	n.Close()

	for _, c := range []struct {
		name    string
		payload []byte
		names   string
		is      error
	}{
		{"retired tag", retired, "0x01", nil},
		{"retired frame under the live tag", append([]byte{walRecordTuples}, retired[1:]...), "0x81", errRetiredOpcode},
		{"truncated record", good[:len(good)-5], "0x02", io.ErrUnexpectedEOF},
	} {
		dir := walDirWith(t, good, c.payload)
		n, err := NewNodeConfig("127.0.0.1:0", 1, NodeConfig{WALDir: dir})
		if err == nil {
			n.Close()
			t.Errorf("%s: node started on a WAL it cannot replay", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.names) || (c.is != nil && !errors.Is(err, c.is)) {
			t.Errorf("%s: err = %v, want one naming %s", c.name, err, c.names)
		}
		if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) == 0 {
			t.Errorf("%s: WAL segments gone after the refused start", c.name)
		}
		if _, err := os.Stat(filepath.Join(dir, manifestFile)); err != nil {
			t.Errorf("%s: manifest gone after the refused start: %v", c.name, err)
		}
	}
}
