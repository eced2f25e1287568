package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
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

// TestDedupWatermarkFirstTuple pins the "seq 0" regression: every stream
// is numbered from zero, so a missing mark must admit seq 0 — the map's
// zero value cannot double as "already seen". The very first tuple of
// every stream was once silently dropped as a duplicate before this was an
// existence check.
func TestDedupWatermarkFirstTuple(t *testing.T) {
	m := seqMarks{}
	var a admission
	admit := func(batch ...Tuple) ([]Tuple, int64) {
		kept, dups := m.filter(batch, &a)
		m.advance(a.pending)
		return kept, dups
	}
	first := []Tuple{{Stream: 7, Seq: 0}, {Stream: 7, Seq: 1}}
	if keep, _ := admit(first...); len(keep) != 2 {
		t.Fatalf("fresh stream: kept %d of 2 (seq 0 must pass an empty mark)", len(keep))
	}

	// Re-sent retained batch: both now behind the mark.
	if keep, dups := admit(first...); len(keep) != 0 || dups != 2 {
		t.Fatalf("re-send: kept %d with %d duplicates, want 0 and 2", len(keep), dups)
	}

	// Progress resumes past the mark, and an unrelated stream starts fresh
	// at seq 0 too.
	if keep, _ := admit(Tuple{Stream: 7, Seq: 2}, Tuple{Stream: 9, Seq: 0}); len(keep) != 2 {
		t.Fatalf("progress + fresh stream: kept %d of 2", len(keep))
	}

	// A fresh stream whose seq 0 sits in the middle of the frame, and which
	// recurs after another stream's run: the frame's first tuple must not
	// stand in for a mark the stream lacks, and the recurrence is judged
	// against the mark its first run left.
	keep, dups := admit(Tuple{Stream: 7, Seq: 3}, Tuple{Stream: 11, Seq: 0}, Tuple{Stream: 7, Seq: 4},
		Tuple{Stream: 11, Seq: 1}, Tuple{Stream: 11, Seq: 1})
	if len(keep) != 4 || dups != 1 {
		t.Fatalf("seq 0 mid-frame of a fresh stream: kept %d of 5 with %d duplicates, want 4 and 1", len(keep), dups)
	}
	if m[markKey{stream: 11}] != 1 || m[markKey{stream: 7}] != 4 {
		t.Fatalf("marks %v, want 7→4 and 11→1", m)
	}

	// Copies of one tuple a relay addressed to two consumers, beside the
	// untargeted one, are three sequences: none is a duplicate of another,
	// and a re-sent copy is judged against its own consumer's mark.
	keep, dups = admit(Tuple{Stream: 7, Seq: 5}, Tuple{Stream: 7, Seq: 5, target: 3},
		Tuple{Stream: 7, Seq: 5, target: 4}, Tuple{Stream: 7, Seq: 5, target: 3})
	if len(keep) != 3 || dups != 1 || m[markKey{7, 3}] != 5 || m[markKey{7, 4}] != 5 {
		t.Fatalf("addressed copies: kept %d of 4 with %d duplicates (want 3 and 1), marks %v", len(keep), dups, m)
	}
}

// ---- the one dedup rule against a per-tuple reference ----
//
// The node and the collector decide the rule once per run of one stream;
// the reference decides it once per tuple, exactly as it is stated
// (durable.go): per (sender, stream, target), a tuple at or below the last
// admitted Seq is a duplicate, any other is admitted and becomes the mark.
// It lives here, not in the package, so it cannot drift along with the
// code.

type refKey struct {
	sender         string
	stream, target int32
}

// refAdmit applies the rule to one tuple from sender from.
func refAdmit(marks map[refKey]int64, from string, tp Tuple) bool {
	k := refKey{from, tp.Stream, tp.target}
	if mk, seen := marks[k]; seen && tp.Seq <= mk {
		return false
	}
	marks[k] = tp.Seq
	return true
}

// nodeMarks flattens a node's per-sender marks into the reference's shape.
func nodeMarks(n *Node) map[refKey]int64 {
	out := map[refKey]int64{}
	n.sendersMu.Lock()
	defer n.sendersMu.Unlock()
	for from, s := range n.senders {
		for k, seq := range s.marks {
			out[refKey{from, k.stream, k.target}] = seq
		}
	}
	return out
}

// dedupFrames builds n frames, each from one of three senders, with every
// shape a per-run rule could get wrong: interleaved streams (untargeted, or
// relayed copies addressed to one of two consumers) and runs of one
// stream that recur inside a frame, streams that first appear (at seq 0)
// partway through, re-sent stretches of the sender's earlier traffic
// overlapping new tuples, neighbours of one run swapped so seqs fall back
// inside it, and a frame's own stretch repeated at its end, so a stream's
// later run falls back below what its earlier run admitted.
func dedupFrames(rng *rand.Rand, n int) (senders []string, frames [][]Tuple) {
	next := map[refKey]int64{}
	sent := map[string][]Tuple{}
	for len(frames) < n {
		from := []string{"a:1", "b:2", ""}[rng.Intn(3)]
		var f []Tuple
		if old := sent[from]; len(old) > 0 && rng.Intn(3) == 0 {
			at := rng.Intn(len(old))
			f = append(f, old[at:min(len(old), at+1+rng.Intn(40))]...)
		}
		streams := 2 + len(frames)/10 // a new stream joins every 10 frames
		for runs := 1 + rng.Intn(6); runs > 0; runs-- {
			k := refKey{from, int32(1 + rng.Intn(streams)), []int32{0, 0, 3, 4}[rng.Intn(4)]}
			for c := 1 + rng.Intn(8); c > 0; c-- {
				f = append(f, Tuple{Stream: k.stream, Seq: next[k], Ts: int64(rng.Intn(1e9)), Value: float64(next[k]), target: k.target})
				next[k]++
			}
		}
		if rng.Intn(3) == 0 {
			if i := 1 + rng.Intn(len(f)); i < len(f) && f[i].Stream == f[i-1].Stream {
				f[i], f[i-1] = f[i-1], f[i]
			}
		}
		if rng.Intn(4) == 0 {
			at := rng.Intn(len(f))
			f = append(f, f[at:min(len(f), at+1+rng.Intn(12))]...)
		}
		sent[from] = append(sent[from], f...)
		senders, frames = append(senders, from), append(frames, f)
	}
	return senders, frames
}

func sameTuples(a, b []Tuple) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestDedupRunsMatchPerTupleReference holds the one rule, at each place it
// runs, against the per-tuple reference: durable ingress (filter, WAL
// record, commit, advance) frame by frame; replay of the records ingress
// logged, which must rebuild the same marks and drop nothing; and the sink,
// batch by batch.
func TestDedupRunsMatchPerTupleReference(t *testing.T) {
	senders, frames := dedupFrames(rand.New(rand.NewSource(11)), 400)

	// Ingress.
	n, err := NewNodeConfig("127.0.0.1:0", 1, NodeConfig{WALDir: t.TempDir(), CheckpointEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ref := map[refKey]int64{}
	var dropped, admitted int64
	var a admission
	var partial, whole int
	for i, f := range frames {
		var want []Tuple
		for _, tp := range f {
			if refAdmit(ref, senders[i], tp) {
				want = append(want, tp)
			} else {
				dropped++
			}
		}
		admitted += int64(len(want))
		from := n.senderOf(senders[i])
		got, _ := from.marks.filter(f, &a)
		if !sameTuples(got, want) {
			t.Fatalf("frame %d: ingress kept %v, per-tuple rule %v", i, got, want)
		}
		switch {
		case len(want) == len(f):
			whole++
			if &got[0] != &f[0] {
				t.Fatalf("frame %d: nothing filtered, but the frame was copied", i)
			}
		case len(want) > 0:
			partial++
		}
		from.mu.Lock()
		err := n.admitDurable(from, f, appendSeqFrame(nil, f, uint64(i+1)), &a)
		from.mu.Unlock()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := nodeMarks(n); !reflect.DeepEqual(got, ref) {
			t.Fatalf("frame %d: marks %v, per-tuple rule %v", i, got, ref)
		}
		if got := n.dedupDropped.Load(); got != dropped {
			t.Fatalf("frame %d: dedupDropped %d, per-tuple rule %d", i, got, dropped)
		}
	}
	if partial < 10 || whole < 10 || dropped < 100 {
		t.Fatalf("scenario too tame: %d partly and %d wholly kept frames, %d dropped", partial, whole, dropped)
	}

	// Replay of what ingress logged.
	r, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := n.wal.Replay(1, func(_ uint64, p []byte) error { return r.replayRecord(p) }); err != nil {
		t.Fatal(err)
	}
	if got := nodeMarks(r); !reflect.DeepEqual(got, ref) {
		t.Fatalf("replayed marks %v, per-tuple rule %v", got, ref)
	}
	if r.replayed.Load() != admitted || r.dedupDropped.Load() != 0 {
		t.Fatalf("replay re-admitted %d (dropped %d), ingress admitted %d", r.replayed.Load(), r.dedupDropped.Load(), admitted)
	}

	// Sink.
	c, err := NewCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDedup(true)
	sink := &refSink{cap: DefaultLatencyReservoir, rng: rand.New(rand.NewSource(1)), marks: map[refKey]int64{}}
	for i, f := range frames {
		var want []Tuple
		for _, tp := range f {
			if sink.add(senders[i], tp, 0) {
				want = append(want, tp)
			}
		}
		if got := c.recordBatch(append([]Tuple(nil), f...), senders[i], 0); !sameTuples(got, want) {
			t.Fatalf("frame %d: sink admitted %v, per-tuple rule %v", i, got, want)
		}
		c.mu.Lock()
		marks := map[refKey]int64{}
		for from, m := range c.marks {
			for k, seq := range m {
				marks[refKey{from, k.stream, k.target}] = seq
			}
		}
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
	c.recordBatch(seqRun(1, 0, 10), "n1", 0)
	c.Reset()
	c.recordBatch([]Tuple{{Stream: 1, Seq: 5}}, "n1", 0)
	if count, _, _, _, _ := c.LatencyStats(); c.Duplicates() != 1 || count != 0 {
		t.Fatalf("after Reset, re-sent seq 5: %d duplicates, count %d; want 1 and 0", c.Duplicates(), count)
	}
	c.SetDedup(true) // SetDedup, not Reset, clears the marks
	c.recordBatch([]Tuple{{Stream: 1, Seq: 5}}, "n1", 0)
	if count, _, _, _, _ := c.LatencyStats(); c.Duplicates() != 0 || count != 1 {
		t.Fatalf("after SetDedup, seq 5: %d duplicates, count %d; want 0 and 1", c.Duplicates(), count)
	}
}

// A record logged from a received sequenced frame — tag byte, then the
// frame as received, sequence field included — replays to exactly the
// tuples of the re-encoded record the survivors path writes, for every
// record shape, addressed ones included.
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
		{"targeted", func(i int, tp *Tuple) { tp.target = 1 }},
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
		head := recordHead("n1:1")
		received := append(head, tr.Frame()...)
		reencoded := appendFrames(recordHead("n1:1"), ts)
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
		if err := n.replayRecord(received); err != nil || n.replayed.Load() != int64(len(ts)) ||
			n.senderOf("n1:1").marks[markKey{3, ts[0].target}] != 48 {
			t.Fatalf("%s: replayRecord: err %v, replayed %d, marks %v", shape.name, err, n.replayed.Load(), nodeMarks(n))
		}
		n.Close()
	}

	// A relayed copy keeps its address through the log: replayed on a node
	// where two operators consume the stream, it reaches the one it names.
	n, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.deploy(&NodeSpec{
		Ops: []OpSpec{
			{ID: 0, Kind: "map", Selectivity: 1, Inputs: []int{3}, Out: 4},
			{ID: 1, Kind: "map", Selectivity: 1, Inputs: []int{3}, Out: 5},
		},
		Routes: map[int][]Dest{3: {{Local: true, LocalOp: 0}, {Local: true, LocalOp: 1}}},
	}); err != nil {
		t.Fatal(err)
	}
	ts := append([]Tuple(nil), base...)
	for i := range ts {
		ts[i].target = 2
	}
	tr := NewTupleReader(bytes.NewReader(appendSeqFrame(nil, ts, 78)))
	if _, err := tr.ReadBatch(); err != nil {
		t.Fatal(err)
	}
	if err := n.replayRecord(append(recordHead("n1:1"), tr.Frame()...)); err != nil {
		t.Fatal(err)
	}
	if err := n.AwaitDrained(2*time.Second, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if st := opStates(n); st[0].Processed != 0 || st[1].Processed != int64(len(ts)) {
		t.Fatalf("replayed copies addressed to op 1: op 0 processed %d, op 1 %d of %d", st[0].Processed, st[1].Processed, len(ts))
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
		if err := n.admitDurable(n.senderOf("n1:1"), batch, tr.Frame(), &a); err != nil {
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
	if !bytes.Equal(recs[0], append(recordHead("n1:1"), frames[0]...)) {
		t.Fatal("a wholly kept frame was not logged as received")
	}
	if got := replayTuples(t, recs[1]); !reflect.DeepEqual(got, seqRun(1, 4, 2)) {
		t.Fatalf("frame with duplicates logged as %v, want only its survivors (seqs 4, 5)", got)
	}
}

// recordHead is a tuple record's tag and sender, as admitDurable writes
// them.
func recordHead(from string) []byte {
	return appendHello([]byte{walRecordTuples}, 0, from)
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
		o.enqueueBatch(seqRun(1, 0, 2*outboxBatchMax+76), false)
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
// batch is acked (after the group commit on a node with a WAL, on
// admission on one without), the duplicate re-send is filtered by the
// sender's marks yet still acked, and the sink sees each distinct tuple
// exactly once.
func TestDurableIngressMixedFrames(t *testing.T) {
	for _, wal := range []bool{true, false} {
		name := "wal"
		if !wal {
			name = "no-wal"
		}
		t.Run(name, func(t *testing.T) { ingressMixedFrames(t, wal) })
	}
}

func ingressMixedFrames(t *testing.T, wal bool) {
	g := pipeline(t, 0.00001, 0.00001)
	plan, _ := placement.NewPlan([]int{0, 0}, 1)
	caps := []float64{1}
	var cfg NodeConfig
	if wal {
		cfg.WALDir = t.TempDir()
	}
	cl, err := StartClusterConfig(caps, cfg)
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
	if sts[0].WALActive != wal {
		t.Fatalf("WALActive = %v on a node with a WAL %v", sts[0].WALActive, wal)
	}
	if sts[0].DedupDropped != 3 {
		t.Fatalf("DedupDropped = %d, want 3 (the re-sent batch)", sts[0].DedupDropped)
	}
	if wal && sts[0].WALRecords < 2 {
		t.Fatalf("WALRecords = %d, want >= 2", sts[0].WALRecords)
	}
}

// TestClusterKillRestartRecovers is the in-process kill-and-recover path:
// a three-node durable chain with one node killed mid-stream, then
// restarted from its WAL directory by the coordinator.
//
//   - interior: the middle node. Everything injected must reach the sink
//     exactly once — replay plus upstream re-send cover the crash window,
//     the marks and the sink filter suppress the overlap.
//   - head: the node the source feeds. Its input link is volatile, so what
//     it held at the kill is lost with it (and the source, its only
//     destination gone, stops); a second source then feeds the restarted
//     node. Nothing it injects may be lost: the restarted head numbers its
//     outputs above what the next node has admitted from it, so none is
//     taken for a duplicate. Everything delivered was injected, once.
func TestClusterKillRestartRecovers(t *testing.T) {
	for _, victim := range []int{1, 0} {
		t.Run(map[int]string{0: "head", 1: "interior"}[victim], func(t *testing.T) {
			killRestart(t, victim)
		})
	}
}

func killRestart(t *testing.T, victim int) {
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
	tap := tapCollector(t, cl)
	cl.Collector.SetDedup(true)
	if err := cl.Deploy(g, plan, caps); err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}

	source := func(i int, d time.Duration) <-chan int64 {
		src := &SourceDriver{
			Stream:  g.Inputs()[0],
			Trace:   trace.New("const", 1, []float64{400, 400}),
			Addrs:   []string{cl.Nodes[0].Addr()},
			MaxRate: 5000,
			Keys:    sourceKeys(i),
		}
		done := make(chan int64, 1)
		go func() {
			n, _ := src.Run(d, nil)
			done <- n
		}()
		return done
	}
	done := source(0, 900*time.Millisecond)
	time.Sleep(300 * time.Millisecond)
	if err := cl.Controls[victim].Fault(FaultSpec{Kill: true}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if err := cl.RestartNode(victim); err != nil {
		t.Fatalf("restart: %v", err)
	}
	injected := <-done
	var after int64
	if victim == 0 {
		after = <-source(1, 300*time.Millisecond)
	}

	if err := cl.AwaitQuiescence(15*time.Second, 100*time.Millisecond); err != nil {
		t.Fatalf("recovery never drained: %v", err)
	}
	delivered, _, _, _, _ := cl.Collector.LatencyStats()
	distinct := tap.distinct()
	lost := int64(0)
	for k := uint64(1); k <= uint64(after); k++ {
		if tap.count(2<<32+k) != 1 {
			lost++
		}
	}
	switch {
	case victim == 0 && (after == 0 || lost != 0 || delivered > injected+after || distinct != delivered):
		t.Fatalf("delivered %d (%d distinct) of %d + %d injected across the crash; %d injected after the restart missing",
			delivered, distinct, injected, after, lost)
	case victim != 0 && (delivered != injected || distinct != injected):
		t.Fatalf("delivered %d (%d distinct) of %d injected across the crash", delivered, distinct, injected)
	}
	t.Logf("delivered %d of %d + %d injected", delivered, injected, after)
	if dups := cl.Collector.Duplicates(); dups != 0 {
		t.Fatalf("sink saw %d duplicate deliveries", dups)
	}
	sts, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if sts[victim] == nil || !sts[victim].Recovered {
		t.Fatalf("restarted node must report Recovered: %+v", sts[victim])
	}
	for i, s := range sts {
		if s.Shed != 0 || s.OutboxDropped != 0 || s.DroppedNoRoute != 0 {
			t.Fatalf("node %d lost tuples: shed=%d dropped=%d noroute=%d",
				i, s.Shed, s.OutboxDropped, s.DroppedNoRoute)
		}
		// Re-sends after an interior crash are duplicates by design; a
		// killed head re-sends nothing, so any drop is a real tuple.
		if victim == 0 && s.DedupDropped != 0 {
			t.Fatalf("node %d dropped %d outputs of the restarted head as duplicates", i, s.DedupDropped)
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
// record this binary cannot decode or attribute — one written by a
// pre-opTuples binary, one without its sender (the 0x02 layout), or one cut
// short inside a frame — and a checkpoint whose marks carry no sender must
// stop the node from starting (WAL left in place) instead of being skipped
// or misread. Records under a tag no binary ever wrote stay skipped.
func TestReplayRefusesUndecodableRecords(t *testing.T) {
	ts := []Tuple{{Stream: 1, Seq: 0}, {Stream: 1, Seq: 1}, {Stream: 1, Seq: 2}}
	good := appendFrames(recordHead("n1:1"), ts)
	// What the retired binaries logged: tag 0x01, then its 0x81 batch
	// frame; tag 0x02, then opTuples frames with no sender.
	retired := append([]byte{walRecordRetired, 0x81, 0, 0, 0, 1}, make([]byte, tupleFrameSize)...)
	noSender := appendFrames([]byte{walRecordNoSender}, ts)

	n, err := NewNodeConfig("127.0.0.1:0", 1, NodeConfig{WALDir: walDirWith(t, []byte{0x7f, 1, 2, 3}, good)})
	if err != nil {
		t.Fatalf("unknown tag + good record must recover: %v", err)
	}
	if got := n.Stats().Replayed; got != int64(len(ts)) {
		t.Errorf("replayed %d tuples, want %d", got, len(ts))
	}
	n.Close()

	for _, c := range []struct {
		name       string
		payload    []byte
		checkpoint string
		names      string
		is         error
	}{
		{"retired tag", retired, "", "0x01", nil},
		{"record without its sender", noSender, "", "0x02", nil},
		{"retired frame under the live tag", append(recordHead("n1:1"), retired[1:]...), "", "0x81", errRetiredOpcode},
		{"truncated record", good[:len(good)-5], "", "0x03", io.ErrUnexpectedEOF},
		{"checkpoint marks without senders", good, `{"walPos":0,"marks":[{"stream":1,"seq":2}]}`, "retired format", nil},
	} {
		dir := walDirWith(t, good, c.payload)
		if c.checkpoint != "" {
			if err := wal.WriteFileAtomic(filepath.Join(dir, checkpointFile), []byte(c.checkpoint)); err != nil {
				t.Fatal(err)
			}
		}
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

// A checkpoint keeps each sender's marks per (stream, target), and a
// restart from it restores them: an addressed copy re-sent after the
// restart is judged against its own consumer's mark, not the stream's.
func TestCheckpointKeepsAddressedMarks(t *testing.T) {
	dir := t.TempDir()
	cfg := NodeConfig{WALDir: dir, CheckpointEvery: time.Hour}
	n, err := NewNodeConfig("127.0.0.1:0", 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resp := n.handleControl(&controlRequest{Cmd: "deploy", Spec: &NodeSpec{
		Ops:    []OpSpec{{ID: 0, Kind: "map", Selectivity: 1, Inputs: []int{3}, Out: 4}},
		Routes: map[int][]Dest{3: {{Local: true, LocalOp: 0}}},
	}}); !resp.OK {
		t.Fatal(resp.Err)
	}
	tr := NewTupleReader(bytes.NewReader(appendSeqFrame(nil,
		[]Tuple{{Stream: 3, Seq: 5}, {Stream: 3, Seq: 9, target: 1}, {Stream: 3, Seq: 7, target: 2}}, 1)))
	batch, err := tr.ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	from := n.senderOf("n1:1")
	var a admission
	from.mu.Lock()
	err = n.admitDurable(from, batch, tr.Frame(), &a)
	from.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 2*time.Second, "a checkpoint at a drained moment", n.tryCheckpoint)
	want := nodeMarks(n)
	n.Close()
	if len(want) != 3 || want[refKey{"n1:1", 3, 1}] != 9 || want[refKey{"n1:1", 3, 2}] != 7 {
		t.Fatalf("marks before the restart: %v", want)
	}
	n, err = NewNodeConfig("127.0.0.1:0", 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := nodeMarks(n); !reflect.DeepEqual(got, want) {
		t.Fatalf("marks after the restart %v, before %v", got, want)
	}
}
