package engine

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
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

	first := []Tuple{{Stream: 7, Seq: 0}, {Stream: 7, Seq: 1}}
	keep := n.dedupFilter(first, nil)
	if len(keep) != 2 {
		t.Fatalf("fresh stream: kept %d of 2 (seq 0 must pass an empty watermark)", len(keep))
	}
	n.advanceMarks(keep)

	// Re-sent retained batch: both now behind the watermark.
	keep = n.dedupFilter(first, keep[:0])
	if len(keep) != 0 {
		t.Fatalf("re-send: kept %d, want 0", len(keep))
	}
	if got := n.dedupDropped.Load(); got != 2 {
		t.Fatalf("dedupDropped = %d, want 2", got)
	}

	// Progress resumes past the mark, and an unrelated stream starts fresh
	// at seq 0 too.
	keep = n.dedupFilter([]Tuple{{Stream: 7, Seq: 2}, {Stream: 9, Seq: 0}}, keep[:0])
	if len(keep) != 2 {
		t.Fatalf("progress + fresh stream: kept %d of 2", len(keep))
	}
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
