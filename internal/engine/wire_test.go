package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// maskTuples builds n tuples that need exactly the trace/key/target fields
// of mask on the wire: member 0 carries them, later members only some.
func maskTuples(n int, mask byte) []Tuple {
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = Tuple{Stream: int32(i % 5), Ts: int64(i) * 100, Seq: int64(i), Value: float64(i) / 3}
		if mask&fieldTrace != 0 && i%3 == 0 {
			ts[i].Flags = TupleTraced
			ts[i].TraceTs = int64(i)*100 + 7
		}
		if mask&fieldKey != 0 && i%2 == 0 {
			ts[i].Key = uint64(i) + 0xabc
		}
		if mask&fieldTarget != 0 && i%4 == 0 {
			ts[i].target = int32(i%7) + 1
		}
	}
	return ts
}

// decodeAll reads frames until clean EOF, returning the tuples, the
// sequences of the frames that carried one, and the frame count.
func decodeAll(t *testing.T, wire []byte) (out []Tuple, seqs []uint64, frames int) {
	t.Helper()
	tr := NewTupleReader(bytes.NewReader(wire))
	for {
		batch, err := tr.ReadBatch()
		if err == io.EOF {
			return out, seqs, frames
		}
		if err != nil {
			t.Fatalf("ReadBatch after %d tuples: %v", len(out), err)
		}
		frames++
		if seq, ok := tr.BatchSeq(); ok {
			seqs = append(seqs, seq)
		}
		out = append(out, batch...)
	}
}

// Every field-mask combination round-trips exactly at every batch size:
// unsequenced batches split at the cap, a sequence-bearing batch is exactly
// one frame, and the bytes on the wire are the header plus count records of
// the mask's width — nothing else.
func TestFrameCodecTable(t *testing.T) {
	for mask := byte(0); mask < 16; mask++ {
		for _, n := range []int{1, 2, 256, MaxBatchWire, MaxBatchWire + 1} {
			t.Run(fmt.Sprintf("mask%03b/n%d", mask, n), func(t *testing.T) {
				in := maskTuples(n, mask)
				rec := recordSize(mask)
				if mask&fieldSeq != 0 {
					if n > MaxBatchWire {
						// One sequence covers one frame, and a frame cannot
						// declare more than the cap: the encoder refuses
						// rather than split (durable chunks are ≤
						// outboxBatchMax, far below it).
						defer func() {
							if recover() == nil {
								t.Fatal("appendSeqFrame accepted a batch above MaxBatchWire")
							}
						}()
						appendSeqFrame(nil, in, 9)
						return
					}
					wire := appendSeqFrame(nil, in, 9)
					if want := frameHeaderSize + seqFieldSize + n*rec; len(wire) != want {
						t.Fatalf("frame is %d bytes, want %d", len(wire), want)
					}
					out, seqs, frames := decodeAll(t, wire)
					if frames != 1 || len(seqs) != 1 || seqs[0] != 9 {
						t.Fatalf("frames=%d seqs=%v, want one frame with sequence 9", frames, seqs)
					}
					assertTuples(t, out, in)
					return
				}
				wire := appendFrames(nil, in)
				wantFrames := (n + MaxBatchWire - 1) / MaxBatchWire
				if want := wantFrames*frameHeaderSize + n*rec; len(wire) != want {
					t.Fatalf("%d tuples used %d bytes, want %d", n, len(wire), want)
				}
				if wire[0] != opTuples || wire[1] != mask {
					t.Fatalf("header % x, want opcode 0x%02x mask 0x%02x", wire[:2], opTuples, mask)
				}
				out, seqs, frames := decodeAll(t, wire)
				if frames != wantFrames || len(seqs) != 0 {
					t.Fatalf("frames=%d seqs=%v, want %d unsequenced frames", frames, seqs, wantFrames)
				}
				assertTuples(t, out, in)
			})
		}
	}
}

func assertTuples(t *testing.T, got, want []Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tuple %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Everything that is not a well-formed frame of this binary is refused with
// its own error: old peers fail loudly instead of being half-understood.
func TestFrameRejections(t *testing.T) {
	good := appendSeqFrame(nil, maskTuples(2, fieldTrace|fieldKey), 5)
	cases := []struct {
		name string
		wire []byte
		want error
	}{
		{"unknown field bit", []byte{opTuples, 0x10, 0, 0, 0, 1}, errUnknownField},
		{"retired 0x81", []byte{0x81, 0, 0, 0, 1}, errRetiredOpcode},
		{"retired 0x82", []byte{0x82, 0, 0, 0, 1}, errRetiredOpcode},
		{"retired 0x83", []byte{0x83, 0, 0, 0, 1}, errRetiredOpcode},
		{"retired 0x84", []byte{0x84, 0, 0, 0, 1}, errRetiredOpcode},
		{"retired 0x87", []byte{0x87, 0, 0, 0, 0, 0, 0, 0, 1}, errRetiredOpcode},
		{"bare tuple", make([]byte, tupleFrameSize), errBareTuple},
		{"unknown opcode", []byte{0x80}, errUnknownOpcode},
		{"count above cap", []byte{opTuples, 0, 0, 1, 0, 1}, errBatchTooLarge},
		{"header cut short", good[:3], io.ErrUnexpectedEOF},
		{"sequence cut short", good[:frameHeaderSize+3], io.ErrUnexpectedEOF},
		{"record cut short", good[:len(good)-1], io.ErrUnexpectedEOF},
	}
	for _, c := range cases {
		batch, err := NewTupleReader(bytes.NewReader(c.wire)).ReadBatch()
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if len(batch) != 0 {
			t.Errorf("%s: %d tuples returned alongside the error", c.name, len(batch))
		}
	}
	if _, err := NewTupleReader(bytes.NewReader(nil)).ReadBatch(); err != io.EOF {
		t.Errorf("empty stream: err = %v, want bare io.EOF", err)
	}
}

// A node drops a tuple connection at the first undecodable frame and admits
// nothing from it — neither the bad frame nor the good one behind it.
func TestNodeDropsOldPeerConnection(t *testing.T) {
	n, err := NewNode("127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for _, first := range [][]byte{make([]byte, tupleFrameSize), {0x81, 0, 0, 0, 1}, {0x87, 0, 0, 0, 0, 0, 0, 0, 1}} {
		conn, err := net.DialTimeout("tcp", n.Addr(), 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
		wire := append([]byte{connTuples}, first...)
		wire = appendFrames(wire, []Tuple{{Stream: 1}})
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		// The node hangs up without our closing first: the read ends.
		if _, err := io.Copy(io.Discard, conn); err != nil && !errors.Is(err, syscall.ECONNRESET) {
			t.Errorf("first byte 0x%02x: connection not dropped: %v", first[0], err)
		}
		conn.Close()
		if got := n.Stats().Injected; got != 0 {
			t.Errorf("first byte 0x%02x: %d tuples admitted from an undecodable connection", first[0], got)
		}
	}
}

// Steady-state SendBatch and ReadBatch allocate nothing: both reuse their
// buffers once grown to the batch size.
func TestWireSteadyStateAllocs(t *testing.T) {
	in := maskTuples(256, fieldTrace|fieldKey)
	tw, err := NewTupleWriter(discard{})
	if err != nil {
		t.Fatal(err)
	}
	wire := appendFrames(nil, in)
	src := bytes.NewReader(wire)
	tr := NewTupleReader(src)
	roundTrip := func() {
		if err := tw.SendBatch(in); err != nil {
			t.Fatal(err)
		}
		src.Reset(wire)
		if batch, err := tr.ReadBatch(); err != nil || len(batch) != len(in) {
			t.Fatalf("ReadBatch: %d tuples, err %v", len(batch), err)
		}
	}
	roundTrip() // grow the reusable buffers
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("steady-state SendBatch+ReadBatch allocates %.1f times per batch", allocs)
	}
}

// Every hop moves whole Tuples between buffers, so the struct's size is paid
// on each move: growing it has to be a deliberate change to this figure.
func TestTupleSize(t *testing.T) {
	if got := unsafe.Sizeof(Tuple{}); got != 56 {
		t.Fatalf("Tuple is %d bytes, want 56", got)
	}
}

// A target decoded off the wire is the sender's claim, checked against this
// node's routes: a copy addressed to an operator that is installed here but
// does not consume the stream, to no operator at all, or to a nonsense id
// is counted as a routing gap; one addressed to an operator that consumes
// the stream reaches it alone, and one addressed to an operator that left
// follows its relay entry.
func TestNodeValidatesDecodedTargets(t *testing.T) {
	n, err := NewNode("127.0.0.1:0", 1e6)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	peer := deadAddr(t)
	if err := n.deploy(&NodeSpec{
		Ops: []OpSpec{
			{ID: 0, Kind: "map", Selectivity: 1, Inputs: []int{1}, Out: 3},
			{ID: 1, Kind: "map", Selectivity: 1, Inputs: []int{1}, Out: 4},
			{ID: 6, Kind: "map", Selectivity: 1, Inputs: []int{1}, Out: 5},
		},
		Routes: map[int][]Dest{1: {{Local: true, LocalOp: 0}, {Local: true, LocalOp: 1}}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := n.removeOp(6, map[int][]Dest{1: {{Addr: peer}}}); err != nil {
		t.Fatal(err)
	}
	var ts []Tuple
	for i, c := range []struct {
		stream, target int32
	}{
		{1, 1}, {1, 1}, // op 0 consumes stream 1
		{2, 1},                               // op 0 does not consume stream 2
		{1, 100},                             // no such operator, no entry
		{1, -3}, {1, 1 << 30}, {1, -1 << 31}, // ids no operator has
		{1, 7}, {1, 7}, {1, 7}, // op 6 left: its entry takes them
	} {
		ts = append(ts, Tuple{Stream: c.stream, Seq: int64(i), target: c.target})
	}
	batch, err := NewTupleReader(bytes.NewReader(appendFrames(nil, ts))).ReadBatch()
	if err != nil {
		t.Fatal(err)
	}
	n.enqueueInboundBatch(batch)
	waitUntil(t, 2*time.Second, "the accepted copies stepped or relayed", func() bool {
		st := n.Stats()
		return st.QueueLen == 0 && st.WorkerInFlight == 0 && st.OutboxEnqueued == 3
	})
	st, ops := n.Stats(), opStates(n)
	if st.DroppedNoRoute != 5 || ops[0].Processed != 2 || ops[1].Processed != 0 || st.OutboxEnqueued != 3 {
		t.Fatalf("no-route drops %d (want 5), op 0 processed %d (want 2), op 1 %d (want 0), relayed %d (want 3)",
			st.DroppedNoRoute, ops[0].Processed, ops[1].Processed, st.OutboxEnqueued)
	}
}
