package engine

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"
)

// FuzzReadFrame covers the frame decoder: arbitrary opcodes, field masks
// and length prefixes must never panic or over-allocate (declared counts
// are capped), and whatever decodes must re-encode to a frame that decodes
// to the same tuples.
func FuzzReadFrame(f *testing.F) {
	const allFields = fieldTrace | fieldKey | fieldTarget
	f.Add(appendFrames(nil, []Tuple{{Stream: 1}, {Stream: 2, Seq: 9}, {Stream: 3, Value: -1}}))
	f.Add(appendFrames(nil, []Tuple{
		{Stream: 1, Flags: TupleTraced, TraceTs: 987654321},
		{Stream: 2, Seq: 9},
	}))
	f.Add(appendFrames(nil, []Tuple{{Stream: 4, Seq: 1, Key: 0xfeed}, {Stream: 4, Seq: 2}}))
	f.Add(appendSeqFrame(nil, []Tuple{{Stream: 5, Seq: 7, Key: 3, Flags: TupleTraced, TraceTs: 11}}, 42))
	// Relayed copies addressed to a consumer: alone, beside untargeted
	// tuples, with every other field, and naming no plausible operator.
	f.Add(appendFrames(nil, []Tuple{{Stream: 3, Seq: 4, target: 2}, {Stream: 3, Seq: 4}, {Stream: 3, Seq: 4, target: 9}}))
	f.Add(appendSeqFrame(nil, []Tuple{{Stream: 5, Seq: 8, Key: 3, Flags: TupleTraced, TraceTs: 12, target: 1}}, 43))
	f.Add(appendFrames(nil, []Tuple{{Stream: 1, target: -1}, {Stream: 1, target: 1 << 30}}))
	f.Add([]byte{opTuples, fieldTarget, 0, 0, 0, 1, 0, 0, 0, 1})     // record cut short of its target
	f.Add([]byte{opTuples, 0, 0xff, 0xff, 0xff, 0xff})               // absurd declared count
	f.Add([]byte{opTuples, fieldTrace | fieldKey, 0, 1, 0, 1})       // one past the cap
	f.Add([]byte{opTuples, 0, 0, 0, 0, 0})                           // empty frame
	f.Add([]byte{opTuples, 0x10, 0, 0, 0, 1})                        // unknown field bit
	f.Add([]byte{opTuples, fieldSeq, 0, 0, 0, 1, 0xff, 0xff})        // sequence cut short
	f.Add(appendFrames(nil, []Tuple{{Stream: 1}, {Stream: 2}})[:40]) // record cut short
	f.Add([]byte{0x81, 0, 0, 0, 1})                                  // retired batch opcode
	f.Add([]byte{0x87, 0, 0, 0, 0, 0, 0, 0, 42})                     // retired sequence mark
	f.Add(make([]byte, tupleFrameSize))                              // bare pre-batch tuple
	f.Add([]byte{0x80, 1, 2, 3})                                     // unknown opcode
	f.Add([]byte{})
	// Durability frames: a hello announcing a sender identity and a stray
	// ack (acks normally flow the other way; the reader must skip one
	// without desync).
	hello := appendHello(nil, 12345, "127.0.0.1:7101")
	f.Add(hello)
	f.Add(hello[:3])                                      // truncated hello
	f.Add(appendHello(nil, 1, string(make([]byte, 300)))) // oversized sender addr
	var ackBuf bytes.Buffer
	writeAck(&ackBuf, 7) //nolint:errcheck
	f.Add(ackBuf.Bytes())
	// A durable sender's stream: hello, then sequenced batches interleaved
	// with an unsequenced one on one connection.
	durable := appendHello(nil, 99, "127.0.0.1:9")
	durable = appendSeqFrame(durable, []Tuple{{Stream: 5, Seq: 1}, {Stream: 5, Seq: 2}}, 1)
	durable = appendFrames(durable, []Tuple{{Stream: 6, Seq: 3}})
	durable = appendSeqFrame(durable, []Tuple{{Stream: 5, Seq: 3, Flags: TupleTraced, TraceTs: 11}}, 2)
	f.Add(durable)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTupleReader(bytes.NewReader(data))
		for {
			batch, err := tr.ReadBatch()
			if err != nil {
				break // truncated/invalid input is fine; must not panic
			}
			if len(batch) == 0 || len(batch) > MaxBatchWire {
				t.Fatalf("ReadBatch returned %d tuples", len(batch))
			}
			again, err := NewTupleReader(bytes.NewReader(appendFrame(nil, batch, allFields, 0))).ReadBatch()
			if err != nil || len(again) != len(batch) {
				t.Fatalf("re-encode of %d tuples: %d tuples, err %v", len(batch), len(again), err)
			}
			for i := range batch {
				if again[i] != batch[i] && batch[i].Value == batch[i].Value { // NaN payloads differ by ==
					t.Fatalf("re-encode tuple %d: %+v vs %+v", i, again[i], batch[i])
				}
			}
		}
		// The reader's reusable buffers stay bounded by the wire cap no
		// matter what lengths the input declared.
		if cap(tr.buf) > MaxBatchWire*recordSize(allFields) {
			t.Fatalf("payload buffer grew to %d", cap(tr.buf))
		}
		if cap(tr.slab) > MaxBatchWire {
			t.Fatalf("decode slab grew to %d", cap(tr.slab))
		}
	})
}

// FuzzControlCommand drives raw bytes at a live node's control plane. The
// contract under attack: no input — malformed JSON, absurd specs, truncated
// frames, valid commands in hostile order — may panic the node or wedge it;
// after the fuzz bytes are consumed a fresh control connection must still
// answer a well-formed stats request. The one exception is an input that
// legitimately decodes to a kill fault or a restart, which is *supposed* to
// stop the node.
func FuzzControlCommand(f *testing.F) {
	f.Add([]byte(`{"cmd":"stats"}`))
	f.Add([]byte(`{"cmd":"restart"}`))
	f.Add([]byte(`{"cmd":"deploy"}`))
	f.Add([]byte(`{"cmd":"deploy","spec":{"nodeId":-7,"ops":[{"id":99}]}}`))
	f.Add([]byte(`{"cmd":"addop","op":{"id":0,"kind":"delay","cost":-1}}`))
	f.Add([]byte(`{"cmd":"removeop","opId":12345}`))
	f.Add([]byte(`{"cmd":"stall","stallSec":-3}`))
	f.Add([]byte(`{"cmd":"stall","stallSec":1e308}`))
	f.Add([]byte(`{"cmd":"fault"}`))
	f.Add([]byte(`{"cmd":"fault","fault":{"delayMs":-5}}`))
	f.Add([]byte(`{"cmd":"fault","fault":{"addr":" bogus","sever":true}}`))
	f.Add([]byte(`{"cmd":"nosuch"}{"cmd":"stats"}`))
	f.Add([]byte(`{"cmd":`))
	f.Add([]byte("\x00\xff garbage"))
	f.Add([]byte(`{"cmd":"stats"`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// An input containing a decodable kill fault or restart is allowed
		// (required, even) to stop the node; skip the liveness assertion
		// for those.
		expectDead := false
		dec := json.NewDecoder(bytes.NewReader(data))
		for {
			var req controlRequest
			if err := dec.Decode(&req); err != nil {
				break
			}
			if req.closes() {
				expectDead = true
			}
		}

		n, err := NewNode("127.0.0.1:0", 1)
		if err != nil {
			t.Skip("node listen unavailable")
		}
		defer n.Close()

		conn, err := net.DialTimeout("tcp", n.Addr(), 2*time.Second)
		if err != nil {
			t.Skip("dial unavailable")
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
		conn.Write([]byte{connControl})                   //nolint:errcheck
		conn.Write(data)                                  //nolint:errcheck
		// Half-close the write side so the server sees EOF once it has
		// consumed the input, then drain its responses until it hangs up
		// (the deadline bounds a server that neither answers nor closes).
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite() //nolint:errcheck
		}
		io.Copy(io.Discard, conn) //nolint:errcheck
		conn.Close()

		if expectDead {
			return
		}
		ctl, err := DialControl(n.Addr())
		if err != nil {
			t.Fatalf("control plane wedged after %q: %v", data, err)
		}
		defer ctl.Close()
		if _, err := ctl.Stats(); err != nil {
			t.Fatalf("stats refused after %q: %v", data, err)
		}
	})
}
