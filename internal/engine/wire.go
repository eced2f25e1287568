// Package engine is the distributed stream-processing prototype standing in
// for Borealis in the paper's prototype experiments: real nodes on localhost
// TCP, a JSON control plane for deployment, binary tuple framing on the data
// plane, and a token-bucket *virtual CPU* per node so that a node with
// capacity c completes c cost-units of operator work per wall-clock second.
// Overload therefore manifests exactly as in the paper's testbed — queues
// grow and end-to-end latency climbs — without burning host CPU.
package engine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"time"
)

// Connection type bytes: the first byte of every inbound connection
// declares its role.
const (
	connControl byte = 'C' // newline-delimited JSON control messages
	connTuples  byte = 'T' // binary frames: opTuples, opHello, opAck
)

// Frame opcodes on a tuple connection. Every frame starts with an opcode
// whose high bit is set; tuples travel only in opTuples frames.
const (
	// opTuples is the one tuple frame — a batch is the only unit a tuple
	// travels in:
	//
	//	opTuples | fields u8 | count u32 | [batchSeq u64 if fieldSeq] |
	//	count × (28-byte tuple [+ flags u8 + traceTs i64 if fieldTrace]
	//	                       [+ key u64 if fieldKey]
	//	                       [+ target i32 if fieldTarget])
	//
	// Writers set fieldTrace / fieldKey / fieldTarget only when some tuple
	// in the batch has a nonzero flags byte / key / target, so plain
	// traffic pays 28 bytes per tuple; absent fields decode as zero. The
	// target is the consumer a relayed copy is addressed to (operator id +
	// 1); the receiver validates it against its own routes (see
	// routeState.accepts). fieldSeq carries the sender's
	// per-outbox durability sequence (the outbox ring position after the
	// frame's last tuple): the receiver logs the batch and acks that
	// sequence, while frames without it take the volatile path.
	opTuples byte = 0x88
	// opHello identifies the sending node right after the preamble:
	//
	//	opHello | uint64(incarnation) | uint16(len) | sender address
	//
	// Every outbox connection opens with it; sources and hand-rolled
	// writers may omit it. Receivers key their dedup marks by the address,
	// which stays the same across reconnects and restarts; the incarnation
	// is the sender node's birth timestamp. A WAL tuple record starts with
	// one too, naming the sender its tuples came from.
	opHello byte = 0x85
	// opAck is the durability acknowledgement:
	//
	//	opAck | uint64(batchSeq)
	//
	// written by the RECEIVER back over the same TCP connection after the
	// batch with that per-connection sequence number has been fsynced into
	// its WAL (or deduplicated away). Acks are cumulative: acking seq s
	// releases every tuple the sender shipped up to s, so a frame whose
	// successor has already arrived whole is acked by the successor's
	// ack. The sender reads
	// them off the connection's return direction; a TupleReader that
	// encounters one (a stray on a half-duplex reader) skips it harmlessly.
	opAck byte = 0x86
)

// Field-presence bits of an opTuples frame; any other bit is rejected.
const (
	fieldSeq    byte = 1 << 0 // header carries a durability batch sequence
	fieldTrace  byte = 1 << 1 // records carry flags + trace timestamp
	fieldKey    byte = 1 << 2 // records carry the partition key
	fieldTarget byte = 1 << 3 // records carry the addressed consumer
)

// Decode errors a tuple connection is dropped with. Peers and WAL records
// of binaries that predate opTuples (bare 28-byte tuples, whose first byte
// has the high bit clear, and the per-shape batch opcodes 0x81–0x84 plus
// the 0x87 sequence mark) are refused, never guessed at.
var (
	errBareTuple     = errors.New("engine: bare tuple frame from a pre-batch peer")
	errRetiredOpcode = errors.New("engine: retired frame opcode")
	errUnknownOpcode = errors.New("engine: unknown frame opcode")
	errUnknownField  = errors.New("engine: unknown tuple-frame field bits")
	errBatchTooLarge = errors.New("engine: tuple frame exceeds MaxBatchWire")
)

// MaxBatchWire caps the tuple count one frame may declare; larger batches
// are split by the writer and rejected by the reader, which bounds the
// decoder's buffers no matter what the prefix claims.
const MaxBatchWire = 65536

// TupleTraced flags a tuple carrying causal trace context: its TraceTs is
// live and every hop records a stage duration for it.
const TupleTraced uint8 = 1 << 0

// Tuple is the data-plane unit. Ts is the origin timestamp in nanoseconds
// (wall clock at injection) used for end-to-end latency; Value is an opaque
// payload the delay-style operators carry through. Seq numbers the tuple
// within its stream as produced by one node: a source numbers its stream
// from 0, and every operator output takes its node's next number for the
// operator's output stream, so each (sender, stream) pair is one dense,
// increasing sequence that receivers dedup by. Flags and TraceTs are
// the sampled-trace context: TraceTs holds the wall timestamp (ns) of the
// tuple's last recorded stage boundary, so each hop can attribute
// now−TraceTs to one stage and the stage durations telescope to the
// end-to-end latency.
//
// The field order packs a Tuple into 56 bytes: the two 4-byte fields share
// one word and the flags byte goes last. Every hop copies whole Tuples, so
// TestTupleSize makes growing it a deliberate change.
type Tuple struct {
	Stream int32

	// target, when nonzero, addresses the tuple to operator id target−1
	// alone instead of every subscriber of its stream: how keyed ingress
	// delivers one key partition to one shard replica, and how a relay
	// entry carries a copy to the consumer that left. It crosses the wire
	// under fieldTarget, and dedup marks keep one sequence per target.
	target int32

	Ts      int64
	Seq     int64
	Value   float64
	TraceTs int64

	// Key is the partition key for keyed (sharded) streams: hashed through
	// the per-operator partition table to pick a shard replica. Zero means
	// unkeyed.
	Key uint64

	Flags uint8
}

// Wire sizes: the fixed tuple record, its optional fields, the frame
// header (opcode, field mask, count), the sequence that follows it under
// fieldSeq, and the ack frame (opcode + sequence).
const (
	tupleFrameSize  = 4 + 8 + 8 + 8
	traceFieldSize  = 1 + 8
	keyFieldSize    = 8
	targetFieldSize = 4
	frameHeaderSize = 1 + 1 + 4
	seqFieldSize    = 8
	ackFrameSize    = 1 + 8
)

// maxHelloAddr bounds the sender-address length a hello frame may declare.
const maxHelloAddr = 256

// appendHello appends a hello frame identifying a durable sender.
func appendHello(dst []byte, incarnation uint64, sender string) []byte {
	if len(sender) > maxHelloAddr {
		sender = sender[:maxHelloAddr]
	}
	var hdr [1 + 8 + 2]byte
	hdr[0] = opHello
	binary.BigEndian.PutUint64(hdr[1:9], incarnation)
	binary.BigEndian.PutUint16(hdr[9:11], uint16(len(sender)))
	dst = append(dst, hdr[:]...)
	return append(dst, sender...)
}

// writeAck writes one ack frame for batchSeq to w (the receiver→sender
// direction of a durable connection).
func writeAck(w io.Writer, seq uint64) error {
	var buf [ackFrameSize]byte
	buf[0] = opAck
	binary.BigEndian.PutUint64(buf[1:9], seq)
	_, err := w.Write(buf[:])
	return err
}

// readAck reads one ack frame from r: acks are the only frames a receiver
// writes back. Used by a durable sender's ack-reader loop.
func readAck(r io.Reader) (uint64, error) {
	var buf [ackFrameSize]byte
	if _, err := io.ReadFull(r, buf[:1]); err != nil {
		return 0, err
	}
	if buf[0] != opAck {
		return 0, fmt.Errorf("engine: unexpected frame opcode 0x%02x on ack channel", buf[0])
	}
	if _, err := io.ReadFull(r, buf[1:]); err != nil {
		return 0, unexpectedEOF(err)
	}
	return binary.BigEndian.Uint64(buf[1:9]), nil
}

// recordSize is the per-tuple record width under a field mask.
func recordSize(fields byte) int {
	rec := tupleFrameSize
	if fields&fieldTrace != 0 {
		rec += traceFieldSize
	}
	if fields&fieldKey != 0 {
		rec += keyFieldSize
	}
	if fields&fieldTarget != 0 {
		rec += targetFieldSize
	}
	return rec
}

// fieldsOf returns the optional record fields ts needs on the wire. It
// ORs each field over the batch without a branch per tuple.
func fieldsOf(ts []Tuple) byte {
	var flags uint8
	var key uint64
	var target int32
	for i := range ts {
		flags |= ts[i].Flags
		key |= ts[i].Key
		target |= ts[i].target
	}
	var fields byte
	if flags != 0 {
		fields |= fieldTrace
	}
	if key != 0 {
		fields |= fieldKey
	}
	if target != 0 {
		fields |= fieldTarget
	}
	return fields
}

// encodeRecords writes ts as len(ts) records of recordSize(fields) bytes
// into buf. Each optional field is its own pass over the batch, so no
// per-tuple work depends on the mask.
func encodeRecords(buf []byte, ts []Tuple, fields byte) {
	rec := recordSize(fields)
	for i := range ts {
		b := buf[i*rec : i*rec+tupleFrameSize]
		binary.BigEndian.PutUint32(b[0:4], uint32(ts[i].Stream))
		binary.BigEndian.PutUint64(b[4:12], uint64(ts[i].Ts))
		binary.BigEndian.PutUint64(b[12:20], uint64(ts[i].Seq))
		binary.BigEndian.PutUint64(b[20:28], math.Float64bits(ts[i].Value))
	}
	off := tupleFrameSize
	if fields&fieldTrace != 0 {
		for i := range ts {
			b := buf[i*rec+off : i*rec+off+traceFieldSize]
			b[0] = ts[i].Flags
			binary.BigEndian.PutUint64(b[1:9], uint64(ts[i].TraceTs))
		}
		off += traceFieldSize
	}
	if fields&fieldKey != 0 {
		for i := range ts {
			binary.BigEndian.PutUint64(buf[i*rec+off:i*rec+off+keyFieldSize], ts[i].Key)
		}
		off += keyFieldSize
	}
	if fields&fieldTarget != 0 {
		for i := range ts {
			binary.BigEndian.PutUint32(buf[i*rec+off:i*rec+off+targetFieldSize], uint32(ts[i].target))
		}
	}
}

// decodeRecords is the inverse of encodeRecords: it fills ts from
// len(ts) records in buf; fields the mask omits decode as zero.
func decodeRecords(ts []Tuple, buf []byte, fields byte) {
	rec := recordSize(fields)
	for i := range ts {
		b := buf[i*rec : i*rec+tupleFrameSize]
		ts[i] = Tuple{
			Stream: int32(binary.BigEndian.Uint32(b[0:4])),
			Ts:     int64(binary.BigEndian.Uint64(b[4:12])),
			Seq:    int64(binary.BigEndian.Uint64(b[12:20])),
			Value:  math.Float64frombits(binary.BigEndian.Uint64(b[20:28])),
		}
	}
	off := tupleFrameSize
	if fields&fieldTrace != 0 {
		for i := range ts {
			b := buf[i*rec+off : i*rec+off+traceFieldSize]
			ts[i].Flags = b[0]
			ts[i].TraceTs = int64(binary.BigEndian.Uint64(b[1:9]))
		}
		off += traceFieldSize
	}
	if fields&fieldKey != 0 {
		for i := range ts {
			ts[i].Key = binary.BigEndian.Uint64(buf[i*rec+off : i*rec+off+keyFieldSize])
		}
		off += keyFieldSize
	}
	if fields&fieldTarget != 0 {
		for i := range ts {
			ts[i].target = int32(binary.BigEndian.Uint32(buf[i*rec+off : i*rec+off+targetFieldSize]))
		}
	}
}

// frameSize is the encoded size of an opTuples frame of count records
// under a field mask.
func frameSize(fields byte, count int) int {
	size := frameHeaderSize + count*recordSize(fields)
	if fields&fieldSeq != 0 {
		size += seqFieldSize
	}
	return size
}

// appendFrame appends ts to dst as exactly one opTuples frame; seq is
// written when fields has fieldSeq. A frame cannot declare more than
// MaxBatchWire tuples, so handing it more is a caller bug (appendFrames
// splits; durable chunks are bounded far below the cap).
func appendFrame(dst []byte, ts []Tuple, fields byte, seq uint64) []byte {
	if len(ts) > MaxBatchWire {
		panic(fmt.Sprintf("engine: appendFrame: %d tuples in one frame (cap %d)", len(ts), MaxBatchWire))
	}
	hdr := frameHeaderSize
	if fields&fieldSeq != 0 {
		hdr += seqFieldSize
	}
	n := len(dst)
	need := frameSize(fields, len(ts))
	dst = slices.Grow(dst, need)[:n+need]
	buf := dst[n:]
	buf[0] = opTuples
	buf[1] = fields
	binary.BigEndian.PutUint32(buf[2:6], uint32(len(ts)))
	if fields&fieldSeq != 0 {
		binary.BigEndian.PutUint64(buf[6:14], seq)
	}
	encodeRecords(buf[hdr:], ts, fields)
	return dst
}

// appendFrames appends ts as unsequenced frames split at MaxBatchWire
// (nothing for an empty ts). Shared by the buffered TupleWriter, the
// volatile outbox ship and the WAL record payload.
func appendFrames(dst []byte, ts []Tuple) []byte {
	fields := fieldsOf(ts)
	for len(ts) > 0 {
		k := min(len(ts), MaxBatchWire)
		dst = appendFrame(dst, ts[:k], fields, 0)
		ts = ts[k:]
	}
	return dst
}

// appendSeqFrame appends ts as the one frame a durability sequence number
// covers (the receiver acks seq for exactly these tuples).
func appendSeqFrame(dst []byte, ts []Tuple, seq uint64) []byte {
	return appendFrame(dst, ts, fieldsOf(ts)|fieldSeq, seq)
}

// TupleWriter buffers tuple frames over a connection, reusing one encode
// buffer across calls so the steady-state path allocates nothing.
type TupleWriter struct {
	bw  *bufio.Writer
	c   io.Closer
	enc []byte // reusable batch encode buffer
}

// NewTupleWriter wraps w, sending the tuple-connection preamble byte.
func NewTupleWriter(w io.Writer) (*TupleWriter, error) {
	bw := bufio.NewWriterSize(w, 16*1024)
	if err := bw.WriteByte(connTuples); err != nil {
		return nil, fmt.Errorf("engine: writing preamble: %w", err)
	}
	return &TupleWriter{bw: bw}, nil
}

// NewTupleWriterDial dials a TCP address and returns a TupleWriter over the
// new connection; Close releases it.
func NewTupleWriterDial(addr string) (*TupleWriter, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("engine: dialing %s: %w", addr, err)
	}
	tw, err := NewTupleWriter(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	tw.c = conn
	return tw, nil
}

// SendBatch writes a batch of tuples into the buffer as tuple frames
// (see appendFrames).
func (tw *TupleWriter) SendBatch(ts []Tuple) error {
	tw.enc = appendFrames(tw.enc[:0], ts)
	if len(tw.enc) == 0 {
		return nil
	}
	_, err := tw.bw.Write(tw.enc)
	return err
}

// Flush pushes buffered frames to the socket.
func (tw *TupleWriter) Flush() error { return tw.bw.Flush() }

// Close flushes and closes the underlying connection when the writer owns
// one (constructed by NewTupleWriterDial).
func (tw *TupleWriter) Close() error {
	ferr := tw.Flush()
	if tw.c != nil {
		if err := tw.c.Close(); err != nil {
			return err
		}
	}
	return ferr
}

// TupleReader decodes the frame stream after the connTuples preamble. The
// decode slab and payload buffer are reused across calls, so steady-state
// decoding allocates nothing.
type TupleReader struct {
	r     io.Reader
	hdr   [frameHeaderSize + seqFieldSize]byte
	buf   []byte  // reusable frame buffer: header, then records
	frame []byte  // the last frame as received (aliases buf)
	slab  []Tuple // reusable decode slab; valid until the next ReadBatch

	// Durability context: the sequence of the frame ReadBatch last
	// returned, and the sender identity from the connection's hello.
	seq         uint64
	hasSeq      bool
	helloInc    uint64
	helloSender string
	sawHello    bool
}

// BatchSeq returns the durability sequence of the batch ReadBatch just
// returned; ok is false when its frame carried none.
func (tr *TupleReader) BatchSeq() (seq uint64, ok bool) { return tr.seq, tr.hasSeq }

// Frame returns the encoded frame of the batch ReadBatch just returned,
// header and records exactly as received. It aliases the reader's buffer
// and is valid until the next ReadBatch.
func (tr *TupleReader) Frame() []byte { return tr.frame }

// Hello returns the sender identity announced on this connection, if any.
func (tr *TupleReader) Hello() (incarnation uint64, sender string, ok bool) {
	return tr.helloInc, tr.helloSender, tr.sawHello
}

// NewTupleReader wraps r (typically already buffered by the caller).
func NewTupleReader(r io.Reader) *TupleReader { return &TupleReader{r: r} }

// ReadBatch reads the next tuple frame and returns its tuples, consuming
// any hello or stray ack frames before it. The returned slice aliases the
// reader's internal slab and is only valid until the next call. io.EOF
// means the stream ended between frames; a frame cut short is
// io.ErrUnexpectedEOF. Anything that is not a well-formed frame of this
// binary — a bare tuple, a retired or unknown opcode, an unknown field
// bit, a count above MaxBatchWire — is an error, never trusted with an
// allocation.
func (tr *TupleReader) ReadBatch() ([]Tuple, error) {
	for {
		if _, err := io.ReadFull(tr.r, tr.hdr[:1]); err != nil {
			return nil, err
		}
		switch op := tr.hdr[0]; {
		case op == opTuples:
		case op == opHello:
			if err := tr.readHello(); err != nil {
				return nil, err
			}
			continue
		case op == opAck:
			// Stray ack on the tuple direction: skip harmlessly.
			if _, err := io.ReadFull(tr.r, tr.hdr[1:ackFrameSize]); err != nil {
				return nil, unexpectedEOF(err)
			}
			continue
		case op&0x80 == 0:
			return nil, fmt.Errorf("%w (first byte 0x%02x)", errBareTuple, op)
		case op >= 0x81 && op <= 0x84, op == 0x87:
			return nil, fmt.Errorf("%w 0x%02x", errRetiredOpcode, op)
		default:
			return nil, fmt.Errorf("%w 0x%02x", errUnknownOpcode, op)
		}
		if _, err := io.ReadFull(tr.r, tr.hdr[1:frameHeaderSize]); err != nil {
			return nil, unexpectedEOF(err)
		}
		fields := tr.hdr[1]
		if fields&^(fieldSeq|fieldTrace|fieldKey|fieldTarget) != 0 {
			return nil, fmt.Errorf("%w 0x%02x", errUnknownField, fields)
		}
		n := int(binary.BigEndian.Uint32(tr.hdr[2:6]))
		if n > MaxBatchWire {
			return nil, fmt.Errorf("%w: declares %d tuples", errBatchTooLarge, n)
		}
		hdr := frameHeaderSize
		tr.hasSeq = fields&fieldSeq != 0
		if tr.hasSeq {
			if _, err := io.ReadFull(tr.r, tr.hdr[frameHeaderSize:]); err != nil {
				return nil, unexpectedEOF(err)
			}
			tr.seq = binary.BigEndian.Uint64(tr.hdr[frameHeaderSize:])
			hdr += seqFieldSize
		}
		if n == 0 {
			continue // empty frame: nothing to deliver (writers never send one)
		}
		need := hdr + n*recordSize(fields)
		if cap(tr.buf) < need {
			tr.buf = make([]byte, need)
		}
		buf := tr.buf[:need]
		copy(buf, tr.hdr[:hdr])
		if _, err := io.ReadFull(tr.r, buf[hdr:]); err != nil {
			return nil, unexpectedEOF(err)
		}
		if cap(tr.slab) < n {
			tr.slab = make([]Tuple, n)
		}
		tr.slab = tr.slab[:n]
		decodeRecords(tr.slab, buf[hdr:], fields)
		tr.frame = buf
		return tr.slab, nil
	}
}

// seqFrameBuffered reports whether br already holds, at its read position,
// a whole non-empty sequenced tuple frame: the next ReadBatch then returns
// without reading from the connection, or fails on a malformed header
// without reading either. (An empty frame is skipped by ReadBatch, which
// then reads on.)
func seqFrameBuffered(br *bufio.Reader) bool {
	const hdr = frameHeaderSize + seqFieldSize
	if br.Buffered() < hdr {
		return false
	}
	b, _ := br.Peek(hdr) // within Buffered: never reads
	if b[0] != opTuples || b[1]&fieldSeq == 0 {
		return false
	}
	n := int(binary.BigEndian.Uint32(b[2:6]))
	return n > 0 && br.Buffered() >= hdr+n*recordSize(b[1])
}

// readHello consumes a hello frame's body and records the sender identity.
func (tr *TupleReader) readHello() error {
	hdr := tr.hdr[1 : 1+8+2]
	if _, err := io.ReadFull(tr.r, hdr); err != nil {
		return unexpectedEOF(err)
	}
	n := int(binary.BigEndian.Uint16(hdr[8:10]))
	if n > maxHelloAddr {
		return fmt.Errorf("engine: hello declares %d-byte sender (cap %d)", n, maxHelloAddr)
	}
	if cap(tr.buf) < n {
		tr.buf = make([]byte, n)
	}
	if _, err := io.ReadFull(tr.r, tr.buf[:n]); err != nil {
		return unexpectedEOF(err)
	}
	tr.helloInc = binary.BigEndian.Uint64(hdr[0:8])
	tr.helloSender = string(tr.buf[:n])
	tr.sawHello = true
	return nil
}

// unexpectedEOF upgrades a mid-frame EOF so callers can distinguish a
// clean end-of-stream (between frames) from a truncated frame.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
