package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"rodsp/internal/obs"
	"rodsp/internal/wal"
)

// Per-node durability layer (enabled by NodeConfig.WALDir).
//
// Durability is a property of the sender: a node with a WAL numbers every
// frame it ships and retains it in its outbox until the receiver acks it,
// on every link it feeds, the collector's included (outbox.go). Every
// receiver acks the sequenced frames it reads, so the two ends of a link
// split the work:
//
//   - The RECEIVER filters each sequence-bearing ingress frame through the
//     sender's marks, and on a node with a WAL logs what survives and acks
//     only after the fsync-batched group commit — so an acked batch is
//     recoverable, and an unacked one is by definition still retained in
//     the sender's outbox and will be re-sent on reconnect. A node without
//     a WAL takes the same path with the log step skipped and acks on
//     admission; the collector acks after recording the batch. Acks are
//     cumulative, so a frame whose successor has already arrived whole is
//     covered by that successor's ack (serveTuples).
//   - Duplicates from re-sends and replay are filtered by one rule, keyed
//     by (sender, stream, target): a tuple whose Seq is at or below the
//     last Seq admitted from that sender on that stream, addressed to that
//     consumer (0 for untargeted), is a duplicate (seqMarks). The node that
//     produces a stream numbers it: sources number their streams, and every
//     operator output takes its node's next number for that stream
//     (liveOp.nextSeq), so each (sender, stream) pair carries one dense,
//     increasing sequence over one FIFO link — also for unions, joins and
//     selectivities other than 1. The addressed copies a relay entry
//     carries are numbered by the relaying node's outbox, per (stream,
//     target), so each is one increasing sequence beside the untargeted
//     one — even when a node relays one tuple to two consumers on one
//     node, relays it to a node it also forwards the untargeted tuple to,
//     or relays an old tuple that came back with its consumer behind newer
//     ones. The sender is the address in the connection's hello, stable
//     across reconnects and restarts, so a migrated operator's outputs are
//     judged against its new home's marks.
//     The same rule runs at ingress, at replay and at the sink; the marks
//     are checkpointed with the operator state and the output counters.
//
// Checkpoints land only at drained moments (no in-flight durable
// admission, empty lanes, no worker mid-batch, empty outboxes including
// retained-unacked batches): at such a moment every logged input's effects
// are durable downstream — processed, shipped, and acked — so the WAL
// prefix can be truncated. The checkpoint captures the scalar operator
// state (selectivity accumulator, processed count, output counter) and the
// marks; windowed join contents restore empty. Runtime route mutations are
// not logged: recovery restores the spec persisted at deploy/start/stop, so
// migrations are not scheduled across a crash (a replayed copy addressed to
// an operator the spec does not place here has no route). An operator whose input is
// not logged (fed by a source's volatile link) has nothing to replay, so
// recovery restarts its numbering at the node's birth time, above anything
// it emitted before the crash; what it had in flight is lost with the link.
//
// Remaining limitation (ROADMAP items 19 and 1): replay re-derives the same
// output numbers only when each operator on the crashed node sees its input
// in a reproducible order — one input stream, arriving over one durable
// link or from one local producer. A union or join on the crashed node is
// not covered: WAL order across senders and lanes is not processing order,
// and join windows read the wall clock.
//
// Recovery (openDurability) runs before the node accepts any connection:
// restore the manifest's spec, apply the checkpoint, replay the WAL tail
// into the lane queues, then open the gates. Re-sent retained batches
// arriving afterwards dedup against the restored+replayed marks.

// walRecordTuples tags a WAL record holding admitted ingress tuples: the
// tag byte, a hello frame naming the sender, then opTuples wire frames (a
// frame logged as received keeps its sequence field, which replay
// ignores). The retired tags hold tuples this binary cannot replay — 0x01
// frames that predate opTuples, 0x02 frames without their sender — and
// since every logged tuple was acked, such a record stops recovery.
const (
	walRecordTuples   byte = 0x03
	walRecordRetired  byte = 0x01
	walRecordNoSender byte = 0x02
)

// manifestFile persists the deployed spec and run state at control-plane
// transitions; checkpointFile persists drained-moment operator state.
const (
	manifestFile   = "manifest.json"
	checkpointFile = "checkpoint.json"
)

// durableManifest is written at deploy/start/stop so a restart can
// redeploy without any checkpoint having landed.
type durableManifest struct {
	Spec      *NodeSpec `json:"spec"`
	Started   bool      `json:"started"`
	StartNano int64     `json:"startNano"`
}

// opCheckpoint is one operator's scalar state snapshot.
type opCheckpoint struct {
	ID        int     `json:"id"`
	SelAcc    float64 `json:"selAcc"`
	Processed int64   `json:"processed"`
	NextSeq   int64   `json:"nextSeq"`
}

// streamMark is one (sender, stream, target) dedup mark.
type streamMark struct {
	Sender string `json:"sender"`
	Stream int32  `json:"stream"`
	Target int32  `json:"target,omitempty"`
	Seq    int64  `json:"seq"`
}

// checkpointState is the drained-moment snapshot: everything before WalPos
// is truncated, everything after replays on recovery. Retired is where a
// binary that keyed marks by stream alone wrote them; recovery refuses it.
type checkpointState struct {
	WalPos  uint64          `json:"walPos"`
	Ops     []opCheckpoint  `json:"ops,omitempty"`
	Marks   []streamMark    `json:"senderMarks,omitempty"`
	Retired json.RawMessage `json:"marks,omitempty"`
}

// openDurability opens (or recovers) the node's WAL directory. Called from
// NewNodeConfig before any goroutine starts; see the package comment for
// the ordering argument.
func (n *Node) openDurability() error {
	dir := n.cfg.WALDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("engine: wal dir: %w", err)
	}
	wl, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return fmt.Errorf("engine: opening wal: %w", err)
	}
	n.wal = wl
	m, err := loadJSON[durableManifest](filepath.Join(dir, manifestFile))
	if err != nil {
		wl.Close()
		return fmt.Errorf("engine: reading manifest: %w", err)
	}
	if m == nil || m.Spec == nil {
		return nil // fresh directory: nothing to recover
	}
	if err := n.deploy(m.Spec); err != nil {
		wl.Close()
		return fmt.Errorf("engine: redeploying recovered spec: %w", err)
	}
	from := uint64(1)
	ck, err := loadJSON[checkpointState](filepath.Join(dir, checkpointFile))
	if err == nil && ck != nil && len(ck.Retired) > 0 {
		err = errors.New("its dedup marks are keyed by stream alone, a retired format")
	}
	if err != nil {
		wl.Close()
		return fmt.Errorf("engine: reading checkpoint: %w", err)
	}
	rs := n.route.Load()
	if ck != nil {
		for _, oc := range ck.Ops {
			if op := rs.ops[oc.ID]; op != nil {
				op.mu.Lock()
				op.selAcc, op.processed, op.nextSeq = oc.SelAcc, oc.Processed, oc.NextSeq
				op.mu.Unlock()
			}
		}
		for _, mk := range ck.Marks {
			n.senderOf(mk.Sender).marks[markKey{mk.Stream, mk.Target}] = mk.Seq
		}
		from = ck.WalPos + 1
	}
	if err := wl.Replay(from, func(seq uint64, payload []byte) error {
		if err := n.replayRecord(payload); err != nil {
			return fmt.Errorf("record %d: %w", seq, err)
		}
		return nil
	}); err != nil {
		wl.Close()
		return fmt.Errorf("engine: replaying wal: %w", err)
	}
	// An operator with a logged input keeps the exact checkpointed count,
	// so its replayed outputs take their old numbers. One whose input is
	// not logged — a source's volatile link, or a local operator so fed —
	// replays nothing, and may have numbered past the checkpoint before
	// the crash: it resumes at the node's birth time, above anything it
	// emitted (less than one output per nanosecond since its last birth).
	// The spec lists operators in graph order, producers first.
	logged := map[int]bool{}
	for _, s := range n.senders {
		for k := range s.marks {
			logged[int(k.stream)] = true
		}
	}
	for _, os := range m.Spec.Ops {
		if op := rs.ops[os.ID]; slices.ContainsFunc(os.Inputs, func(in int) bool { return logged[in] }) {
			logged[os.Out] = true
		} else {
			op.nextSeq = max(op.nextSeq, n.bornNano)
		}
	}
	if m.Started {
		n.startNano.Store(m.StartNano)
		n.started.Store(true)
	}
	n.recovered.Store(true)
	return nil
}

// replayRecord re-admits one WAL record's tuples through its sender's
// marks (these tuples were admitted by the previous incarnation, so the
// rule keeps them all and moves the marks over them) and enqueues them
// into the lane queues. Records under an unknown tag are skipped, but a
// data record this binary cannot decode is an error: its tuples were
// acked, so starting without them would lose them silently.
func (n *Node) replayRecord(payload []byte) error {
	if len(payload) == 0 {
		return nil
	}
	switch tag := payload[0]; tag {
	case walRecordTuples:
	case walRecordRetired, walRecordNoSender:
		return fmt.Errorf("tag 0x%02x holds tuples in a retired format (%s)", tag,
			map[byte]string{walRecordRetired: "pre-opTuples frames", walRecordNoSender: "no sender"}[tag])
	default:
		return nil
	}
	tr := NewTupleReader(bytes.NewReader(payload[1:]))
	var a admission
	for {
		batch, err := tr.ReadBatch()
		if err == io.EOF {
			return nil // clean end between frames
		}
		if err != nil {
			return fmt.Errorf("tag 0x%02x: %w", walRecordTuples, err)
		}
		_, from, _ := tr.Hello()
		marks := n.senderOf(from).marks
		kept, dups := marks.filter(batch, &a)
		marks.advance(a.pending)
		n.dedupDropped.Add(dups)
		n.replayed.Add(int64(len(kept)))
		n.enqueueInboundBatch(kept)
	}
}

// admission is one tuple connection's durable-admission scratch, reused
// frame after frame: the survivors of a frame with duplicates, the mark
// advances the frame owes once it is durable, and the WAL record.
type admission struct {
	keep    []Tuple
	pending []markRun
	record  []byte
}

// admitDurable admits one sequence-bearing frame from sender s (batch,
// decoded from frame as received): filter it against the sender's marks,
// log what survives and wait for the group commit (on a node with a WAL;
// a node without one skips this step), advance the marks and enqueue. The
// record carries the frame as received when the filter kept all of it, the
// survivors re-encoded otherwise. On a WAL error nothing is admitted and no
// mark moved, so the sender's re-send passes the filter again. The caller
// holds s.mu.
func (n *Node) admitDurable(s *sender, batch []Tuple, frame []byte, a *admission) error {
	n.durableInflight.Add(1)
	defer n.durableInflight.Add(-1)
	kept, dups := s.marks.filter(batch, a)
	n.dedupDropped.Add(dups)
	if len(kept) == 0 {
		return nil
	}
	if n.wal != nil {
		a.record = appendHello(append(a.record[:0], walRecordTuples), 0, s.addr)
		if len(kept) == len(batch) {
			a.record = append(a.record, frame...)
		} else {
			a.record = appendFrames(a.record, kept)
		}
		rec, err := n.wal.Append(a.record)
		if err == nil {
			err = n.wal.WaitCommitted(rec)
		}
		if err != nil {
			return err
		}
	}
	s.marks.advance(a.pending)
	n.enqueueInboundBatch(kept)
	return nil
}

// seqMarks is one sender's dedup marks: (stream, target) → the highest Seq
// admitted from that sender on that stream addressed to that consumer. A
// missing entry means nothing admitted yet (sequences start at 0, so the
// zero value cannot stand for "none"). Nodes keep one per sender
// (sender.marks), the collector one per sender too.
type seqMarks map[markKey]int64

// markKey names one sequence of a sender: a stream, and the consumer its
// tuples are addressed to (Tuple.target; 0 for untargeted tuples).
type markKey struct{ stream, target int32 }

// markRun is one pending mark advance: the highest Seq the filter admitted
// of one sequence.
type markRun struct {
	key markKey
	seq int64
}

// filter applies the dedup rule to batch in arrival order — a tuple whose
// Seq is at or below its sequence's mark is a duplicate, any other is
// admitted and becomes the mark — decided once per run of one sequence. The
// marks themselves stay put: the advances collect in a.pending, for
// advance to apply once the admission is final (at once on replay and at
// the sink, after the WAL commit at ingress). It returns the admitted
// tuples — batch itself when nothing is a duplicate, else the survivors
// compacted into a.keep — and the number of duplicates dropped.
func (m seqMarks) filter(batch []Tuple, a *admission) (kept []Tuple, dups int64) {
	a.pending = a.pending[:0]
	for i := 0; i < len(batch); {
		key := markKey{batch[i].Stream, batch[i].target}
		p := 0 // the sequence's pending advance, if an earlier run made one
		for p < len(a.pending) && a.pending[p].key != key {
			p++
		}
		mk, seen := m[key]
		if p < len(a.pending) {
			mk, seen = a.pending[p].seq, true
		}
		moved := false
		for ; i < len(batch) && batch[i].Stream == key.stream && batch[i].target == key.target; i++ {
			if seen && batch[i].Seq <= mk {
				if dups == 0 {
					a.keep = append(a.keep[:0], batch[:i]...)
				}
				dups++
				continue
			}
			mk, seen, moved = batch[i].Seq, true, true
			if dups > 0 {
				a.keep = append(a.keep, batch[i])
			}
		}
		if moved && p < len(a.pending) {
			a.pending[p].seq = mk
		} else if moved {
			a.pending = append(a.pending, markRun{key, mk})
		}
	}
	if dups == 0 {
		return batch, 0
	}
	return a.keep, dups
}

// advance applies filter's pending advances.
func (m seqMarks) advance(pending []markRun) {
	for _, p := range pending {
		m[p.key] = p.seq
	}
}

// persistManifest writes the deployed spec and run state; called by the
// control plane after deploy/start/stop so a restart can recover them even
// before the first checkpoint lands.
func (n *Node) persistManifest() {
	if n.wal == nil {
		return
	}
	rs := n.route.Load()
	m := durableManifest{
		Spec:      rs.spec,
		Started:   n.started.Load(),
		StartNano: n.startNano.Load(),
	}
	data, err := json.Marshal(&m)
	if err == nil {
		err = wal.WriteFileAtomic(filepath.Join(n.cfg.WALDir, manifestFile), data)
	}
	if err != nil {
		ev, _, _ := n.observer()
		ev.Emit(obs.LevelWarn, obs.EventWALError, "node", rs.nodeID(), "err", err.Error())
	}
}

// checkpointLoop attempts a checkpoint every CheckpointEvery; only drained
// moments land one (tryCheckpoint), so under sustained load the WAL simply
// grows until the next lull.
func (n *Node) checkpointLoop() {
	defer n.wg.Done()
	tick := time.NewTicker(n.cfg.CheckpointEvery)
	defer tick.Stop()
	for {
		select {
		case <-n.ckQuit:
			return
		case <-tick.C:
			n.tryCheckpoint()
		}
	}
}

// drained reports whether the node is momentarily quiescent: no durable
// admission between WAL append and lane enqueue, nothing queued or
// mid-process in any lane, and nothing buffered, in flight, or retained
// unacked in any outbox. At such a moment every logged input's effects are
// durable downstream, which is what licenses WAL truncation.
func (n *Node) drained() bool {
	if n.durableInflight.Load() != 0 {
		return false
	}
	for _, l := range n.lanes {
		l.mu.Lock()
		busy := l.qlenLocked() > 0 || l.inRun > 0
		l.mu.Unlock()
		if busy {
			return false
		}
	}
	for _, o := range n.outboxSnapshots() {
		if o.Pending != 0 {
			return false
		}
	}
	return true
}

// tryCheckpoint lands a checkpoint if the node is drained and stays
// drained (with no WAL growth) across the state capture; returns whether
// one landed. The capture-verify-capture discipline closes the race where
// a batch is logged but not yet admitted: such an admission either bumps
// durableInflight (first check fails) or appends a record (LastSeq moved,
// second check fails).
func (n *Node) tryCheckpoint() bool {
	if n.wal == nil {
		return false
	}
	pos := n.wal.Stats().LastSeq
	if !n.drained() {
		return false
	}
	rs := n.route.Load()
	ck := checkpointState{WalPos: pos}
	for id, op := range rs.ops {
		op.mu.Lock()
		ck.Ops = append(ck.Ops, opCheckpoint{ID: id, SelAcc: op.selAcc, Processed: op.processed, NextSeq: op.nextSeq})
		op.mu.Unlock()
	}
	n.sendersMu.Lock()
	for addr, s := range n.senders {
		s.mu.Lock()
		for k, seq := range s.marks {
			ck.Marks = append(ck.Marks, streamMark{Sender: addr, Stream: k.stream, Target: k.target, Seq: seq})
		}
		s.mu.Unlock()
	}
	n.sendersMu.Unlock()
	if !n.drained() || n.wal.Stats().LastSeq != pos {
		return false
	}
	sort.Slice(ck.Ops, func(i, j int) bool { return ck.Ops[i].ID < ck.Ops[j].ID })
	sort.Slice(ck.Marks, func(i, j int) bool {
		a, b := ck.Marks[i], ck.Marks[j]
		return a.Sender < b.Sender || a.Sender == b.Sender &&
			(a.Stream < b.Stream || a.Stream == b.Stream && a.Target < b.Target)
	})
	data, err := json.Marshal(&ck)
	if err == nil {
		err = wal.WriteFileAtomic(filepath.Join(n.cfg.WALDir, checkpointFile), data)
	}
	if err != nil {
		ev, _, _ := n.observer()
		ev.Emit(obs.LevelWarn, obs.EventWALError, "node", rs.nodeID(), "err", err.Error())
		return false
	}
	if err := n.wal.TruncateBefore(pos + 1); err != nil {
		ev, _, _ := n.observer()
		ev.Emit(obs.LevelWarn, obs.EventWALError, "node", rs.nodeID(), "err", err.Error())
	}
	n.checkpoints.Add(1)
	ev, _, _ := n.observer()
	ev.Emit(obs.LevelDebug, obs.EventCheckpoint,
		"node", rs.nodeID(), "walPos", int64(pos), "ops", len(ck.Ops), "marks", len(ck.Marks))
	return true
}

// loadJSON reads and decodes a JSON file, returning nil (no error) when
// the file does not exist and an error on unreadable or corrupt content.
func loadJSON[T any](path string) (*T, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return &v, nil
}
