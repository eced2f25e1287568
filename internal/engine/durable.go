package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"rodsp/internal/obs"
	"rodsp/internal/wal"
)

// Per-node durability layer (enabled by NodeConfig.WALDir).
//
// The design splits responsibility between the two ends of every durable
// link:
//
//   - The RECEIVER logs each sequence-bearing ingress batch to its WAL and
//     acks only after the fsync-batched group commit — so an acked batch
//     is recoverable, and an unacked one is by definition still retained
//     in the sender's outbox and will be re-sent on reconnect. Acks are
//     cumulative, so a frame whose successor has already arrived whole is
//     covered by that successor's ack (serveTuples).
//   - Duplicates from re-sends and replay are filtered by per-stream
//     max-Seq watermarks: "Seq ≤ watermark" is a duplicate. That is exact
//     only while each stream arrives in Seq order (sources emit dense
//     per-stream sequences, lanes preserve per-stream FIFO, one stream
//     reaches a node over one link). A restart in the middle of a burst
//     breaks the premise: replayed and re-sent tuples interleave, and the
//     rule then drops tuples that were never delivered (a known hole; the
//     benchmark once lost 512 that way). The watermarks are the node's
//     ONLY dedup state: they are checkpointed with the operator state and
//     re-advanced by replay.
//
// Checkpoints land only at drained moments (no in-flight durable
// admission, empty lanes, no worker mid-batch, empty outboxes including
// retained-unacked batches): at such a moment every logged input's effects
// are durable downstream — processed, shipped, and acked — so the WAL
// prefix can be truncated. The checkpoint captures the scalar operator
// state (selectivity accumulator, processed count) and the watermarks;
// windowed join contents restore empty, which is sound for the
// at-least-once gates because recover scenarios use selectivity-1 chains
// (documented limitation, as are runtime route mutations: recovery
// restores the spec persisted at deploy/start/stop, so migrations are not
// scheduled across a crash).
//
// Recovery (openDurability) runs before the node accepts any connection:
// restore the manifest's spec, apply the checkpoint, replay the WAL tail
// into the lane queues, then open the gates. Re-sent retained batches
// arriving afterwards dedup against the restored+replayed watermarks.

// walRecordTuples tags a WAL record holding admitted ingress tuples (tag
// byte followed by opTuples wire frames; a frame logged as received keeps
// its sequence field, which replay ignores). walRecordRetired is the tag the
// pre-opTuples binaries wrote; its frames are not decodable any more, and
// since every logged tuple was acked, such a record stops recovery.
const (
	walRecordTuples  byte = 0x02
	walRecordRetired byte = 0x01
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
}

// streamMark is one stream's dedup watermark.
type streamMark struct {
	Stream int32 `json:"stream"`
	Seq    int64 `json:"seq"`
}

// checkpointState is the drained-moment snapshot: everything before WalPos
// is truncated, everything after replays on recovery.
type checkpointState struct {
	WalPos uint64         `json:"walPos"`
	Ops    []opCheckpoint `json:"ops,omitempty"`
	Marks  []streamMark   `json:"marks,omitempty"`
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
	if err != nil {
		wl.Close()
		return fmt.Errorf("engine: reading checkpoint: %w", err)
	}
	if ck != nil {
		rs := n.route.Load()
		for _, oc := range ck.Ops {
			if op := rs.ops[oc.ID]; op != nil {
				op.mu.Lock()
				op.selAcc = oc.SelAcc
				op.processed = oc.Processed
				op.mu.Unlock()
			}
		}
		n.dedupMu.Lock()
		for _, mk := range ck.Marks {
			n.dedup[mk.Stream] = mk.Seq
		}
		n.dedupMu.Unlock()
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
	if m.Started {
		n.startNano.Store(m.StartNano)
		n.started.Store(true)
	}
	n.recovered.Store(true)
	return nil
}

// replayRecord re-admits one WAL record's tuples: advance the dedup
// watermarks (these tuples were admitted by the previous incarnation) and
// enqueue them into the lane queues. Records under an unknown tag are
// skipped, but a data record this binary cannot decode is an error: its
// tuples were acked, so starting without them would lose them silently.
func (n *Node) replayRecord(payload []byte) error {
	if len(payload) == 0 {
		return nil
	}
	switch payload[0] {
	case walRecordTuples:
	case walRecordRetired:
		return fmt.Errorf("tag 0x%02x holds tuples in the retired pre-opTuples format", walRecordRetired)
	default:
		return nil
	}
	tr := NewTupleReader(bytes.NewReader(payload[1:]))
	for {
		batch, err := tr.ReadBatch()
		if err == io.EOF {
			return nil // clean end between frames
		}
		if err != nil {
			return fmt.Errorf("tag 0x%02x: %w", walRecordTuples, err)
		}
		n.replayMarks(batch)
		n.replayed.Add(int64(len(batch)))
		n.enqueueInboundBatch(batch)
	}
}

// admission is one tuple connection's durable-admission scratch, reused
// frame after frame: the survivors of a frame with duplicates, the
// watermark advances the frame owes once it is durable, and the WAL record.
type admission struct {
	keep    []Tuple
	pending []markRun
	record  []byte
}

// admitDurable admits one sequence-bearing frame (batch, decoded from
// frame as received): filter it against the watermarks, log what
// survives, wait for the group commit, advance the watermarks and enqueue.
// The record is the tag byte and the frame as received when the filter
// kept all of it, the survivors re-encoded otherwise. On a WAL error
// nothing is admitted and no watermark moved, so the sender's re-send
// passes the filter again. The caller holds the sender's admission lock.
func (n *Node) admitDurable(batch []Tuple, frame []byte, a *admission) error {
	n.durableInflight.Add(1)
	defer n.durableInflight.Add(-1)
	kept := n.dedupFilter(batch, a)
	if len(kept) == 0 {
		return nil
	}
	a.record = append(a.record[:0], walRecordTuples)
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
	n.advanceMarks(a.pending)
	n.enqueueInboundBatch(kept)
	return nil
}

// The node applies two dedup rules, both per-stream max-Seq watermarks,
// both decided once per run of one stream instead of once per tuple:
//
//   - ingress (dedupFilter + advanceMarks): every tuple of a frame is
//     compared against its stream's mark as it stood when the frame
//     arrived; the marks advance to the highest kept Seq only once the
//     frame is durable. Replay (replayMarks) advances them the same way.
//   - sink (sinkDedup): a running rule in arrival order — a tuple at or
//     below the mark is a duplicate, any other becomes the mark.
//
// They differ inside a frame (a Seq that recurs or falls back within one
// frame passes ingress but not the sink); both are kept as they are until
// the rule itself changes.

// markRun is one pending watermark advance: the highest Seq the ingress
// filter kept from one run of a stream.
type markRun struct {
	stream int32
	seq    int64
}

// dedupFilter filters a durable ingress frame against the per-stream
// watermarks WITHOUT advancing them — advanceMarks applies a.pending only
// after the frame is durably logged, so a WAL failure never strands tuples
// behind an advanced watermark (the sender re-sends and they pass the
// filter again). It returns the tuples to admit: batch itself when nothing
// is a duplicate, else the survivors compacted into a.keep. Duplicates
// (re-sent retained frames covering tuples this node already logged) are
// counted and dropped — they are ledger-invisible, since the sender's
// `sent` counts each tuple exactly once (on ack). One stream arrives over
// one link and each connection is served sequentially, so
// filter-then-advance is not racy per stream.
func (n *Node) dedupFilter(batch []Tuple, a *admission) []Tuple {
	a.pending = a.pending[:0]
	dropped := 0
	n.dedupMu.Lock()
	for i := 0; i < len(batch); {
		sid := batch[i].Stream
		// A missing entry means the stream has never been admitted here —
		// sequences start at 0, so the zero value cannot double as "none".
		mk, seen := n.dedup[sid]
		hi, kept := int64(0), false
		for ; i < len(batch) && batch[i].Stream == sid; i++ {
			if seen && batch[i].Seq <= mk {
				if dropped == 0 {
					a.keep = append(a.keep[:0], batch[:i]...)
				}
				dropped++
				continue
			}
			if !kept || batch[i].Seq > hi {
				hi, kept = batch[i].Seq, true
			}
			if dropped > 0 {
				a.keep = append(a.keep, batch[i])
			}
		}
		if kept {
			a.pending = append(a.pending, markRun{sid, hi})
		}
	}
	n.dedupMu.Unlock()
	if dropped == 0 {
		return batch
	}
	n.dedupDropped.Add(int64(dropped))
	return a.keep
}

// advanceMarks applies dedupFilter's pending advances (their frame is now
// durable).
func (n *Node) advanceMarks(pending []markRun) {
	n.dedupMu.Lock()
	for _, p := range pending {
		if mk, seen := n.dedup[p.stream]; !seen || p.seq > mk {
			n.dedup[p.stream] = p.seq
		}
	}
	n.dedupMu.Unlock()
}

// replayMarks advances the watermarks over a replayed frame — its tuples
// were admitted by the previous incarnation — once per run.
func (n *Node) replayMarks(batch []Tuple) {
	n.dedupMu.Lock()
	for i := 0; i < len(batch); {
		sid, hi := batch[i].Stream, batch[i].Seq
		for i++; i < len(batch) && batch[i].Stream == sid; i++ {
			hi = max(hi, batch[i].Seq)
		}
		if mk, seen := n.dedup[sid]; !seen || hi > mk {
			n.dedup[sid] = hi
		}
	}
	n.dedupMu.Unlock()
}

// sinkDedup is the sink's rule over one delivered batch: compacts the
// admitted tuples to the front of batch, in arrival order, and returns them
// with the number of duplicates dropped. A run's mark is held in a local
// and written back to marks once, when the run admitted anything.
func sinkDedup(marks map[int32]int64, batch []Tuple) (admitted []Tuple, dups int64) {
	k := 0
	for i := 0; i < len(batch); {
		sid := batch[i].Stream
		// Missing entry = stream never seen; sequences start at 0, so the
		// map's zero value cannot stand in for "none".
		mk, seen := marks[sid]
		moved := false
		for ; i < len(batch) && batch[i].Stream == sid; i++ {
			if seen && batch[i].Seq <= mk {
				dups++ // duplicate delivery (recovery re-send)
				continue
			}
			mk, seen, moved = batch[i].Seq, true, true
			if k != i {
				batch[k] = batch[i]
			}
			k++
		}
		if moved {
			marks[sid] = mk
		}
	}
	return batch[:k], dups
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
		ck.Ops = append(ck.Ops, opCheckpoint{ID: id, SelAcc: op.selAcc, Processed: op.processed})
		op.mu.Unlock()
	}
	n.dedupMu.Lock()
	for sid, seq := range n.dedup {
		ck.Marks = append(ck.Marks, streamMark{Stream: sid, Seq: seq})
	}
	n.dedupMu.Unlock()
	if !n.drained() || n.wal.Stats().LastSeq != pos {
		return false
	}
	sort.Slice(ck.Ops, func(i, j int) bool { return ck.Ops[i].ID < ck.Ops[j].ID })
	sort.Slice(ck.Marks, func(i, j int) bool { return ck.Marks[i].Stream < ck.Marks[j].Stream })
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
