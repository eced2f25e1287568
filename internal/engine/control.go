package engine

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"rodsp/internal/query"
)

// Control plane: JSON request handling plus the route mutators. Mutators
// serialize on n.mu, clone the current route snapshot, edit the clone and
// publish it with one atomic store — the data plane keeps running against
// the old snapshot until the successor lands.

// controlRequest is one JSON control-plane message.
type controlRequest struct {
	Cmd      string         `json:"cmd"`
	Spec     *NodeSpec      `json:"spec,omitempty"`
	Op       *OpSpec        `json:"op,omitempty"`
	OpID     *int           `json:"opId,omitempty"`
	Routes   map[int][]Dest `json:"routes,omitempty"`
	Part     *PartitionSpec `json:"part,omitempty"`
	StallSec *float64       `json:"stallSec,omitempty"`
	Fault    *FaultSpec     `json:"fault,omitempty"`
}

// FaultSpec is the control-plane fault-injection command: sever/drop/delay
// an outbound link, clear faults, or kill the node outright (the process
// answers OK, then closes — restart it externally to recover).
type FaultSpec struct {
	Addr    string  `json:"addr,omitempty"`
	Sever   bool    `json:"sever,omitempty"`
	Drop    bool    `json:"drop,omitempty"`
	DelayMs float64 `json:"delayMs,omitempty"`
	Clear   bool    `json:"clear,omitempty"`
	Kill    bool    `json:"kill,omitempty"`
}

// ControlResponse answers a control request.
type ControlResponse struct {
	OK    bool       `json:"ok"`
	Err   string     `json:"err,omitempty"`
	Stats *NodeStats `json:"stats,omitempty"`
}

// LaneStats is one worker lane's slice of the node metrics (reported only
// when the node runs more than one lane).
type LaneStats struct {
	Lane      int     `json:"lane"`
	Queue     int     `json:"queue"`
	InFlight  int     `json:"inFlight,omitempty"`
	Processed int64   `json:"processed,omitempty"`
	Shed      int64   `json:"shed,omitempty"`
	BusySec   float64 `json:"busySec,omitempty"`
}

// NodeStats is the metrics snapshot the control plane reports.
type NodeStats struct {
	NodeID      int     `json:"nodeId"`
	Utilization float64 `json:"utilization"`
	QueueLen    int     `json:"queueLen"`
	Injected    int64   `json:"injected"`
	Emitted     int64   `json:"emitted"`
	ElapsedSec  float64 `json:"elapsedSec"`

	// WorkerInFlight counts tuples the workers have dequeued but not yet
	// finished processing and routing: admitted work that QueueLen no
	// longer covers (a costly batch can hold it for hundreds of ms).
	WorkerInFlight int64 `json:"workerInFlight,omitempty"`

	// Workers is the node's worker-lane count; Lanes breaks the queue,
	// in-flight, processed and shed figures down per lane when Workers > 1
	// (so skewed lane assignment is visible).
	Workers int         `json:"workers,omitempty"`
	Lanes   []LaneStats `json:"lanes,omitempty"`

	// Load-shedding accounting: tuples refused by the bounded ingress
	// queue, total and per stream.
	Shed         int64         `json:"shed,omitempty"`
	ShedByStream map[int]int64 `json:"shedByStream,omitempty"`

	// DroppedNoRoute counts tuples discarded because they had neither a
	// local consumer nor a route onward (a routing gap — each affected
	// stream also emits one no_route warn event).
	DroppedNoRoute int64 `json:"droppedNoRoute,omitempty"`

	// PartCounts reports, per keyed stream, the cumulative tuples routed
	// through each partition slot. Only a splitter's home accumulates
	// counts (every keyed tuple crosses it exactly once), so summing over
	// nodes never double-counts.
	PartCounts map[int][]int64 `json:"partCounts,omitempty"`

	// Outbox accounting summed over peers: enqueued == sent + dropped +
	// pending at quiescence. Reconnects counts links re-established after
	// a failure; SendMaxMs is the worst wall time one send() spent handing
	// tuples to an outbox, a send still in progress counted by its time so
	// far: bounded on a node without a WAL, whose worker never blocks, and
	// including the wait for room on a node with one.
	OutboxEnqueued int64   `json:"outboxEnqueued,omitempty"`
	OutboxSent     int64   `json:"outboxSent,omitempty"`
	OutboxDropped  int64   `json:"outboxDropped,omitempty"`
	OutboxPending  int64   `json:"outboxPending,omitempty"`
	PeerReconnects int64   `json:"peerReconnects,omitempty"`
	SendMaxMs      float64 `json:"sendMaxMs,omitempty"`

	// Per-operator measured cost and selectivity (the Section 7.1 trial-run
	// statistics used to build load models).
	OpCost map[int]float64 `json:"opCost,omitempty"`
	OpSel  map[int]float64 `json:"opSel,omitempty"`

	// Durability accounting (only when the node runs a WAL, except
	// DedupDropped). WALRecords / WALSyncs / WALBytes mirror the log's
	// counters; Checkpoints counts landed (drained-moment) checkpoints;
	// Replayed is the tuple count re-admitted from the WAL at the last
	// recovery; DedupDropped counts duplicate tuples the sender marks
	// discarded (re-sent retained batches from a sender with a WAL, which
	// a node without one filters too); Recovered marks a node that
	// restored state or backlog from a prior incarnation's WAL directory.
	WALActive    bool  `json:"walActive,omitempty"`
	WALRecords   int64 `json:"walRecords,omitempty"`
	WALSyncs     int64 `json:"walSyncs,omitempty"`
	WALBytes     int64 `json:"walBytes,omitempty"`
	Checkpoints  int64 `json:"checkpoints,omitempty"`
	Replayed     int64 `json:"replayed,omitempty"`
	DedupDropped int64 `json:"dedupDropped,omitempty"`
	Recovered    bool  `json:"recovered,omitempty"`
}

func (n *Node) serveControl(br *bufio.Reader, conn net.Conn) {
	enc := json.NewEncoder(conn)
	dec := json.NewDecoder(br)
	for {
		var req controlRequest
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := n.handleControl(&req)
		if err := enc.Encode(resp); err != nil {
			return
		}
		if req.closes() {
			// Answered; now die. Close waits for this goroutine, so it
			// runs on its own.
			go n.Close()
			return
		}
	}
}

// closes reports whether the request, once answered, closes the node: a
// kill fault or a restart.
func (req *controlRequest) closes() bool {
	return req.Cmd == "restart" || req.Cmd == "fault" && req.Fault != nil && req.Fault.Kill
}

func (n *Node) handleControl(req *controlRequest) *ControlResponse {
	switch req.Cmd {
	case "deploy":
		if req.Spec == nil {
			return &ControlResponse{Err: "deploy without spec"}
		}
		if err := n.deploy(req.Spec); err != nil {
			return &ControlResponse{Err: err.Error()}
		}
		n.persistManifest()
		return &ControlResponse{OK: true}
	case "start":
		n.mu.Lock()
		n.startNano.Store(time.Now().UnixNano())
		n.busy.Store(0)
		n.injected.Store(0)
		n.emitted.Store(0)
		for _, l := range n.lanes {
			l.busy.Store(0)
		}
		n.started.Store(true)
		n.mu.Unlock()
		n.persistManifest()
		return &ControlResponse{OK: true}
	case "stats":
		return &ControlResponse{OK: true, Stats: n.Stats()}
	case "addop":
		if req.Op == nil {
			return &ControlResponse{Err: "addop without op"}
		}
		n.addOp(req.Op, req.Routes)
		return &ControlResponse{OK: true}
	case "removeop":
		if req.OpID == nil {
			return &ControlResponse{Err: "removeop without opId"}
		}
		if err := n.removeOp(*req.OpID, req.Routes); err != nil {
			return &ControlResponse{Err: err.Error()}
		}
		return &ControlResponse{OK: true}
	case "repart":
		if req.Part == nil {
			return &ControlResponse{Err: "repart without partition spec"}
		}
		if err := n.repart(req.Part); err != nil {
			return &ControlResponse{Err: err.Error()}
		}
		return &ControlResponse{OK: true}
	case "stall":
		if req.StallSec == nil || *req.StallSec < 0 {
			return &ControlResponse{Err: "stall needs a non-negative duration"}
		}
		n.stall(*req.StallSec)
		return &ControlResponse{OK: true}
	case "fault":
		if req.Fault == nil {
			return &ControlResponse{Err: "fault without spec"}
		}
		switch f := req.Fault; {
		case f.Kill:
			// serveControl closes the node once the answer is written.
		case f.Clear:
			n.ClearLinkFault(f.Addr)
		default:
			if f.Addr == "" {
				return &ControlResponse{Err: "fault needs an addr (or clear/kill)"}
			}
			n.SetLinkFault(f.Addr, LinkFault{
				Sever: f.Sever,
				Drop:  f.Drop,
				Delay: time.Duration(f.DelayMs * float64(time.Millisecond)),
			})
		}
		return &ControlResponse{OK: true}
	case "stop":
		n.started.Store(false)
		n.persistManifest()
		return &ControlResponse{OK: true}
	case "restart":
		// Like kill, but flags the intent: a supervisor (rodnode's main
		// loop, or the coordinator's RestartNode) observes
		// RestartRequested and recreates the node on the same address and
		// WAL directory, which replays the log and recovers. serveControl
		// closes the node once the answer is written.
		n.restartIntent.Store(true)
		return &ControlResponse{OK: true}
	default:
		return &ControlResponse{Err: fmt.Sprintf("unknown command %q", req.Cmd)}
	}
}

func (n *Node) deploy(spec *NodeSpec) error {
	for i := range spec.Parts {
		if err := spec.Parts[i].validate(); err != nil {
			return err
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started.Load() {
		return errors.New("engine: cannot deploy while started")
	}
	rs := emptyRouteState()
	rs.spec = spec
	for i := range spec.Parts {
		rs.stream(spec.Parts[i].Stream).part = newPartTable(&spec.Parts[i])
	}
	for _, os := range spec.Ops {
		rs.ops[os.ID] = newLiveOp(os)
	}
	for sid, dests := range spec.Routes {
		sr := rs.stream(sid)
		for _, d := range dests {
			if d.Local {
				sr.subs = append(sr.subs, d.LocalOp)
			} else {
				sr.fwd = append(sr.fwd, d)
			}
		}
	}
	for sid, x := range spec.XferCost {
		rs.stream(sid).xfer = x
	}
	n.publish(rs)
	return nil
}

// publish completes an edited clone and makes it the live snapshot. Callers
// hold n.mu.
func (n *Node) publish(rs *routeState) {
	rs.complete(n.workers, n.capacity)
	n.route.Store(rs)
}

func newLiveOp(spec OpSpec) *liveOp {
	lo := &liveOp{spec: spec, sideOf: map[int]int{}}
	for i, in := range spec.Inputs {
		if i < 2 {
			lo.sideOf[in] = i
		}
	}
	return lo
}

// addOp installs one operator at runtime, merges the supplied forwards for
// what it produces, and deletes the relay entries its earlier departure
// from this node left: its tuples stop following it away once it is here.
// Local subscriptions are the deployed spec's alone — deploy installs them
// and nothing removes them — so an operator moved in takes only the copies
// addressed to it, and one returning to its deployed home takes the
// untargeted tuples again, starting with those still queued. Its outputs
// are numbered from the node clock, the floor recovery uses: fewer than one
// output per nanosecond since any earlier instance here started keeps the
// new numbers above everything that instance sent.
func (n *Node) addOp(spec *OpSpec, routes map[int][]Dest) {
	n.mu.Lock()
	defer n.mu.Unlock()
	rs := n.route.Load().clone()
	lo := newLiveOp(*spec)
	lo.nextSeq = time.Now().UnixNano()
	rs.ops[spec.ID] = lo
	for _, sr := range rs.streams {
		delete(sr.relay, spec.ID)
	}
	for sid, dests := range routes {
		sr := rs.stream(sid)
		for _, d := range dests {
			if !d.Local && !slices.ContainsFunc(sr.fwd, func(e Dest) bool { return e.Addr == d.Addr }) {
				sr.fwd = append(sr.fwd, d)
			}
		}
	}
	n.publish(rs)
}

// removeOp uninstalls one operator and records, on each input stream the
// relay map names, the node it went to: the lane workers copy its queued
// and future tuples there, addressed to it (see processRun). Without an
// entry its tuples here have no route.
func (n *Node) removeOp(id int, relay map[int][]Dest) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	rs := n.route.Load().clone()
	if _, ok := rs.ops[id]; !ok {
		return fmt.Errorf("engine: operator %d not deployed here", id)
	}
	delete(rs.ops, id)
	for sid, dests := range relay {
		for _, d := range dests {
			if d.Local {
				continue
			}
			sr := rs.stream(sid)
			if sr.relay == nil {
				sr.relay = map[int]string{}
			}
			sr.relay[id] = d.Addr
		}
	}
	n.publish(rs)
	return nil
}

// validate rejects a partition table the data plane could not index: the
// slot table has query.ShardSlots entries (slotOf's range), each naming one
// of the K shards.
func (ps *PartitionSpec) validate() error {
	if ps.K < 1 || len(ps.Shards) != ps.K || len(ps.Ops) != ps.K || len(ps.Slots) != query.ShardSlots {
		return fmt.Errorf("engine: stream %d: malformed partition table (k=%d, %d shards, %d ops, %d slots)",
			ps.Stream, ps.K, len(ps.Shards), len(ps.Ops), len(ps.Slots))
	}
	for _, s := range ps.Slots {
		if s < 0 || s >= ps.K {
			return fmt.Errorf("engine: stream %d: slot shard %d outside [0,%d)", ps.Stream, s, ps.K)
		}
	}
	return nil
}

// repart installs or replaces the keyed routing table of one sharded
// stream at runtime (slot reassignment, or a post-migration table push).
// Per-slot counters survive the swap so observed slot rates keep
// accumulating.
func (n *Node) repart(ps *PartitionSpec) error {
	if err := ps.validate(); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	rs := n.route.Load().clone()
	sr := rs.stream(ps.Stream)
	pt := newPartTable(ps)
	if sr.part != nil {
		pt.counts = sr.part.counts
	}
	sr.part = pt
	n.publish(rs)
	return nil
}
