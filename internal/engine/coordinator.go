package engine

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"sync"
	"time"

	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/trace"
)

// ControlClient is a JSON control-plane connection to one node.
type ControlClient struct {
	conn net.Conn
	enc  *json.Encoder
	dec  *json.Decoder
	mu   sync.Mutex
}

// DialControl opens a control connection to a node.
func DialControl(addr string) (*ControlClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, fmt.Errorf("engine: dialing control %s: %w", addr, err)
	}
	if _, err := conn.Write([]byte{connControl}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("engine: control preamble: %w", err)
	}
	return &ControlClient{
		conn: conn,
		enc:  json.NewEncoder(conn),
		dec:  json.NewDecoder(bufio.NewReader(conn)),
	}, nil
}

// Close closes the control connection.
func (c *ControlClient) Close() error { return c.conn.Close() }

func (c *ControlClient) call(req *controlRequest) (*ControlResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("engine: control send: %w", err)
	}
	var resp ControlResponse
	if err := c.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("engine: control recv: %w", err)
	}
	if !resp.OK {
		return nil, fmt.Errorf("engine: node error: %s", resp.Err)
	}
	return &resp, nil
}

// Deploy ships a node spec.
func (c *ControlClient) Deploy(spec *NodeSpec) error {
	_, err := c.call(&controlRequest{Cmd: "deploy", Spec: spec})
	return err
}

// Start begins paced execution and resets metrics.
func (c *ControlClient) Start() error {
	_, err := c.call(&controlRequest{Cmd: "start"})
	return err
}

// Stop pauses paced execution.
func (c *ControlClient) Stop() error {
	_, err := c.call(&controlRequest{Cmd: "stop"})
	return err
}

// Stats fetches the node's metrics snapshot.
func (c *ControlClient) Stats() (*NodeStats, error) {
	resp, err := c.call(&controlRequest{Cmd: "stats"})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// Fault injects (or clears) a fault on the node: sever/drop/delay an
// outbound link, or kill the node entirely (it acknowledges, then closes).
func (c *ControlClient) Fault(spec FaultSpec) error {
	_, err := c.call(&controlRequest{Cmd: "fault", Fault: &spec})
	return err
}

// Restart asks the node to close with restart intent: a supervisor
// (rodnode's main loop, or Cluster.RestartNode) recreates it on the same
// address and WAL directory, recovering its state.
func (c *ControlClient) Restart() error {
	_, err := c.call(&controlRequest{Cmd: "restart"})
	return err
}

// DefaultLatencyReservoir is how many latency samples the collector
// retains for quantile estimation (a uniform reservoir over the whole run).
const DefaultLatencyReservoir = 200000

// Collector receives sink tuples and measures end-to-end latency. Retained
// samples form a uniform reservoir (Vitter's algorithm R) over the entire
// run, so long runs estimate quantiles over all traffic instead of biasing
// toward startup as a plain prefix cap would.
type Collector struct {
	ln net.Listener
	mu sync.Mutex
	wg sync.WaitGroup

	latencies []float64
	cap       int
	rng       *rand.Rand
	count     int64
	latSumNs  float64 // admitted latencies, ns: exact below 2⁵³
	closing   bool
	conns     map[net.Conn]bool

	hist      *obs.Histogram // optional; set via SetObserver
	sinkCount *obs.Counter
	stages    *obs.StageSet
	events    *obs.EventLog

	// At-least-once sink dedup (SetDedup): the engine's one rule, with one
	// seqMarks per sender. A duplicate delivery is counted and excluded
	// from every latency/count statistic, so the kill-and-recover ledger
	// can gate on Duplicates() == 0.
	dedup bool
	marks map[string]seqMarks
	adm   admission
	dups  int64
}

// NewCollector starts a collector on addr.
func NewCollector(addr string) (*Collector, error) { return newCollector(addr, nil) }

// newCollector starts a collector on addr that also hands every batch it
// admits to tap, when tap is set.
func newCollector(addr string, tap func([]Tuple)) (*Collector, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("engine: collector listen: %w", err)
	}
	c := &Collector{
		ln:    ln,
		cap:   DefaultLatencyReservoir,
		rng:   rand.New(rand.NewSource(1)),
		conns: map[net.Conn]bool{},
	}
	c.wg.Add(1)
	go c.accept(tap)
	return c, nil
}

// SetSampleCap resizes the latency reservoir (tests and memory-constrained
// runs); existing overflow samples are truncated.
func (c *Collector) SetSampleCap(n int) {
	if n <= 0 {
		n = DefaultLatencyReservoir
	}
	c.mu.Lock()
	c.cap = n
	if len(c.latencies) > n {
		c.latencies = c.latencies[:n]
	}
	c.mu.Unlock()
}

// Addr returns the collector's address.
func (c *Collector) Addr() string { return c.ln.Addr().String() }

// SetObserver mirrors sink latencies into an obs histogram and counter,
// records traced tuples' final deliver stage into stages, and emits a sink
// trace span for every tuple that arrives flagged. Any argument may be nil.
// The trailing sampling stride is unused: trace context survives every hop,
// so the sink never re-derives which tuples were sampled. The parameter
// stays because benchmark/ (frozen) passes it.
func (c *Collector) SetObserver(h *obs.Histogram, count *obs.Counter, stages *obs.StageSet, ev *obs.EventLog, _ int64) {
	c.mu.Lock()
	c.hist, c.sinkCount, c.stages, c.events = h, count, stages, ev
	c.mu.Unlock()
}

// SetDedup enables (or disables) duplicate-delivery filtering at the sink:
// the rule nodes apply at ingress (seqMarks), keyed by (sender, stream,
// target) — the sender from the connection's hello, the Seq as the
// producing node numbered it — drops any tuple already delivered. Used by
// durable runs, whose ledger requires exactly-once *observable* delivery on
// top of the engine's at-least-once transport. Enabling resets the marks
// and the duplicate count.
func (c *Collector) SetDedup(on bool) {
	c.mu.Lock()
	c.dedup = on
	c.marks = map[string]seqMarks{}
	c.dups = 0
	c.mu.Unlock()
}

// Duplicates returns how many duplicate deliveries the sink dedup filter
// has dropped (0 unless SetDedup is enabled).
func (c *Collector) Duplicates() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dups
}

// recordBatch folds one decoded batch from sender from, received at wall
// time now, into the sink statistics under a single c.mu acquisition: the
// dedup rule (seqMarks) first, then per admitted tuple, in arrival order,
// the count, the latency sum and the uniform reservoir (one rng draw per
// admitted tuple past the cap, exactly as if each tuple had been recorded
// on its own). The latency sum is taken per batch as an exact int64 of
// nanoseconds and added into latSumNs, which is exact while the total
// stays below 2⁵³ ns, so any batching of one arrival sequence gives the
// same mean. The observers — counter, histogram, and a traced tuple's
// deliver stage and sink span — are fed after the unlock. It returns the
// admitted tuples: batch compacted in place, so the caller's slab is
// overwritten.
func (c *Collector) recordBatch(batch []Tuple, from string, now int64) []Tuple {
	c.mu.Lock()
	admitted := batch
	if c.dedup {
		m := c.marks[from]
		if m == nil {
			m = seqMarks{}
			c.marks[from] = m
		}
		var dups int64
		c.adm.keep = batch[:0] // the survivors compact into batch itself
		admitted, dups = m.filter(batch, &c.adm)
		m.advance(c.adm.pending)
		c.dups += dups
	}
	var sumNs int64
	for i := range admitted {
		ns := now - admitted[i].Ts
		lat := float64(ns) / float64(time.Second)
		sumNs += ns
		c.count++
		if len(c.latencies) < c.cap {
			c.latencies = append(c.latencies, lat)
		} else if j := c.rng.Int63n(c.count); int(j) < c.cap {
			c.latencies[j] = lat
		}
	}
	c.latSumNs += float64(sumNs)
	hist, count, stages, ev := c.hist, c.sinkCount, c.stages, c.events
	c.mu.Unlock()

	if count != nil {
		count.Add(int64(len(admitted)))
	}
	for i := range admitted {
		t := &admitted[i]
		lat := float64(now-t.Ts) / float64(time.Second)
		if hist != nil {
			hist.Observe(lat)
		}
		if t.Flags&TupleTraced != 0 {
			// Final stage boundary: the latency is computed at the same
			// instant, so the tuple's stage durations telescope to exactly
			// this sink latency.
			var deliver float64
			if t.TraceTs > 0 {
				deliver = float64(now-t.TraceTs) / float64(time.Second)
			}
			stages.Observe(obs.StageDeliver, deliver)
			ev.Emit(obs.LevelDebug, obs.EventSpan, "stage", "sink",
				"stream", int(t.Stream), "seq", t.Seq, "ts", t.Ts,
				"deliver", deliver, "latency", lat)
		}
	}
	return admitted
}

func (c *Collector) accept(tap func([]Tuple)) {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		c.conns[conn] = true
		c.mu.Unlock()
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			defer func() {
				conn.Close()
				c.mu.Lock()
				delete(c.conns, conn)
				c.mu.Unlock()
			}()
			c.serve(conn, tap)
		}()
	}
}

// serve records one tuple connection's batches until it ends, and acks
// each sequenced frame (every frame from a node with a WAL) once recorded,
// so the sender releases it from its ring. The ack follows serveTuples'
// rule: it is skipped when the read buffer already holds the whole next
// sequenced frame, whose ack covers both. Nothing here waits on a lane or
// a ring, which the senders' wait argument relies on (see outbox.go).
func (c *Collector) serve(conn net.Conn, tap func([]Tuple)) {
	br := bufio.NewReaderSize(conn, tupleConnBuffer)
	kind, err := br.ReadByte()
	if err != nil || kind != connTuples {
		return
	}
	tr := NewTupleReader(br)
	for {
		batch, err := tr.ReadBatch()
		if err != nil {
			return
		}
		_, from, _ := tr.Hello()
		admitted := c.recordBatch(batch, from, time.Now().UnixNano())
		if tap != nil {
			tap(admitted)
		}
		if seq, ok := tr.BatchSeq(); ok && !seqFrameBuffered(br) {
			if writeAck(conn, seq) != nil {
				return
			}
		}
	}
}

// LatencyStats returns (count, mean, p95, p99, max) in seconds. With no
// retained samples the quantiles are zero (obs.Quantiles never panics on
// an empty set, unlike stats.Percentile).
func (c *Collector) LatencyStats() (int64, float64, float64, float64, float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	qs, ok := obs.Quantiles(c.latencies, 95, 99, 100)
	if !ok {
		return c.count, 0, 0, 0, 0
	}
	return c.count, c.latSumNs / float64(c.count) / float64(time.Second), qs[0], qs[1], qs[2]
}

// LatencySummary digests the retained latencies into the shared summary
// form (ok=false with no samples) — the same digest the simulator reports.
// Count is the exact observation total; Retained is the reservoir size the
// quantiles were estimated from.
func (c *Collector) LatencySummary() (obs.LatencySummary, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := obs.Summarize(c.latencies)
	if ok {
		s.Count = c.count // retained reservoir is capped; count is exact
	}
	return s, ok
}

// Reset clears the latency statistics and the duplicate count. The dedup
// marks stay, so a duplicate arriving after a Reset is still caught;
// SetDedup is what clears them.
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.latencies = c.latencies[:0]
	c.count = 0
	c.latSumNs = 0
	c.dups = 0
}

// Close shuts the collector down.
func (c *Collector) Close() error {
	err := c.ln.Close()
	c.mu.Lock()
	for conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
	return err
}

// SourceDriver injects tuples for one input stream at trace-driven rates to
// every node hosting a consumer of that stream.
type SourceDriver struct {
	Stream query.StreamID
	Trace  *trace.Trace
	Addrs  []string // destination node data addresses

	// Speedup compresses trace time: a Speedup of 10 plays 10 trace seconds
	// per wall second (rates scale accordingly). Default 1.
	Speedup float64
	// MaxRate caps the injection rate (tuples/second wall time) to protect
	// the host; 0 = no cap.
	MaxRate float64
	// TickInterval is the injection scheduler period. Default 2ms. Delivery
	// is integrated over the *measured* inter-tick elapsed time, so a
	// coarse or delayed tick still injects the trace's full tuple count.
	TickInterval time.Duration

	// Count, when set, is incremented once per injected tuple; wire it to
	// Monitor.SourceCounter so the monitor can estimate the stream's rate.
	Count *obs.Counter

	// Keys, when set, stamps each injected tuple's partition key (e.g. a
	// seeded Zipfian generator from internal/workload). Keyed tuples carry
	// the key on the wire and route through partition tables downstream;
	// nil leaves tuples unkeyed (slot fallback hashes the sequence number).
	Keys func() uint64

	// TraceEvery flags 1 in TraceEvery tuples (per-stream rotating offset)
	// with trace context at the source, stamping the origin timestamp as
	// the first stage boundary so downstream hops decompose the end-to-end
	// latency. 0 disables source-side marking.
	TraceEvery int64

	// Dropped counts per-destination sends skipped because that
	// destination's connection died mid-run (the driver keeps feeding the
	// surviving destinations instead of aborting). Read it after Run.
	Dropped int64
}

// srcDest is one destination connection; dead once a send/flush failed.
type srcDest struct {
	tw   *TupleWriter
	dead bool
}

// Run injects for the given wall-clock duration or until stop is closed.
// It returns the number of tuples injected. A destination whose connection
// fails mid-run is dropped (counted in Dropped) while the remaining
// destinations keep receiving; Run errors only when no destination is left.
func (s *SourceDriver) Run(duration time.Duration, stop <-chan struct{}) (int64, error) {
	speed := s.Speedup
	if speed <= 0 {
		speed = 1
	}
	tickEvery := s.TickInterval
	if tickEvery <= 0 {
		tickEvery = 2 * time.Millisecond
	}
	dests := make([]*srcDest, len(s.Addrs))
	for i, addr := range s.Addrs {
		conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
		if err != nil {
			return 0, fmt.Errorf("engine: source dial %s: %w", addr, err)
		}
		tw, err := NewTupleWriter(conn)
		if err != nil {
			conn.Close()
			return 0, err
		}
		dests[i] = &srcDest{tw: tw}
		defer conn.Close()
	}
	start := time.Now()
	var seq int64
	var injected int64
	ticker := time.NewTicker(tickEvery)
	defer ticker.Stop()
	var batch []Tuple // reused per tick; SendBatch copies before returning
	var carry float64
	lastElapsed := 0.0
	for {
		select {
		case <-stop:
			s.flushAll(dests)
			return injected, nil
		case now := <-ticker.C:
			es := now.Sub(start).Seconds()
			end := false
			if es >= duration.Seconds() {
				// Clamp the final interval to the requested duration so the
				// delivered count matches the trace integral over [0, duration].
				es = duration.Seconds()
				end = true
			}
			// Integrate by measured inter-tick elapsed time: a tick delayed
			// by the scheduler injects proportionally more, instead of
			// silently under-delivering a fixed per-tick quantum.
			dt := es - lastElapsed
			lastElapsed = es
			traceTime := es * speed
			rate := s.Trace.RateAt(traceTime) * speed
			if s.MaxRate > 0 && rate > s.MaxRate {
				rate = s.MaxRate
			}
			carry += rate * dt
			k := int(carry)
			carry -= float64(k)
			if k > 0 {
				batch = batch[:0]
				for i := 0; i < k; i++ {
					t := Tuple{Stream: int32(s.Stream), Ts: time.Now().UnixNano(), Seq: seq}
					if s.Keys != nil {
						t.Key = s.Keys()
					}
					if s.TraceEvery > 0 && tracePick(s.TraceEvery, t) {
						t.Flags = TupleTraced
						t.TraceTs = t.Ts
					}
					batch = append(batch, t)
					seq++
				}
				alive := 0
				for _, d := range dests {
					if d.dead {
						s.Dropped += int64(k)
						continue
					}
					if err := d.tw.SendBatch(batch); err != nil {
						d.dead = true
						s.Dropped += int64(k)
						continue
					}
					alive++
				}
				if alive == 0 {
					return injected, fmt.Errorf("engine: source %d: every destination failed", s.Stream)
				}
				injected += int64(k)
				if s.Count != nil {
					s.Count.Add(int64(k))
				}
			}
			if err := s.flushAll(dests); err != nil {
				return injected, err
			}
			if end {
				return injected, nil
			}
		}
	}
}

// flushAll flushes every live destination, marking failures dead; it errors
// only when no destination remains.
func (s *SourceDriver) flushAll(dests []*srcDest) error {
	alive := 0
	for _, d := range dests {
		if d.dead {
			continue
		}
		if err := d.tw.Flush(); err != nil {
			d.dead = true
			continue
		}
		alive++
	}
	if alive == 0 && len(dests) > 0 {
		return fmt.Errorf("engine: source %d: every destination failed", s.Stream)
	}
	return nil
}

// Cluster is an in-process engine cluster: N nodes plus a collector, with
// deployment and measurement helpers — the harness the prototype
// experiments and examples drive.
type Cluster struct {
	Nodes     []*Node
	Controls  []*ControlClient
	Collector *Collector

	external    bool
	remoteAddrs []string

	// Launch parameters retained so RestartNode can recreate a node with
	// the same capacity, config and WAL directory it was born with.
	caps []float64
	cfg  NodeConfig

	events  *obs.EventLog // nil-safe; set via SetEvents or StartMonitor
	monitor *Monitor

	// Keyed-stream bookkeeping, recorded at Deploy: the live slot tables
	// and replica sets (see shard.go), plus the plan whose NodeOf tracks
	// migrations so table pushes resolve replica homes correctly. homes is
	// the deployed placement itself, which migrations leave alone: the
	// nodes whose specs subscribe each operator (see MoveOperator).
	shardMu sync.Mutex
	shards  map[int]*shardState
	plan    *placement.Plan
	homes   []int
}

// SetEvents attaches an event log to the cluster's control plane: deploys,
// node connect/disconnect and swallowed control errors become events. It
// records the current membership as node_connect events.
func (cl *Cluster) SetEvents(ev *obs.EventLog) {
	cl.events = ev
	for i, addr := range cl.Addrs() {
		ev.Emit(obs.LevelInfo, obs.EventNodeConnect, "node", i, "addr", addr, "external", cl.external)
	}
}

// ConnectCluster attaches to externally started nodes (e.g. rodnode
// processes) by address, starting a local collector for sink latencies.
// The attached Cluster's Close closes the control connections and the
// collector but leaves the remote nodes running.
func ConnectCluster(addrs []string) (*Cluster, error) {
	cl := &Cluster{external: true}
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl.Collector = col
	for _, addr := range addrs {
		ctl, err := DialControl(addr)
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.Controls = append(cl.Controls, ctl)
		cl.remoteAddrs = append(cl.remoteAddrs, addr)
	}
	return cl, nil
}

// StartCluster launches n nodes with the given capacities on ephemeral
// localhost ports, plus a collector.
func StartCluster(capacities []float64) (*Cluster, error) {
	return StartClusterConfig(capacities, NodeConfig{})
}

// StartClusterConfig launches a cluster whose nodes share the given
// data-plane resilience configuration (queue bounds, shed policy, outbox
// sizing, reconnect backoff).
func StartClusterConfig(capacities []float64, cfg NodeConfig) (*Cluster, error) {
	cl := &Cluster{caps: append([]float64(nil), capacities...), cfg: cfg}
	col, err := NewCollector("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cl.Collector = col
	for i, c := range capacities {
		node, err := NewNodeConfig("127.0.0.1:0", c, cl.nodeConfig(i))
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.Nodes = append(cl.Nodes, node)
		ctl, err := DialControl(node.Addr())
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.Controls = append(cl.Controls, ctl)
	}
	return cl, nil
}

// nodeConfig derives node i's NodeConfig from the cluster template: when a
// WAL root is set, each node gets its own index-keyed subdirectory (stable
// across restarts, so RestartNode recovers from the same directory).
func (cl *Cluster) nodeConfig(i int) NodeConfig {
	cfg := cl.cfg
	if cfg.WALDir != "" {
		cfg.WALDir = filepath.Join(cfg.WALDir, fmt.Sprintf("n%d", i))
	}
	return cfg
}

// RestartNode simulates a crash-and-supervise cycle for in-process node i:
// close the current incarnation (dropping everything not on its WAL), then
// recreate it on the SAME data-plane address with the same capacity and WAL
// directory so it recovers its state and peers reconnect transparently. The
// old listener's port is rebound with a short retry window.
func (cl *Cluster) RestartNode(i int) error {
	if cl.external {
		return fmt.Errorf("engine: cannot restart external node %d", i)
	}
	if i < 0 || i >= len(cl.Nodes) || cl.Nodes[i] == nil {
		return fmt.Errorf("engine: restart: no such node %d", i)
	}
	addr := cl.Nodes[i].Addr()
	if ctl := cl.Controls[i]; ctl != nil {
		ctl.Close()
		cl.Controls[i] = nil
	}
	cl.Nodes[i].Close()
	cl.Nodes[i] = nil
	var node *Node
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		node, err = NewNodeConfig(addr, cl.caps[i], cl.nodeConfig(i))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("engine: restart node %d: %w", i, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	ctl, err := DialControl(node.Addr())
	if err != nil {
		node.Close()
		return fmt.Errorf("engine: restart node %d: %w", i, err)
	}
	cl.Nodes[i] = node
	cl.Controls[i] = ctl
	cl.events.Emit(obs.LevelInfo, obs.EventNodeRestart, "node", i, "addr", addr)
	return nil
}

// Addrs returns the data-plane addresses of the nodes.
func (cl *Cluster) Addrs() []string {
	if cl.external {
		out := make([]string, len(cl.remoteAddrs))
		copy(out, cl.remoteAddrs)
		return out
	}
	out := make([]string, len(cl.Nodes))
	for i, n := range cl.Nodes {
		out[i] = n.Addr()
	}
	return out
}

// Deploy compiles and ships a graph+plan, routing sinks to the collector.
func (cl *Cluster) Deploy(g *query.Graph, plan *placement.Plan, capacities []float64) error {
	specs, err := BuildSpecs(g, plan, capacities, cl.Addrs(), cl.Collector.Addr())
	if err != nil {
		return err
	}
	groups, err := query.ShardGroups(g)
	if err != nil {
		return err
	}
	cl.shardMu.Lock()
	cl.plan = plan
	cl.homes = append([]int(nil), plan.NodeOf...)
	cl.shards = map[int]*shardState{}
	for _, grp := range groups {
		cl.shards[int(grp.Stream)] = &shardState{
			parent: grp.Parent,
			split:  grp.Split,
			k:      grp.K,
			slots:  query.UniformSlots(grp.K),
			ops:    append([]query.OpID(nil), grp.Replicas...),
		}
	}
	cl.shardMu.Unlock()
	for i, spec := range specs {
		if err := cl.Controls[i].Deploy(spec); err != nil {
			cl.events.Emit(obs.LevelWarn, obs.EventControlError, "op", "deploy", "node", i, "err", err.Error())
			return fmt.Errorf("engine: deploying to node %d: %w", i, err)
		}
		cl.events.Emit(obs.LevelInfo, obs.EventDeploy, "node", i, "ops", len(spec.Ops))
	}
	return nil
}

// Start begins paced execution on every node.
func (cl *Cluster) Start() error {
	for i, ctl := range cl.Controls {
		if err := ctl.Start(); err != nil {
			return fmt.Errorf("engine: starting node %d: %w", i, err)
		}
	}
	return nil
}

// Stop pauses every node. Only the first error is returned, but every
// failure surfaces in the event log.
func (cl *Cluster) Stop() error {
	var first error
	for i, ctl := range cl.Controls {
		if err := ctl.Stop(); err != nil {
			cl.events.Emit(obs.LevelWarn, obs.EventControlError, "op", "stop", "node", i, "err", err.Error())
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// Stats gathers every node's snapshot. A node whose control channel fails
// yields a nil entry plus a control_error event instead of aborting the
// whole poll, so the monitor keeps observing the survivors through a
// single-node failure; the error is non-nil only when every node failed.
func (cl *Cluster) Stats() ([]*NodeStats, error) {
	out := make([]*NodeStats, len(cl.Controls))
	var firstErr error
	failed := 0
	for i, ctl := range cl.Controls {
		s, err := ctl.Stats()
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
			cl.events.Emit(obs.LevelWarn, obs.EventControlError,
				"op", "stats", "node", i, "err", err.Error())
			continue
		}
		out[i] = s
	}
	if failed > 0 && failed == len(cl.Controls) {
		return out, firstErr
	}
	return out, nil
}

// Close tears the cluster down. Close errors are reported to the event log
// rather than swallowed (teardown still proceeds through every component).
func (cl *Cluster) Close() {
	if cl.monitor != nil {
		cl.monitor.Close()
		cl.monitor = nil
	}
	for i, ctl := range cl.Controls {
		if ctl == nil {
			continue
		}
		if err := ctl.Close(); err != nil {
			cl.events.Emit(obs.LevelWarn, obs.EventControlError, "op", "close", "node", i, "err", err.Error())
		}
		cl.events.Emit(obs.LevelInfo, obs.EventNodeDisconnect, "node", i)
	}
	for i, n := range cl.Nodes {
		if n == nil {
			continue
		}
		if err := n.Close(); err != nil {
			cl.events.Emit(obs.LevelWarn, obs.EventControlError, "op", "node_close", "node", i, "err", err.Error())
		}
	}
	if cl.Collector != nil {
		if err := cl.Collector.Close(); err != nil {
			cl.events.Emit(obs.LevelWarn, obs.EventControlError, "op", "collector_close", "err", err.Error())
		}
	}
}
