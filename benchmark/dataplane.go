package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"rodsp/internal/engine"
	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/workload"
)

// Generator constants shared by every data-plane workload (see README.md,
// "Measurement rules").
const (
	batchSize     = 256                    // tuples per closed-loop SendBatch
	credit        = 8192                   // closed-loop window: sent − delivered stays below this
	creditNap     = 50 * time.Microsecond  // generator sleep while the window is full
	tick          = time.Millisecond       // open-loop schedule period
	openValve     = 16384                  // open-loop safety valve: at most this many tuples in flight
	window        = 500 * time.Millisecond // closed-loop measurement window; the first of each segment is discarded
	openWindow    = 100 * time.Millisecond // open-loop measurement window; the first 500 ms of each segment are discarded
	outboxCap     = 65536                  // the one NodeConfig knob every data-plane workload sets
	sampleCap     = 20000                  // collector latency reservoir per closed-loop window
	openSampleCap = 5000                   // and per open-loop window: sorted 10 times a second, so kept small
	zipfS         = 1.1
	zipfDomain    = 10000
	shardK        = 4
	keyPool       = 1 << 20 // pregenerated keys, cycled, so key generation stays off the timed path
	walPrefix     = "rodsp-benchmark-wal-"
	walMinFree    = 2 << 30 // free bytes /dev/shm must have to be given the WAL (which peaks near 0.5 GB)
)

// dpSpec defines one data-plane workload. Rate is the open-loop rate of its
// latency segments: a constant (≈25 % of the closed-loop capacity measured
// when the benchmark was defined), never derived at run time.
type dpSpec struct {
	name    string
	nodes   int
	workers int
	sharded bool
	durable bool
	rate    int // tuples per second in L segments
}

var dpSpecs = []dpSpec{
	{name: "chain", nodes: 2, workers: 1, rate: 800000},
	{name: "shard_zipf", nodes: 3, workers: 2, sharded: true, rate: 700000},
	{name: "chain_durable", nodes: 2, workers: 1, durable: true, rate: 600000},
}

// dataplane is one live cluster plus the single generator connection into
// node 0 and the delivered counter at the sink.
type dataplane struct {
	spec      dpSpec
	cl        *engine.Cluster
	tw        *engine.TupleWriter
	delivered *obs.Counter
	stream    int32
	keyStream query.StreamID // the sharded (keyed) stream; sharded workloads only
	keys      []uint64
	batch     []engine.Tuple
	seq       int64
	sent      int64
	lost      int64 // sent but never delivered, as of the last settle: no longer in flight
	dups      int64 // sink duplicates accumulated across collector resets
	walDir    string
}

// series collects the per-window samples of one run.
type series struct {
	capacity, cpuNs []float64 // closed-loop windows
	p50Ms, p95Ms    []float64 // open-loop windows
	lRate           []float64 // achieved open-loop send rate per window
	lateMs          []float64 // generator lateness per tick
	sentC, wallC    float64   // closed-loop totals over kept windows (loadgen.sent_per_s)
}

// topology builds the workload's graph and its fixed placement.
func (s dpSpec) topology() (*query.Graph, *placement.Plan, []float64, error) {
	caps := make([]float64, s.nodes)
	for i := range caps {
		caps[i] = 1
	}
	b := query.NewBuilder()
	in := b.Input("load")
	if !s.sharded {
		// One zero-cost hop per node: the virtual CPU never paces, so the
		// data plane itself is what is measured.
		st := in
		assign := make([]int, s.nodes)
		for i := 0; i < s.nodes; i++ {
			st = b.Delay(fmt.Sprintf("hop%d", i), 0, 1, st)
			assign[i] = i
		}
		g, err := b.Build()
		if err != nil {
			return nil, nil, nil, err
		}
		plan, err := placement.NewPlan(assign, s.nodes)
		return g, plan, caps, err
	}
	// One zero-cost hot operator split into keyed replicas. Strictly
	// forward: splitter alone on node 0, replicas alternate over nodes 1..,
	// merge on the last node, so merged tuples never re-enter the ingress
	// queue the generator feeds.
	b.Delay("hot", 0, 1, in)
	base, err := b.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	g, err := query.Shards(base, 0, query.ShardConfig{K: shardK})
	if err != nil {
		return nil, nil, nil, err
	}
	groups, err := query.ShardGroups(g)
	if err != nil {
		return nil, nil, nil, err
	}
	assign := make([]int, g.NumOps())
	for i, r := range groups[0].Replicas {
		assign[r] = 1 + i%(s.nodes-1)
	}
	assign[groups[0].Merge] = s.nodes - 1
	plan, err := placement.NewPlan(assign, s.nodes)
	return g, plan, caps, err
}

// genKeys pregenerates the seeded Zipf key pool. Keys are shifted by one
// because key 0 means "unkeyed" on the wire.
func genKeys(seed int64) ([]uint64, error) {
	gen, err := workload.ZipfKeys(seed, zipfS, zipfDomain)
	if err != nil {
		return nil, err
	}
	keys := make([]uint64, keyPool)
	for i := range keys {
		keys[i] = gen() + 1
	}
	return keys, nil
}

// startDataplane starts the cluster, deploys, dials the generator connection
// and warms every link: it returns once one batch has been seen at the sink.
// keys is the pregenerated pool (nil for unkeyed workloads); dir is where a
// durable workload puts its WAL (see walRoot).
func startDataplane(s dpSpec, keys []uint64, dir string) (*dataplane, error) {
	d := &dataplane{spec: s, keys: keys, delivered: &obs.Counter{}, batch: make([]engine.Tuple, 0, 4096)}
	started := false
	defer func() {
		if !started {
			d.close()
		}
	}()
	g, plan, caps, err := s.topology()
	if err != nil {
		return nil, err
	}
	cfg := engine.NodeConfig{OutboxCap: outboxCap, Workers: s.workers}
	if s.durable {
		if d.walDir, err = os.MkdirTemp(dir, walPrefix); err != nil {
			return nil, fmt.Errorf("wal directory: %w", err)
		}
		cfg.WALDir = d.walDir
	}
	if d.cl, err = engine.StartClusterConfig(caps, cfg); err != nil {
		return nil, err
	}
	d.cl.Collector.SetSampleCap(sampleCap)
	d.cl.Collector.SetObserver(nil, d.delivered, nil, nil, 0)
	if s.durable {
		d.cl.Collector.SetDedup(true)
	}
	if err = d.cl.Deploy(g, plan, caps); err != nil {
		return nil, err
	}
	if err = d.cl.Start(); err != nil {
		return nil, err
	}
	d.stream = int32(g.Inputs()[0])
	if s.sharded {
		ks := d.cl.ShardStreams()
		if len(ks) != 1 {
			return nil, fmt.Errorf("%s: %d sharded streams deployed, want 1", s.name, len(ks))
		}
		d.keyStream = ks[0]
	}
	if d.tw, err = engine.NewTupleWriterDial(d.cl.Addrs()[0]); err != nil {
		return nil, err
	}
	if err = d.send(batchSize, time.Now().UnixNano()); err != nil {
		return nil, err
	}
	if err = d.awaitDelivered(10 * time.Second); err != nil {
		return nil, fmt.Errorf("%s: link warm-up: %w", s.name, err)
	}
	started = true
	return d, nil
}

// close tears the cluster down and removes the WAL directory. Safe on a
// partially started dataplane.
func (d *dataplane) close() {
	if d.tw != nil {
		d.tw.Close() // best effort: the cluster below is going away regardless
	}
	if d.cl != nil {
		d.cl.Close()
	}
	if d.walDir != "" {
		os.RemoveAll(d.walDir)
	}
}

// send stamps and ships n tuples as one SendBatch+Flush.
func (d *dataplane) send(n int, ts int64) error {
	b := d.batch[:n]
	for i := range b {
		b[i] = engine.Tuple{Stream: d.stream, Ts: ts, Seq: d.seq}
		if d.keys != nil {
			b[i].Key = d.keys[d.seq&(keyPool-1)]
		}
		d.seq++
	}
	if err := d.tw.SendBatch(b); err != nil {
		return err
	}
	if err := d.tw.Flush(); err != nil {
		return err
	}
	d.sent += int64(n)
	return nil
}

// awaitDelivered waits until the sink has counted every tuple sent.
func (d *dataplane) awaitDelivered(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for d.delivered.Value() < d.sent-d.lost {
		if time.Now().After(deadline) {
			return fmt.Errorf("sink saw %d of %d tuples after %v", d.delivered.Value(), d.sent-d.lost, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// resetSink clears the collector's reservoir at a window edge, keeping the
// duplicate count (Reset zeroes it).
func (d *dataplane) resetSink() {
	if d.spec.durable {
		d.dups += d.cl.Collector.Duplicates()
	}
	d.cl.Collector.Reset()
}

// closedSegment runs the capacity loop for dur: one client, a credit window
// of `credit` tuples. Nothing can be shed (the window is smaller than every
// ring), so after quiescence delivered == sent exactly.
func (d *dataplane) closedSegment(dur time.Duration, s *series) error {
	start := time.Now()
	end := start.Add(dur)
	edge := start.Add(window)
	t0, del0, cpu0, sent0 := start, d.delivered.Value(), cpuNow(), d.sent
	first := true
	for {
		now := time.Now()
		if !now.Before(edge) {
			del, cpu := d.delivered.Value(), cpuNow()
			if !first && del > del0 {
				wall := now.Sub(t0).Seconds()
				s.capacity = append(s.capacity, float64(del-del0)/wall)
				s.cpuNs = append(s.cpuNs, float64(cpu-cpu0)/float64(del-del0))
				s.sentC += float64(d.sent - sent0)
				s.wallC += wall
			}
			first = false
			d.resetSink()
			t0, del0, cpu0, sent0 = now, del, cpu, d.sent
			edge = edge.Add(window)
			if !now.Before(end) {
				return nil
			}
		}
		if d.sent-d.lost-d.delivered.Value() >= credit {
			time.Sleep(creditNap)
			continue
		}
		if err := d.send(batchSize, now.UnixNano()); err != nil {
			return err
		}
	}
}

// openSegment runs the latency loop for dur at the workload's fixed rate:
// every tuple due in a tick goes out as one batch stamped with the tick's
// scheduled time, so a late generator lengthens latency instead of hiding it.
//
// The schedule never slows down, with one safety valve: the generator does
// not put more than openValve tuples in flight. It never engages on a healthy
// system (in flight is rate x latency, a few hundred tuples); after the host
// has paused the process it keeps the catch-up burst below every ring, so a
// host stall shows as latency (still counted from the due time) and not as
// shed tuples.
func (d *dataplane) openSegment(dur time.Duration, s *series) error {
	perTick := d.spec.rate / int(time.Second/tick)
	ticks := int(dur / tick)
	perWindow := int(openWindow / tick)
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now()
	t0, sent0 := start, d.sent
	d.cl.Collector.SetSampleCap(openSampleCap)
	defer d.cl.Collector.SetSampleCap(sampleCap)
	d.resetSink()
	for i := 0; i < ticks; i++ {
		due := start.Add(time.Duration(i) * tick)
		sleepUntil(due)
		for d.sent-d.lost-d.delivered.Value() > openValve {
			time.Sleep(creditNap)
		}
		s.lateMs = append(s.lateMs, float64(time.Since(due))/float64(time.Millisecond))
		if err := d.send(perTick, due.UnixNano()); err != nil {
			return err
		}
		if (i+1)%perWindow != 0 {
			continue
		}
		now := time.Now()
		sum, ok := d.cl.Collector.LatencySummary()
		d.resetSink()
		if i+1 > int(window/tick) && ok {
			s.p50Ms = append(s.p50Ms, sum.P50*1000)
			s.p95Ms = append(s.p95Ms, sum.P95*1000)
			s.lRate = append(s.lRate, float64(d.sent-sent0)/now.Sub(t0).Seconds())
		}
		t0, sent0 = now, d.sent
	}
	return nil
}

// sleepUntil blocks the calling OS thread until t. A sub-millisecond
// time.Sleep is rounded up to the netpoller's whole millisecond when the
// process is otherwise idle, which would make every tick late by about a
// tick; nanosleep is not.
func sleepUntil(t time.Time) {
	if wait := time.Until(t); wait > 0 {
		ts := syscall.NsecToTimespec(int64(wait))
		syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake sends the tick early by less than the lateness it would otherwise add
	}
}

// ledger is the cluster-wide loss accounting read from Cluster.Stats().
type ledger struct{ shed, outboxDropped, noRoute int64 }

func (d *dataplane) ledger() (ledger, error) {
	stats, err := d.cl.Stats()
	if err != nil {
		return ledger{}, err
	}
	var l ledger
	for i, st := range stats {
		if st == nil {
			return ledger{}, fmt.Errorf("node %d unreachable", i)
		}
		l.shed += st.Shed
		l.outboxDropped += st.OutboxDropped
		l.noRoute += st.DroppedNoRoute
	}
	return l, nil
}

// settle drains the cluster after a segment and returns how many tuples sent
// so far never reached the sink.
func (d *dataplane) settle() (missing int64, err error) {
	if err := d.cl.AwaitQuiescence(20*time.Second, 50*time.Millisecond); err != nil {
		return 0, err
	}
	// The barrier cannot see bytes still in the generator's socket; give the
	// sink a moment before declaring a tuple lost.
	d.awaitDelivered(time.Second) //nolint:errcheck // a timeout is reported as missing tuples below
	d.lost = d.sent - d.delivered.Value()
	return d.lost, nil
}

// walRoot picks where the durable workload's WAL lives: /dev/shm when it is
// writable with room to spare, else dir (the scratch directory inside the
// checkout). The workload measures the durability protocol — seqmarks, acks,
// WAL append, group commit, retention — not the host's disk: fsync on the
// shared disk under the checkout varied the workload's capacity by 30 % from
// run to run when the benchmark was defined, fsync on tmpfs does not. Which
// one was used is reported in the wal_filesystem flag.
func walRoot(dir string) string {
	const shm = "/dev/shm"
	var st syscall.Statfs_t
	if err := syscall.Statfs(shm, &st); err != nil || uint64(st.Bavail)*uint64(st.Bsize) < walMinFree {
		return dir
	}
	probe, err := os.MkdirTemp(shm, walPrefix)
	if err != nil {
		return dir
	}
	os.Remove(probe)
	// A run that was killed could not remove its WAL; on tmpfs that is
	// memory, so the next run clears it. A live run's directory is never
	// this old: a run lasts a minute at most.
	stale, _ := filepath.Glob(filepath.Join(shm, walPrefix+"*"))
	for _, dir := range stale {
		if info, err := os.Stat(dir); err == nil && time.Since(info.ModTime()) > 10*time.Minute {
			os.RemoveAll(dir)
		}
	}
	return shm
}
