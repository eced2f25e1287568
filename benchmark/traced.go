package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rodsp/internal/obs"
	"rodsp/internal/workload"
)

// traceEvery is the engine's sampling stride in the traced run: 1 tuple in
// 64 per stream carries trace context through every hop.
const traceEvery = 64

// sampler polls Cluster.Stats() every 100 ms while the traced workload runs.
// Its samples are read only after close has returned.
type sampler struct {
	queue   []float64 // Σ QueueLen over nodes, per sample
	pending []float64 // Σ OutboxPending over nodes, per sample
	walPeak int64
	stop    chan struct{}
	once    sync.Once // guards close(stop)
	done    chan struct{}
}

func startSampler(d *dataplane) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			stats, err := d.cl.Stats()
			if err != nil {
				continue // a node mid-restart; the next poll sees it again
			}
			var q, p float64
			for _, st := range stats {
				if st != nil {
					q += float64(st.QueueLen)
					p += float64(st.OutboxPending)
				}
			}
			s.queue, s.pending = append(s.queue, q), append(s.pending, p)
			if size := dirBytes(d.walDir); size > s.walPeak {
				s.walPeak = size
			}
		}
	}()
	return s
}

// close stops the poller and waits for it; calling it again is harmless.
func (s *sampler) close() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// dirBytes sums the sizes of the files under dir (0 for "").
func dirBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error { //nolint:errcheck // a segment deleted mid-walk is skipped
		if err == nil && !e.IsDir() {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// arm points the engine's trace sampling at the given stage set and sink
// histogram; nil disarms.
func (d *dataplane) arm(stages *obs.StageSet, hist *obs.Histogram) {
	every := int64(traceEvery)
	if stages == nil {
		every = 0
	}
	for _, n := range d.cl.Nodes {
		n.SetObserver(nil, stages, every)
	}
	d.cl.Collector.SetObserver(hist, d.delivered, stages, nil, every)
}

// repartition pushes the skew-aware slot table computed from the per-slot
// counts observed so far, and reports the slot skew of the table it replaces
// (max / mean tuples per replica) and the push's wall time.
func (d *dataplane) repartition(tr *tracer, parent int) (skew, ms float64, err error) {
	stats, err := d.cl.Stats()
	if err != nil {
		return 0, 0, err
	}
	counts := make([]float64, 0, 64)
	for _, st := range stats {
		if st == nil {
			continue
		}
		for i, c := range st.PartCounts[int(d.keyStream)] {
			if i >= len(counts) {
				counts = append(counts, make([]float64, i+1-len(counts))...)
			}
			counts[i] += float64(c)
		}
	}
	slots := d.cl.ShardSlotsOf(d.keyStream)
	k := d.cl.ShardK(d.keyStream)
	if len(slots) != len(counts) || k == 0 {
		return 0, 0, fmt.Errorf("repartition: %d slot counts for a %d-slot table (k=%d)", len(counts), len(slots), k)
	}
	perShard := make([]float64, k)
	total := 0.0
	for s, c := range counts {
		perShard[slots[s]] += c
		total += c
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("repartition: no keyed tuples counted yet")
	}
	skew = maxOf(perShard) / (total / float64(k))
	for s := range counts {
		counts[s] /= total
	}
	sp := tr.begin("control.repartition", parent)
	start := time.Now()
	err = d.cl.Repartition(d.keyStream, workload.AssignSkewAware(counts, k))
	tr.end(sp)
	return skew, float64(time.Since(start)) / float64(time.Millisecond), err
}

// restart restarts node 1 of the drained cluster and returns RestartNode's
// wall time (close, rebind, manifest redeploy, checkpoint load, WAL replay).
// A batch sent through afterwards proves the node recovered its deployment
// and its peers reconnected.
func (d *dataplane) restart(tr *tracer, parent int) (float64, error) {
	sp := tr.begin("durable.restart", parent)
	start := time.Now()
	err := d.cl.RestartNode(1)
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	if err := d.send(batchSize, time.Now().UnixNano()); err != nil {
		return 0, err
	}
	return ms, d.awaitDelivered(10 * time.Second)
}

// runDataplaneTraced is the traced run: the workload at half length as
// [C untraced, C traced, L traced] × 2 with the engine's stage sampling
// armed and Cluster.Stats() polled, then the layer probes. Every call into a
// layer is a span; spans and counts go to the trace file.
func runDataplaneTraced(cfg runConfig, spec dpSpec) (*outcome, error) {
	o := newOutcome(perLayer)
	tr := newTracer()
	root := tr.begin("run", 0)
	steal0, total0, hostOK := hostTicks()

	d, _, err := setupDataplane(cfg, spec, tr, root)
	if err != nil {
		return nil, err
	}
	defer d.close()

	stagesC, stagesL := obs.NewStageSet(obs.NewRegistry()), obs.NewStageSet(obs.NewRegistry())
	sinkL := obs.NewHistogram(obs.DefaultLatencyBuckets())
	smp := startSampler(d)
	defer smp.close()
	var plain, traced series
	var mem0, mem1 runtime.MemStats
	var allocs, allocBytes, gcPauseNs, tracedTuples float64
	var tracedWall time.Duration
	segDur := segmentDuration(cfg.seconds/2, 6)
	segment := func(kind rune, label string, s *series) error {
		sp := tr.begin("segment."+label, root)
		defer tr.end(sp)
		return runSegment(d, kind, segDur, s, o)
	}
	for round := 0; round < 2; round++ {
		d.arm(nil, nil)
		if err := segment(segClosed, "C.untraced", &plain); err != nil {
			return nil, err
		}
		d.arm(stagesC, nil)
		type repartResult struct {
			skew, ms float64
			err      error
		}
		var repart chan repartResult
		if spec.sharded && round == 1 {
			// One live repartition in the middle of a closed-loop segment:
			// the segment's delivered == sent check proves it loses nothing.
			repart = make(chan repartResult, 1)
			go func() {
				time.Sleep(segDur / 2)
				skew, ms, err := d.repartition(tr, root)
				repart <- repartResult{skew, ms, err}
			}()
		}
		runtime.ReadMemStats(&mem0)
		del0, t0 := d.delivered.Value(), time.Now()
		err := segment(segClosed, "C.traced", &traced)
		tracedWall += time.Since(t0)
		runtime.ReadMemStats(&mem1)
		if repart != nil {
			res := <-repart
			o.set("shard.slot_skew", res.skew)
			o.set("control.repartition_ms", res.ms)
			if err == nil && res.err != nil {
				err = fmt.Errorf("%s: %w", spec.name, res.err)
			}
		}
		if err != nil {
			return nil, err
		}
		allocs += float64(mem1.Mallocs - mem0.Mallocs)
		allocBytes += float64(mem1.TotalAlloc - mem0.TotalAlloc)
		gcPauseNs += float64(mem1.PauseTotalNs - mem0.PauseTotalNs)
		tracedTuples += float64(d.delivered.Value() - del0)

		d.arm(stagesL, sinkL)
		if err := segment(segOpen, "L.traced", &traced); err != nil {
			return nil, err
		}
	}
	d.arm(nil, nil)
	smp.close()

	stats, err := d.cl.Stats()
	if err != nil {
		return nil, err
	}
	var shed, enq, dropped, walRecords, walSyncs, walBytes, dedup, checkpoints float64
	laneSkew, sendMax := 1.0, 0.0
	for i, st := range stats {
		if st == nil {
			return nil, fmt.Errorf("node %d unreachable after the traced run", i)
		}
		shed += float64(st.Shed)
		enq += float64(st.OutboxEnqueued)
		dropped += float64(st.OutboxDropped)
		walRecords += float64(st.WALRecords)
		walSyncs += float64(st.WALSyncs)
		walBytes += float64(st.WALBytes)
		dedup += float64(st.DedupDropped)
		checkpoints += float64(st.Checkpoints)
		if st.SendMaxMs > sendMax {
			sendMax = st.SendMaxMs
		}
		var lanes []float64
		sum := 0.0
		for _, l := range st.Lanes {
			lanes = append(lanes, float64(l.Processed))
			sum += float64(l.Processed)
		}
		if sum > 0 {
			if sk := maxOf(lanes) / (sum / float64(len(lanes))); sk > laneSkew {
				laneSkew = sk
			}
		}
	}
	sent := float64(d.sent)
	o.set("loadgen.late_ms_p95", quantile(traced.lateMs, 0.95))
	o.set("loadgen.sent_per_s", (plain.sentC+traced.sentC)/(plain.wallC+traced.wallC))
	o.set("host.steal_share", stealShareSince(steal0, total0, hostOK))
	o.set("go.allocs_per_item", allocs/tracedTuples)
	o.set("go.alloc_bytes_per_item", allocBytes/tracedTuples)
	o.set("go.gc_pause_ms_per_s", gcPauseNs/1e6/tracedWall.Seconds())
	o.set("node.queue_len_p50", median(smp.queue))
	o.set("node.shed_share", shed/sent)
	o.set("node.lane_skew", laneSkew)
	if enq > 0 {
		o.set("outbox.dropped_share", dropped/enq)
	}
	o.set("outbox.pending_p50", median(smp.pending))
	o.set("outbox.send_max_ms", sendMax)
	if n := float64(stagesL.Count(obs.StageDeliver)); n > 0 && sinkL.Count() > 0 {
		for stage, name := range map[int]string{
			obs.StageTransit: "stage.transit_us", obs.StageQueue: "stage.queue_us", obs.StageService: "stage.service_us",
			obs.StageOutbox: "stage.outbox_us", obs.StageDeliver: "stage.deliver_us",
		} {
			// Per delivered tuple, summed over its hops, so the five add up
			// to the mean sink latency.
			o.set(name, stagesL.Hist(stage).Sum()/n*1e6)
		}
		o.set("stage.sum_vs_latency", (stagesL.SumSeconds()/n)/(sinkL.Sum()/float64(sinkL.Count())))
	}
	if walSyncs > 0 {
		o.set("wal.records_per_sync", walRecords/walSyncs)
	}
	o.set("wal.bytes_per_tuple", walBytes/sent)
	o.set("wal.peak_bytes", float64(smp.walPeak))
	o.set("durable.dedup_dropped", dedup)
	o.set("durable.checkpoints", checkpoints)
	overhead := calmLow(traced.cpuNs)/calmLow(plain.cpuNs) - 1
	o.set("trace.overhead_share", overhead)

	// Layer probes, on batches shaped like the workload's.
	in := probeInput(d.stream, d.keys)
	pr := tr.begin("probes", root)
	if err := probeWire(tr, pr, in, o); err != nil {
		return nil, err
	}
	if err := probeNodeHop(tr, pr, spec, in, o); err != nil {
		return nil, err
	}
	if err := probeCollector(tr, pr, in, o); err != nil {
		return nil, err
	}
	hops := float64(spec.nodes)
	if spec.sharded {
		// Splitter node, then a replica node; half the replicas share the
		// merge's node and half need one more hop.
		hops = 2.5
	}
	budget := hops*(o.value("node.hop_ns_per_tuple")-o.value("wire.encode_ns_per_tuple")-o.value("wire.decode_ns_per_tuple")) + o.value("collector.ns_per_tuple")
	if spec.durable {
		if err := probeWAL(tr, pr, filepath.Dir(d.walDir), in, o); err != nil {
			return nil, err
		}
		budget += (hops - 1) * o.value("wal.append_ns_per_tuple")
		ms, err := d.restart(tr, pr)
		if err != nil {
			return nil, fmt.Errorf("%s: restart: %w", spec.name, err)
		}
		o.set("durable.restart_ms", ms)
	}
	tr.end(pr)
	o.set("budget.coverage", budget/calmLow(plain.cpuNs))

	finishDataplane(d, &traced, o)
	tr.end(root)
	return o, writeTrace(cfg, tr, o)
}

// writeTrace writes the run's spans and counts beside the WAL scratch.
func writeTrace(cfg runConfig, tr *tracer, o *outcome) error {
	run := fmt.Sprintf("%s-%d", cfg.workload, cfg.seed)
	path := filepath.Join(cfg.dir, "trace-"+run+".json")
	o.flags["trace_file"] = path
	o.flags["trace_spans"] = fmt.Sprint(len(tr.spans))
	return tr.write(path, run, o.Metrics)
}

// runReplanTraced is the traced placement-plane run: a quarter of the time
// untraced, a quarter with every stage of every item a span, then the
// per-call probes.
func runReplanTraced(cfg runConfig) (*outcome, error) {
	o := newOutcome(perLayer)
	tr := newTracer()
	root := tr.begin("run", 0)
	steal0, total0, hostOK := hostTicks()
	r, _, err := setupReplan(cfg, tr, root, o)
	if err != nil {
		return nil, err
	}
	quarter := time.Duration(cfg.seconds / 4 * float64(time.Second))
	if quarter < 2*replanWindow {
		quarter = 2 * replanWindow
	}
	var plain, traced replanSeries
	next := 1
	if err := r.loop(quarter, &next, nil, 0, &plain, o); err != nil {
		return nil, err
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	t0, items0 := time.Now(), traced.items
	sp := tr.begin("segment.traced", root)
	err = r.loop(quarter, &next, tr, sp, &traced, o)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&mem1)
	items := float64(traced.items - items0)

	plan, llf, err := r.ratios(o)
	if err != nil {
		return nil, err
	}
	pr := tr.begin("probes", root)
	err = probePlacement(tr, pr, r, o)
	tr.end(pr)
	if err != nil {
		return nil, err
	}
	o.Attempted = plain.items + traced.items
	o.set("loadgen.sent_per_s", calmHigh(traced.capacity))
	o.set("host.steal_share", stealShareSince(steal0, total0, hostOK))
	o.set("go.allocs_per_item", float64(mem1.Mallocs-mem0.Mallocs)/items)
	o.set("go.alloc_bytes_per_item", float64(mem1.TotalAlloc-mem0.TotalAlloc)/items)
	o.set("go.gc_pause_ms_per_s", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6/wall.Seconds())
	o.set("core.plan_ratio_to_ideal", plan)
	o.set("placement.llf_ratio_to_ideal", llf)
	o.set("trace.overhead_share", calmLow(traced.cpuNs)/calmLow(plain.cpuNs)-1)
	o.set("budget.coverage", (o.value("query.loadmodel_ms")+o.value("core.placebest_ms")+o.value("feasible.ratio_ms"))/calmLow(plain.p50Ms))
	tr.end(root)
	return o, writeTrace(cfg, tr, o)
}
