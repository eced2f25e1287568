package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rodsp/internal/core"
	"rodsp/internal/engine"
	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/wal"
)

// Layer probes: tight loops over exported calls, fed batches shaped like the
// workload's own, each call recorded as a span. Iteration counts are fixed so
// the counts in the trace repeat exactly.
const (
	probeBatches   = 64   // distinct batches cycled through
	wireCalls      = 4000 // SendBatch / ReadBatch calls timed
	pumpTuples     = 1 << 21
	walAppends     = 4000
	walCommits     = 200
	placementCalls = 20
)

// probeInput builds batches the way dataplane.send does.
func probeInput(stream int32, keys []uint64) [][]engine.Tuple {
	out := make([][]engine.Tuple, probeBatches)
	seq := int64(0)
	for b := range out {
		out[b] = make([]engine.Tuple, batchSize)
		for i := range out[b] {
			t := engine.Tuple{Stream: stream, Ts: 1, Seq: seq}
			if keys != nil {
				t.Key = keys[seq&(keyPool-1)]
			}
			out[b][i] = t
			seq++
		}
	}
	return out
}

// countingWriter counts the bytes a TupleWriter emits.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// probeWire times TupleWriter.SendBatch into a discarding writer and
// TupleReader.ReadBatch from memory.
func probeWire(tr *tracer, parent int, in [][]engine.Tuple, o *outcome) error {
	root := tr.begin("wire", parent)
	defer tr.end(root)

	cw := &countingWriter{}
	tw, err := engine.NewTupleWriter(cw)
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < wireCalls; i++ {
		sp := tr.begin("wire.encode", root)
		err := tw.SendBatch(in[i%len(in)])
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	encode := time.Since(start)
	if err := tw.Flush(); err != nil {
		return err
	}
	tuples := float64(wireCalls * batchSize)
	o.set("wire.encode_ns_per_tuple", float64(encode)/tuples)
	o.set("wire.bytes_per_tuple", float64(cw.n-1)/tuples) // minus the connection preamble byte

	var buf bytes.Buffer
	if tw, err = engine.NewTupleWriter(&buf); err != nil {
		return err
	}
	for i := 0; i < wireCalls; i++ {
		if err := tw.SendBatch(in[i%len(in)]); err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	rd := engine.NewTupleReader(bytes.NewReader(buf.Bytes()[1:]))
	decoded := 0
	start = time.Now()
	for {
		sp := tr.begin("wire.decode", root)
		batch, err := rd.ReadBatch()
		tr.end(sp)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		decoded += len(batch)
	}
	decode := time.Since(start)
	if decoded != wireCalls*batchSize {
		o.fail("wire probe decoded %d of %d tuples", decoded, wireCalls*batchSize)
	}
	o.set("wire.decode_ns_per_tuple", float64(decode)/tuples)
	return nil
}

// pump pushes pumpTuples through tw under the closed-loop credit window and
// returns the process CPU spent per tuple once all have been counted.
func pump(tr *tracer, parent int, layer string, tw *engine.TupleWriter, delivered func() int64, in [][]engine.Tuple) (float64, error) {
	sp := tr.begin(layer, parent)
	defer tr.end(sp)
	base := delivered()
	cpu0 := cpuNow()
	sent := int64(0)
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; sent < pumpTuples || delivered()-base < sent; {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%s probe: %d of %d tuples after 30s", layer, delivered()-base, sent)
		}
		if sent >= pumpTuples || sent-(delivered()-base) >= credit {
			time.Sleep(creditNap)
			continue
		}
		call := tr.begin(layer+".send", sp)
		err := tw.SendBatch(in[i%len(in)])
		if err == nil {
			err = tw.Flush()
		}
		tr.end(call)
		if err != nil {
			return 0, err
		}
		sent += batchSize
		i++
	}
	return float64(cpuNow()-cpu0) / float64(sent), nil
}

// sinkHarness is a TupleReader posing as the collector for the hop probe.
type sinkHarness struct {
	ln    net.Listener
	count atomic.Int64
	wg    sync.WaitGroup
}

func newSinkHarness() (*sinkHarness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &sinkHarness{ln: ln}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				if _, err := br.ReadByte(); err != nil { // connection preamble
					return
				}
				rd := engine.NewTupleReader(br)
				for {
					batch, err := rd.ReadBatch()
					if err != nil {
						return
					}
					h.count.Add(int64(len(batch)))
				}
			}()
		}
	}()
	return h, nil
}

// probeNodeHop drives one node hosting one zero-cost operator, configured as
// the workload configures its nodes, with the harness as its sink.
func probeNodeHop(tr *tracer, parent int, spec dpSpec, in [][]engine.Tuple, o *outcome) error {
	h, err := newSinkHarness()
	if err != nil {
		return err
	}
	node, err := engine.NewNodeConfig("127.0.0.1:0", 1, engine.NodeConfig{OutboxCap: outboxCap, Workers: spec.workers})
	if err != nil {
		h.ln.Close()
		return err
	}
	// The node's Close ends its outbox connection, which ends the harness's
	// reader goroutine; then the listener goes.
	defer func() { node.Close(); h.ln.Close(); h.wg.Wait() }()

	b := query.NewBuilder()
	b.Delay("hop", 0, 1, b.Input("load"))
	g, err := b.Build()
	if err != nil {
		return err
	}
	plan, err := placement.NewPlan([]int{0}, 1)
	if err != nil {
		return err
	}
	specs, err := engine.BuildSpecs(g, plan, []float64{1}, []string{node.Addr()}, h.ln.Addr().String())
	if err != nil {
		return err
	}
	ctl, err := engine.DialControl(node.Addr())
	if err != nil {
		return err
	}
	defer ctl.Close()
	if err := ctl.Deploy(specs[0]); err != nil {
		return err
	}
	if err := ctl.Start(); err != nil {
		return err
	}
	tw, err := engine.NewTupleWriterDial(node.Addr())
	if err != nil {
		return err
	}
	defer tw.Close()
	ns, err := pump(tr, parent, "node.hop", tw, h.count.Load, in)
	if err != nil {
		return err
	}
	o.set("node.hop_ns_per_tuple", ns)
	return nil
}

// probeCollector writes straight into a fresh collector.
func probeCollector(tr *tracer, parent int, in [][]engine.Tuple, o *outcome) error {
	col, err := engine.NewCollector("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer col.Close()
	col.SetSampleCap(sampleCap)
	ctr := &obs.Counter{}
	col.SetObserver(nil, ctr, nil, nil, 0)
	tw, err := engine.NewTupleWriterDial(col.Addr())
	if err != nil {
		return err
	}
	defer tw.Close()
	ns, err := pump(tr, parent, "collector", tw, ctr.Value, in)
	if err != nil {
		return err
	}
	o.set("collector.ns_per_tuple", ns)
	return nil
}

// probeWAL times the log alone on the workload's WAL filesystem: buffered
// appends, append + group commit, and replay. Payloads are wire-encoded
// workload batches.
func probeWAL(tr *tracer, parent int, dir string, in [][]engine.Tuple, o *outcome) error {
	root := tr.begin("wal", parent)
	defer tr.end(root)
	wd, err := os.MkdirTemp(dir, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(wd)

	payloads := make([][]byte, len(in))
	for i, b := range in {
		var buf bytes.Buffer
		tw, err := engine.NewTupleWriter(&buf)
		if err != nil {
			return err
		}
		if err := tw.SendBatch(b); err != nil {
			return err
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		payloads[i] = buf.Bytes()[1:]
	}

	log, err := wal.Open(wd, wal.Options{})
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < walAppends; i++ {
		sp := tr.begin("wal.append", root)
		_, err := log.Append(payloads[i%len(payloads)])
		tr.end(sp)
		if err != nil {
			log.Close()
			return err
		}
	}
	o.set("wal.append_ns_per_tuple", float64(time.Since(start))/float64(walAppends*batchSize))
	if err := log.Sync(); err != nil {
		log.Close()
		return err
	}
	waits := make([]float64, 0, walCommits)
	for i := 0; i < walCommits; i++ {
		sp := tr.begin("wal.commit", root)
		t := time.Now()
		seq, err := log.Append(payloads[i%len(payloads)])
		if err == nil {
			err = log.WaitCommitted(seq)
		}
		tr.end(sp)
		if err != nil {
			log.Close()
			return err
		}
		waits = append(waits, float64(time.Since(t))/float64(time.Millisecond))
	}
	o.set("wal.commit_wait_ms_p50", median(waits))
	if err := log.Close(); err != nil {
		return err
	}

	if log, err = wal.Open(wd, wal.Options{}); err != nil {
		return err
	}
	defer log.Close()
	records := 0
	sp := tr.begin("wal.replay", root)
	start = time.Now()
	err = log.Replay(0, func(uint64, []byte) error { records++; return nil })
	replay := time.Since(start)
	tr.end(sp)
	if err != nil {
		return err
	}
	if records != walAppends+walCommits {
		o.fail("wal probe replayed %d of %d records", records, walAppends+walCommits)
	}
	o.set("wal.replay_ns_per_tuple", float64(replay)/float64(records*batchSize))
	return nil
}

// probePlacement times the placement plane's exported calls one at a time
// on the replan inputs.
func probePlacement(tr *tracer, parent int, r *replanState, o *outcome) error {
	root := tr.begin("placement", parent)
	defer tr.end(root)
	in := r.in
	lm, err := query.BuildLoadModel(in.g)
	if err != nil {
		return err
	}
	// timed runs fn placementCalls times, each call a span, and returns the
	// median call time in milliseconds.
	timed := func(layer string, fn func(i int) error) (float64, error) {
		ms := make([]float64, 0, placementCalls)
		for i := 0; i < placementCalls; i++ {
			sp := tr.begin(layer, root)
			t := time.Now()
			err := fn(i)
			tr.end(sp)
			if err != nil {
				return 0, err
			}
			ms = append(ms, float64(time.Since(t))/float64(time.Millisecond))
		}
		return median(ms), nil
	}
	v, err := timed("query.loadmodel", func(int) error { _, err := query.BuildLoadModel(in.g); return err })
	if err != nil {
		return err
	}
	o.set("query.loadmodel_ms", v)
	cfgAt := func(i int) core.Config {
		return core.Config{LowerBound: in.bounds[i%replanForecasts], Seed: r.seed}
	}
	v, err = timed("core.place", func(i int) error {
		c := cfgAt(i)
		c.Selector = core.SelectMaxPlaneDistance
		_, _, err := core.Place(lm.Coef, in.caps, c)
		return err
	})
	if err != nil {
		return err
	}
	o.set("core.place_ms", v)
	var plans [replanForecasts]*placement.Plan
	v, err = timed("core.placebest", func(i int) error {
		p, _, err := core.PlaceBest(lm.Coef, in.caps, cfgAt(i), placeSamples)
		plans[i%replanForecasts] = p
		return err
	})
	if err != nil {
		return err
	}
	o.set("core.placebest_ms", v)
	v, err = timed("feasible.ratio", func(i int) error {
		f := i % replanForecasts
		_, err := placement.EvaluateFrom(plans[f], lm.Coef, in.caps, in.bounds[f], ratioSamples)
		return err
	})
	if err != nil {
		return err
	}
	o.set("feasible.ratio_ms", v)
	o.set("feasible.samples_per_s", ratioSamples/(v/1000))
	// PlanShards only splits operators whose standalone load exceeds a node:
	// scale the forecast until some do, so the probe covers the transform.
	hot := in.bounds[0].Scale(12)
	v, err = timed("core.shardplan", func(int) error {
		_, _, err := core.PlanShards(in.g, in.caps, hot, core.ShardPlanConfig{})
		return err
	})
	if err != nil {
		return err
	}
	o.set("core.shardplan_ms", v)
	return nil
}
