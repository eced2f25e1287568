// Command rodnode runs one engine node as its own OS process, making the
// prototype genuinely distributable: start a rodnode per machine (or per
// terminal), then attach a coordinator with engine.ConnectCluster (or the
// rodengine tool pointed at the addresses) to deploy and drive a query
// graph across them.
//
// Usage:
//
//	rodnode -addr 127.0.0.1:7101 -capacity 1.0 \
//	        [-workers 0] [-queue 100000] [-outbox 4096] [-events events.jsonl] \
//	        [-wal-dir /var/lib/rodsp/n0] [-checkpoint-interval 100ms]
//
// -workers sets the node's worker-lane count — parallel data-plane shards,
// each with its own bounded ingress queue and lock-free per-peer outbox
// ring. 0 (the default) runs one lane per core (GOMAXPROCS); 1 restores
// the single-lane data plane. -queue bounds the ingress queue (arrivals
// that find it full are shed; with W lanes each lane holds queue/W),
// -outbox bounds each per-peer send buffer, and -events appends
// the node's structured JSON-lines events (shed onset/clearance, relay
// errors, peer recovery, injected link faults) to a file, or stderr with
// "-".
//
// -wal-dir enables the durability layer: ingress batches are logged to a
// segmented, CRC-framed write-ahead log (fsync-batched group commit) and
// acked to senders only once committed; operator state checkpoints land at
// drained moments every -checkpoint-interval, truncating the log. A
// rodnode restarted with the same -wal-dir recovers its deployed graph,
// operator state and unprocessed backlog before accepting connections.
//
// The node serves both the JSON control plane and the binary tuple plane
// on the same port and runs until interrupted. With -wal-dir the process
// also supervises the control plane's restart command: the node is torn
// down and recreated in-process on the same address and WAL directory
// (a kill still exits, as does an interrupt).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rodsp/internal/engine"
	"rodsp/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	capacity := flag.Float64("capacity", 1.0, "virtual CPU capacity (cost-units/second)")
	queue := flag.Int("queue", engine.DefaultIngressCap, "ingress queue bound (tuples); arrivals beyond it are shed")
	outboxCap := flag.Int("outbox", engine.DefaultOutboxCap, "per-peer outbox bound (tuples; each ring grows to what its link holds, up to this); without a WAL, overflow is dropped and counted")
	workers := flag.Int("workers", 0, "worker lanes (parallel data-plane shards; 0 = one per core, 1 = single-lane)")
	eventsPath := flag.String("events", "", "append JSON-lines events to this file ('-' for stderr)")
	walDir := flag.String("wal-dir", "", "enable the durability layer: WAL + checkpoints in this directory (recovered on restart)")
	ckEvery := flag.Duration("checkpoint-interval", 0, "interval between checkpoint attempts (0 = engine default; needs -wal-dir)")
	flag.Parse()

	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if *ckEvery > 0 && *walDir == "" {
		fail(fmt.Errorf("-checkpoint-interval requires -wal-dir"))
	}
	cfg := engine.NodeConfig{
		IngressCap:      *queue,
		OutboxCap:       *outboxCap,
		Workers:         w,
		WALDir:          *walDir,
		CheckpointEvery: *ckEvery,
	}
	var ev *obs.EventLog
	if *eventsPath != "" {
		ev = obs.NewEventLog(0)
		if *eventsPath == "-" {
			ev.SetWriter(os.Stderr)
		} else {
			f, err := os.OpenFile(*eventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			ev.SetWriter(f)
		}
	}
	start := func(addr string) *engine.Node {
		node, err := engine.NewNodeConfig(addr, *capacity, cfg)
		if err != nil {
			fail(err)
		}
		if ev != nil {
			node.SetObserver(ev, nil, 0)
		}
		return node
	}
	node := start(*addr)
	fmt.Printf("rodnode listening on %s (capacity %g, %d worker lanes)\n", node.Addr(), *capacity, node.Workers())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	// Supervision loop: the control plane's restart command closes the node
	// with restart intent; recreate it on the SAME address and WAL directory
	// so it recovers from its own log. A kill (no intent) or an interrupt
	// exits the process instead.
	for {
		select {
		case <-sig:
			fmt.Println("rodnode: shutting down")
			node.Close()
			return
		case <-node.Done():
			if !node.RestartRequested() {
				fmt.Println("rodnode: node closed, exiting")
				return
			}
			boundAddr := node.Addr()
			fmt.Printf("rodnode: restart requested, recovering on %s\n", boundAddr)
			// The kernel can hold the old port briefly; retry the bind.
			var next *engine.Node
			deadline := time.Now().Add(5 * time.Second)
			for {
				n, err := engine.NewNodeConfig(boundAddr, *capacity, cfg)
				if err == nil {
					next = n
					break
				}
				if time.Now().After(deadline) {
					fail(err)
				}
				time.Sleep(20 * time.Millisecond)
			}
			if ev != nil {
				next.SetObserver(ev, nil, 0)
			}
			node = next
			fmt.Printf("rodnode listening on %s (recovered)\n", node.Addr())
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rodnode:", err)
	os.Exit(1)
}
