// Command rodengine spins up an in-process distributed engine cluster on
// localhost TCP, deploys a graph under a chosen placement algorithm, drives
// it with bursty traces, and reports utilization and end-to-end latency —
// the prototype counterpart of the paper's Borealis experiments.
//
// Usage:
//
//	rodengine [-nodes 3] [-streams 3] [-algo rod|llf|random] [-util 0.6] \
//	          [-seconds 5] [-speedup 20] [-seed 1] [-max-shards 4] \
//	          [-controller] [-forecast-horizon 1.5s] [-cooldown 2s] [-max-moves 1] \
//	          [-queue 100000] [-outbox 4096] \
//	          [-workers 0] [-metrics-addr 127.0.0.1:9900] [-events events.jsonl] [-hold 30] \
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof] [-pprof-addr 127.0.0.1:6060]
//
// -workers sets each in-process node's worker-lane count — parallel
// data-plane shards with per-lane bounded queues and lock-free per-peer
// outbox rings. 0 (the default) runs one lane per core (GOMAXPROCS); 1
// restores the single-lane data plane. Multi-lane runs additionally export
// per-lane series (rodsp_lane_*) that rodtop renders as a lane panel.
//
// -cpuprofile / -memprofile write pprof profiles of the coordinator process
// (CPU over the whole run, heap at exit); -pprof-addr serves the live
// net/http/pprof handlers (goroutine, heap, profile, trace) for attaching
// `go tool pprof` to a run in flight.
//
// -max-shards k enables keyed operator parallelism: before placement, any
// operator whose forecast load exceeds a single node's capacity is split
// into up to k key-partitioned replicas (splitter → replicas → merge), and
// the replicas are placed like first-class operators. 0 (the default)
// leaves the graph unsharded.
//
// -controller closes the loop: an elastic placement controller watches the
// monitor's live headroom, forecasts input rates a -forecast-horizon ahead
// (Holt trend + optional seasonality), and when the forecast headroom sinks
// below threshold re-runs ROD placement and live-migrates up to -max-moves
// operators per cycle, at most once per -cooldown. Decisions and migrations
// surface as controller_decide / controller_migrate events and
// rodsp_controller_* metrics.
//
// -queue bounds each node's ingress queue (arrivals that find it full are
// shed and counted), and -outbox bounds each per-peer send buffer;
// both surface in the final report and in /metrics as shed/drop counters.
//
// With -metrics-addr the coordinator serves live observability over HTTP
// (/metrics Prometheus text, /series JSON, /series.csv, /events) while the
// run is in flight; -hold keeps serving that many seconds after the drive
// finishes (point rodtop at the address). -events appends structured
// JSON-lines events (deploys, migrations, overload onset/clearance,
// control errors) to a file, or stderr with "-".
//
// With -attach addr1,addr2,... it drives externally started rodnode
// processes instead of in-process nodes — a genuinely multi-process (or
// multi-machine) deployment:
//
//	rodnode -addr 127.0.0.1:7101 &
//	rodnode -addr 127.0.0.1:7102 &
//	rodengine -attach 127.0.0.1:7101,127.0.0.1:7102 -algo rod
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for -pprof-addr
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"rodsp/internal/cliutil"
	"rodsp/internal/core"
	"rodsp/internal/engine"
	"rodsp/internal/mat"
	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/workload"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 3, "cluster size (ignored with -attach)")
		attach  = flag.String("attach", "", "comma-separated addresses of running rodnode processes to drive instead of starting in-process nodes")
		caprStr = flag.String("capacities", "", "comma-separated capacities of attached nodes (default 1 each)")
		streams = flag.Int("streams", 3, "input streams in the monitoring workload")
		algo    = flag.String("algo", "rod", "rod | llf | random")
		util    = flag.Float64("util", 0.6, "target mean system utilization")
		seconds = flag.Float64("seconds", 5, "wall-clock drive time")
		speedup = flag.Float64("speedup", 20, "trace seconds played per wall second")
		seed    = flag.Int64("seed", 1, "random seed")

		maxShards = flag.Int("max-shards", 0, "split operators hotter than one node into up to this many keyed shards before placement (0 = off)")

		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /series and /events over HTTP on this address (empty = disabled)")
		eventsPath  = flag.String("events", "", "append JSON-lines events to this file ('-' for stderr)")
		hold        = flag.Float64("hold", 0, "keep serving -metrics-addr this many seconds after the drive ends")
		traceEvery  = flag.Int64("trace-sample", 8192, "trace 1 in N tuples per stream through the data plane (0 disables)")

		controller      = flag.Bool("controller", false, "run the elastic placement controller: watch headroom, re-place proactively, migrate under load")
		forecastHorizon = flag.Duration("forecast-horizon", 0, "controller forecast lead time (default 3× the decision interval)")
		cooldown        = flag.Duration("cooldown", 0, "minimum gap between controller migration rounds (default 2s)")
		maxMoves        = flag.Int("max-moves", 0, "controller migration budget per decision cycle (default 1)")

		queue     = flag.Int("queue", engine.DefaultIngressCap, "per-node ingress queue bound (tuples); arrivals beyond it are shed")
		outboxCap = flag.Int("outbox", engine.DefaultOutboxCap, "per-peer outbox bound (tuples; each ring grows to what its link holds, up to this); without a WAL, overflow is dropped and counted")
		workers   = flag.Int("workers", 0, "worker lanes per node (parallel data-plane shards; 0 = one per core, 1 = single-lane)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run here")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit here")
		pprofAddr  = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	flag.Parse()

	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	nodeCfg := engine.NodeConfig{
		IngressCap: *queue,
		OutboxCap:  *outboxCap,
		Workers:    w,
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			runtime.GC()
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rodengine:", err)
				return
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rodengine:", err)
			}
		}()
	}
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fail(err)
		}
		defer ln.Close()
		fmt.Printf("pprof on http://%s/debug/pprof/\n", ln.Addr())
		go http.Serve(ln, nil) //nolint:errcheck // DefaultServeMux carries net/http/pprof
	}

	g, err := workload.TrafficMonitoring(workload.MonitoringConfig{Streams: *streams, Seed: *seed})
	if err != nil {
		fail(err)
	}
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		fail(err)
	}
	attachAddrs := cliutil.ParseAddrs(*attach)
	if len(attachAddrs) > 0 {
		*nodes = len(attachAddrs)
	}
	caps, err := cliutil.ParseCaps(*caprStr, *nodes)
	if err != nil {
		fail(err)
	}
	if len(caps) != *nodes {
		fail(fmt.Errorf("-capacities has %d entries for %d nodes", len(caps), *nodes))
	}
	traces, means, err := workload.ScaledTraces(lm, caps.Sum(), *util, *seed)
	if err != nil {
		fail(err)
	}
	// The source driver multiplies rates by the speedup (it plays trace time
	// faster); divide the means out so the wall-clock load stays at -util.
	if *speedup > 1 {
		for k := range traces {
			traces[k] = traces[k].ScaleToMean(means[k] / *speedup)
		}
	}

	// Keyed parallelism: shard any operator the forecast says no single node
	// can host, then rebuild the load model so placement sees the replicas.
	if *maxShards > 1 {
		var decisions []core.ShardDecision
		g, decisions, err = core.PlanShards(g, caps, means, core.ShardPlanConfig{MaxShards: *maxShards})
		if err != nil {
			fail(err)
		}
		for _, d := range decisions {
			fmt.Printf("sharding %s into %d keyed replicas (standalone load %.2f)\n", d.Op, d.K, d.Load)
		}
		if len(decisions) > 0 {
			if lm, err = query.BuildLoadModel(g); err != nil {
				fail(err)
			}
		}
	}

	var plan *placement.Plan
	switch *algo {
	case "rod":
		plan, _, err = core.PlaceBest(lm.Coef, caps, core.Config{Graph: g}, 3000)
	case "llf":
		var avg mat.Vec
		avg, err = lm.ResolveVars(means)
		if err == nil {
			plan, err = placement.LLF(lm.Coef, caps, avg)
		}
	case "random":
		plan = placement.Random(g.NumOps(), *nodes, rand.New(rand.NewSource(*seed)))
	default:
		fail(fmt.Errorf("unknown -algo %s", *algo))
	}
	if err != nil {
		fail(err)
	}

	fmt.Printf("deploying %d operators over %d nodes with %s...\n", g.NumOps(), *nodes, *algo)
	var cl *engine.Cluster
	if len(attachAddrs) > 0 {
		cl, err = engine.ConnectCluster(attachAddrs)
	} else {
		cl, err = engine.StartClusterConfig(caps, nodeCfg)
	}
	if err != nil {
		fail(err)
	}
	defer cl.Close()
	// Observability: event log (optionally mirrored to a JSONL sink), the
	// monitoring loop computing live feasibility headroom from the load
	// model, and the optional HTTP exposition.
	ev := obs.NewEventLog(0)
	if *eventsPath != "" {
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
	mon := cl.StartMonitor(engine.MonitorConfig{
		LM:         lm,
		Plan:       plan,
		Caps:       caps,
		Events:     ev,
		TraceEvery: *traceEvery,
		LaneSeries: w > 1, // per-lane series for multicore nodes (rodtop lane panel)
	})
	if *metricsAddr != "" {
		bound, closeHTTP, err := obs.ServeHTTP(*metricsAddr, mon.Registry(), mon.Series(), mon.Events())
		if err != nil {
			fail(err)
		}
		defer closeHTTP() //nolint:errcheck
		fmt.Printf("observability on http://%s (/metrics /series /series.csv /events)\n", bound)
	}

	if err := cl.Deploy(g, plan, caps); err != nil {
		fail(err)
	}
	if err := cl.Start(); err != nil {
		fail(err)
	}
	var ctrl *engine.Controller
	if *controller {
		ctrl, err = cl.StartController(engine.ControllerConfig{
			Horizon:  *forecastHorizon,
			Cooldown: *cooldown,
			MaxMoves: *maxMoves,
			Seed:     *seed,
		})
		if err != nil {
			fail(err)
		}
		fmt.Println("elastic controller running (headroom-triggered proactive re-placement)")
	}

	inputNodes := engine.InputNodes(g, plan)
	addrs := cl.Addrs()
	done := make(chan error, len(traces))
	for i, in := range g.Inputs() {
		var dests []string
		for _, n := range inputNodes[in] {
			dests = append(dests, addrs[n])
		}
		src := &engine.SourceDriver{
			Stream:     in,
			Trace:      traces[i],
			Addrs:      dests,
			Speedup:    *speedup,
			MaxRate:    5000,
			Count:      mon.SourceCounter(in),
			TraceEvery: *traceEvery,
		}
		go func() {
			_, err := src.Run(time.Duration(*seconds*float64(time.Second)), nil)
			done <- err
		}()
	}
	for range traces {
		if err := <-done; err != nil {
			fail(err)
		}
	}
	if ctrl != nil {
		ctrl.Close() // stop deciding before the drain
	}
	time.Sleep(300 * time.Millisecond) // drain

	sts, err := cl.Stats()
	if err != nil {
		fail(err)
	}
	var shed, oDropped int64
	for i, s := range sts {
		if s == nil {
			fmt.Printf("node %d: unreachable\n", i)
			continue
		}
		fmt.Printf("node %d: utilization=%.3f queue=%d injected=%d emitted=%d",
			s.NodeID, s.Utilization, s.QueueLen, s.Injected, s.Emitted)
		if s.Shed > 0 || s.OutboxDropped > 0 {
			fmt.Printf(" shed=%d outbox_dropped=%d", s.Shed, s.OutboxDropped)
		}
		fmt.Println()
		shed += s.Shed
		oDropped += s.OutboxDropped
	}
	if shed > 0 || oDropped > 0 {
		fmt.Printf("load shedding: %d tuples shed at ingress, %d dropped at outboxes\n", shed, oDropped)
	}
	count, mean, p95, p99, max := cl.Collector.LatencyStats()
	fmt.Printf("sink tuples=%d latency mean=%.1fms p95=%.1fms p99=%.1fms max=%.1fms\n",
		count, mean*1000, p95*1000, p99*1000, max*1000)
	if n := ev.Count(obs.EventOverloadOnset); n > 0 {
		fmt.Printf("overload: %d onset / %d clearance events (see -events or /events)\n",
			n, ev.Count(obs.EventOverloadClear))
	}
	if ctrl != nil {
		st := ctrl.Stats()
		fmt.Printf("controller: %d decisions, %d migrations (%d failed), last action %s, forecast headroom %.3f\n",
			st.Decisions, st.Moves, st.MoveFailures, st.LastAction, st.ForecastHeadroom)
		for _, mv := range ctrl.Moves() {
			status := "ok"
			if !mv.OK {
				status = "FAILED"
			}
			fmt.Printf("  migrated op %d: node %d -> node %d (%s)\n", mv.Op, mv.From, mv.To, status)
		}
	}
	if *hold > 0 && *metricsAddr != "" {
		fmt.Printf("holding observability endpoints for %gs...\n", *hold)
		time.Sleep(time.Duration(*hold * float64(time.Second)))
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rodengine:", err)
	os.Exit(1)
}
