package bench

import (
	"fmt"
	"strconv"
	"time"

	"rodsp/internal/core"
	"rodsp/internal/engine"
	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
	"rodsp/internal/sim"
	"rodsp/internal/trace"
	"rodsp/internal/workload"
)

// CrossValConfig drives the simulator-vs-prototype cross-validation behind
// the paper's Section 7.3.1 claim: "the simulator results tracked the
// results in Borealis very closely, thus allowing us to trust the simulator
// for experiments in which the total running time in Borealis would be
// prohibitive." The same workload, traces and plans run through both the
// discrete-event simulator and the TCP engine (time-compressed), and the
// per-node utilizations are compared.
type CrossValConfig struct {
	Streams     int
	Nodes       int
	UtilLevels  []float64
	WallSeconds float64 // engine wall-clock drive time per point
	Speedup     float64 // trace-time compression for the engine
	Seed        int64
}

// Defaults fills unset fields.
func (c *CrossValConfig) Defaults() {
	if c.Streams == 0 {
		c.Streams = 3
	}
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.UtilLevels == nil {
		c.UtilLevels = []float64{0.4, 0.7}
	}
	if c.WallSeconds == 0 {
		c.WallSeconds = 4
	}
	if c.Speedup == 0 {
		c.Speedup = 25
	}
}

// Run compares, per algorithm and load level, the simulator's and the
// engine's mean/max node utilization on identical workloads.
func (c CrossValConfig) Run() (*Table, error) {
	c.Defaults()
	g, err := workload.TrafficMonitoring(workload.MonitoringConfig{Streams: c.Streams, Seed: c.Seed})
	if err != nil {
		return nil, err
	}
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		return nil, err
	}
	caps := homogeneous(c.Nodes)

	rodPlan, _, err := core.PlaceBest(lm.Coef, caps, core.Config{}, 3000)
	if err != nil {
		return nil, err
	}
	_, means, err := workload.ScaledTraces(lm, caps.Sum(), 0.6, c.Seed)
	if err != nil {
		return nil, err
	}
	avg, err := lm.ResolveVars(means)
	if err != nil {
		return nil, err
	}
	llfPlan, err := placement.LLF(lm.Coef, caps, avg)
	if err != nil {
		return nil, err
	}
	plans := []struct {
		name string
		plan *placement.Plan
	}{{"ROD", rodPlan}, {"LLF", llfPlan}}

	t := &Table{
		Title: "Simulator vs prototype cross-validation (Section 7.3.1's 'the simulator tracked Borealis closely')",
		Note: fmt.Sprintf("traffic monitoring, %d streams on %d nodes; engine runs %gs wall at %gx time compression",
			c.Streams, c.Nodes, c.WallSeconds, c.Speedup),
		Header: []string{"mean util", "plan", "sim mean(U)", "engine mean(U)", "sim max(U)", "engine max(U)", "|Δmean|"},
	}
	for _, util := range c.UtilLevels {
		traces, _, err := workload.ScaledTraces(lm, caps.Sum(), util, c.Seed)
		if err != nil {
			return nil, err
		}
		for _, p := range plans {
			simMean, simMax, simSeries, err := c.runSim(g, p.plan, caps, traces)
			if err != nil {
				return nil, err
			}
			engMean, engMax, engSeries, err := c.runEngine(g, lm, p.plan, caps, traces)
			if err != nil {
				return nil, err
			}
			// Both runtimes must emit the identical obs metric schema — the
			// contract that makes their series directly comparable.
			if err := obs.SameSchema(simSeries, engSeries); err != nil {
				return nil, fmt.Errorf("bench: sim vs engine: %w", err)
			}
			delta := simMean - engMean
			if delta < 0 {
				delta = -delta
			}
			t.AddRow(f3(util), p.name, f3(simMean), f3(engMean), f3(simMax), f3(engMax), f3(delta))
		}
	}
	return t, nil
}

// utilFromSeries derives per-node utilization figures from sampled obs
// series: the time-average of each node's windowed utilization, plus the
// largest per-node average.
func utilFromSeries(set *obs.SeriesSet, n int) (mean, max float64) {
	for i := 0; i < n; i++ {
		u := set.Series(obs.MetricNodeUtilization, "node", strconv.Itoa(i)).Mean()
		mean += u
		if u > max {
			max = u
		}
	}
	return mean / float64(n), max
}

func (c CrossValConfig) runSim(g *query.Graph, plan *placement.Plan, caps []float64, traces []*trace.Trace) (mean, max float64, set *obs.SeriesSet, err error) {
	sources := map[query.StreamID]*trace.Trace{}
	for i, in := range g.Inputs() {
		sources[in] = traces[i]
	}
	res, err := sim.Run(sim.Config{
		Graph:      g,
		NodeOf:     plan.NodeOf,
		Capacities: caps,
		Sources:    sources,
		Duration:   c.WallSeconds * c.Speedup,
		Seed:       c.Seed,
		MaxEvents:  50_000_000,
		Obs:        &sim.ObsConfig{},
	})
	if err != nil {
		return 0, 0, nil, err
	}
	mean, max = utilFromSeries(res.Series, len(caps))
	return mean, max, res.Series, nil
}

func (c CrossValConfig) runEngine(g *query.Graph, lm *query.LoadModel, plan *placement.Plan, caps []float64, traces []*trace.Trace) (mean, max float64, set *obs.SeriesSet, err error) {
	cl, err := engine.StartCluster(caps)
	if err != nil {
		return 0, 0, nil, err
	}
	defer cl.Close()
	mon := cl.StartMonitor(engine.MonitorConfig{
		Interval: 100 * time.Millisecond,
		LM:       lm,
		Plan:     plan,
		Caps:     caps,
	})
	if err := cl.Deploy(g, plan, caps); err != nil {
		return 0, 0, nil, err
	}
	if err := cl.Start(); err != nil {
		return 0, 0, nil, err
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
			Stream: in,
			// The driver multiplies rates by Speedup; divide the mean out so
			// the wall-clock load matches the simulated one.
			Trace:   traces[i].ScaleToMean(traces[i].Mean() / c.Speedup),
			Addrs:   dests,
			Speedup: c.Speedup,
			MaxRate: 6000,
			Count:   mon.SourceCounter(in),
		}
		go func() {
			_, err := src.Run(time.Duration(c.WallSeconds*float64(time.Second)), nil)
			done <- err
		}()
	}
	for range traces {
		if e := <-done; e != nil {
			return 0, 0, nil, e
		}
	}
	time.Sleep(200 * time.Millisecond)
	mean, max = utilFromSeries(mon.Series(), len(caps))
	return mean, max, mon.Series(), nil
}
