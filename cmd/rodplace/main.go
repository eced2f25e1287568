// Command rodplace reads a query graph (JSON) and prints a placement plan
// with its resiliency metrics.
//
// Usage:
//
//	rodplace -graph g.json -nodes 4 [-algo rod|rod-best|llf|connected|random] \
//	         [-capacities 1,1,2,2] [-rates 10,20] [-lower 5,0] [-samples 4000]
//
// With -graph - the graph is read from stdin. Use -demo to print a sample
// graph JSON instead of placing.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"rodsp/internal/cliutil"
	"rodsp/internal/cluster"
	"rodsp/internal/core"
	"rodsp/internal/feasible"
	"rodsp/internal/placement"
	"rodsp/internal/query"
)

func main() {
	var (
		graphPath  = flag.String("graph", "", "graph JSON file ('-' for stdin)")
		nodes      = flag.Int("nodes", 2, "number of nodes (used when -capacities is empty)")
		capsFlag   = flag.String("capacities", "", "comma-separated node capacities")
		algo       = flag.String("algo", "rod-best", "rod | rod-best | rod-clustered | llf | connected | random")
		ratesFlag  = flag.String("rates", "", "comma-separated average input rates (llf/connected)")
		lowerFlag  = flag.String("lower", "", "comma-separated workload lower bound (rod)")
		samples    = flag.Int("samples", 4000, "QMC samples for evaluation")
		seed       = flag.Int64("seed", 1, "seed for randomized choices")
		demo       = flag.Bool("demo", false, "print a sample graph JSON and exit")
		jsonOutput = flag.Bool("plan-json", false, "print the plan as JSON node assignments")
		ascii      = flag.Bool("ascii", false, "draw the normalized feasible region (2-variable models only)")
		describe   = flag.Bool("describe", false, "print the graph structure and linearized load model")
	)
	flag.Parse()

	if *demo {
		printDemo()
		return
	}
	if *graphPath == "" {
		fail("missing -graph (use -demo for a sample)")
	}
	g, err := loadGraph(*graphPath)
	if err != nil {
		fail(err.Error())
	}
	caps, err := cliutil.ParseCaps(*capsFlag, *nodes)
	if err != nil {
		fail(err.Error())
	}
	lm, err := query.BuildLoadModel(g)
	if err != nil {
		fail(err.Error())
	}
	if *describe {
		fmt.Print(query.Describe(g))
		fmt.Print(query.DescribeLoadModel(lm))
	}

	var plan *placement.Plan
	switch *algo {
	case "rod-clustered":
		res, err := cluster.Sweep(lm, caps, core.Config{Selector: core.SelectMaxPlaneDistance, Seed: *seed}, []float64{0.5, 1, 2, 4})
		if err != nil {
			fail(err.Error())
		}
		plan = res.Plan
		fmt.Printf("clustering: %d clusters via %s at threshold %g (plane distance %.4f)\n",
			res.NumCluster, res.Strategy, res.Threshold, res.PlaneDist)
	case "rod":
		cfg := core.Config{Selector: core.SelectMaxPlaneDistance, Seed: *seed, Graph: g}
		if *lowerFlag != "" {
			lb, err := cliutil.ParseVec(*lowerFlag, lm.D())
			if err != nil {
				fail(err.Error())
			}
			cfg.LowerBound = lb
		}
		plan, _, err = core.Place(lm.Coef, caps, cfg)
	case "rod-best":
		cfg := core.Config{Seed: *seed, Graph: g}
		if *lowerFlag != "" {
			lb, perr := cliutil.ParseVec(*lowerFlag, lm.D())
			if perr != nil {
				fail(perr.Error())
			}
			cfg.LowerBound = lb
		}
		plan, _, err = core.PlaceBest(lm.Coef, caps, cfg, *samples)
	case "llf", "connected":
		rates, perr := cliutil.ParseVec(*ratesFlag, lm.D())
		if perr != nil {
			fail("-rates required for " + *algo + ": " + perr.Error())
		}
		if *algo == "llf" {
			plan, err = placement.LLF(lm.Coef, caps, rates)
		} else {
			plan, err = placement.Connected(g, lm.Coef, caps, rates)
		}
	case "random":
		plan = placement.Random(g.NumOps(), len(caps), rand.New(rand.NewSource(*seed)))
	default:
		fail("unknown -algo " + *algo)
	}
	if err != nil {
		fail(err.Error())
	}

	if *jsonOutput {
		fmt.Print("[")
		for j, n := range plan.NodeOf {
			if j > 0 {
				fmt.Print(",")
			}
			fmt.Print(n)
		}
		fmt.Println("]")
		return
	}

	fmt.Printf("graph: %d operators, %d input streams, %d model variables (%d cuts)\n",
		g.NumOps(), g.NumInputs(), lm.D(), lm.NumCuts())
	for i := 0; i < plan.N; i++ {
		ops := plan.OpsOn(i)
		names := make([]string, len(ops))
		for k, op := range ops {
			names[k] = g.Op(query.OpID(op)).Name
		}
		fmt.Printf("node %d (capacity %g): %s\n", i, caps[i], strings.Join(names, ", "))
	}
	ratio, err := placement.Evaluate(plan, lm.Coef, caps, *samples)
	if err != nil {
		fail(err.Error())
	}
	w, err := placement.WeightsOf(plan, lm.Coef, caps)
	if err != nil {
		fail(err.Error())
	}
	fmt.Printf("feasible-set ratio to ideal: %.4f\n", ratio)
	fmt.Printf("min plane distance: %.4f (ideal %.4f)\n",
		feasible.MinPlaneDistance(w), feasible.IdealPlaneDistance(lm.D()))
	fmt.Printf("min axis distances: %v\n", feasible.MinAxisDistances(w))
	if *ascii {
		if lm.D() != 2 {
			fmt.Println("(-ascii needs a 2-variable model)")
		} else {
			fmt.Println("normalized feasible region ('#' feasible, '·' wasted ideal):")
			fmt.Print(feasible.RenderASCII(w, 48, 20))
		}
	}
}

func loadGraph(path string) (*query.Graph, error) {
	if path == "-" {
		return query.ReadJSON(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return query.ReadJSON(f)
}

func printDemo() {
	b := query.NewBuilder()
	pkts := b.Input("packets")
	conns := b.Input("connections")
	syn := b.Filter("syn", 0.0002, 0.3, pkts)
	b.Aggregate("synCount", 0.0004, 0.05, 5, syn)
	big := b.Filter("elephant", 0.0003, 0.1, pkts)
	b.Map("tagged", 0.0002, big)
	j := b.Join("matchConn", 0.00005, 0.02, 1.0, big, conns)
	b.Aggregate("flowStats", 0.0005, 0.1, 10, j)
	g, err := b.Build()
	if err != nil {
		fail(err.Error())
	}
	if err := query.WriteJSON(os.Stdout, g); err != nil {
		fail(err.Error())
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "rodplace:", msg)
	os.Exit(1)
}
