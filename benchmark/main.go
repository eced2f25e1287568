// Command benchmark is the repository's one performance benchmark: it runs
// one workload (chain, shard_zipf, chain_durable or replan), checks the
// outputs, and prints every metric by name with its unit. README.md explains
// the workloads, the measurement rules and how each layer metric is expected
// to move the end-to-end ones.
//
//	bash benchmark/run.sh --workload chain --seed 1 --seconds 24 --trace 0
//	bash benchmark/run.sh --workload chain --seed 1 --seconds 24 --trace 1
//	bash benchmark/run.sh --aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"rodsp/internal/par"
)

func main() {
	var cfg runConfig
	var trace, aa int
	flag.StringVar(&cfg.workload, "workload", "", "chain | shard_zipf | chain_durable | replan")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 24, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	flag.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "run"), "scratch directory (WAL, trace file)")
	flag.IntVar(&aa, "aa", 0, "A/A check: two interleaved sets of N runs per workload, compared against BENCHMARK.json")
	flag.Parse()
	cfg.trace = trace != 0

	if aa > 0 {
		os.Exit(runAA(aa, cfg))
	}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Printf("run    workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	o.print(os.Stdout, defs)
	line, err := json.Marshal(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and returns its outcome.
func run(cfg runConfig) (*outcome, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %g", cfg.seconds)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	var o *outcome
	var err error
	if cfg.workload == "replan" {
		// The placement plane is measured single-threaded: one decision, one
		// core, so the number does not depend on what else the host runs.
		par.SetWorkers(1)
		o, err = runReplan(cfg)
	} else {
		spec, ok := findSpec(cfg.workload)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (chain, shard_zipf, chain_durable, replan)", cfg.workload)
		}
		o, err = runDataplane(cfg, spec)
	}
	if err != nil {
		return nil, err
	}
	o.flags["nproc"] = fmt.Sprint(runtime.NumCPU())
	o.flags["gomaxprocs"] = fmt.Sprint(runtime.GOMAXPROCS(0))
	o.flags["go_version"] = runtime.Version()
	if _, ok := o.flags["invalid"]; !ok {
		o.flags["invalid"] = "false"
	}
	return o, nil
}

func findSpec(name string) (dpSpec, bool) {
	for _, s := range dpSpecs {
		if s.name == name {
			return s, true
		}
	}
	return dpSpec{}, false
}
