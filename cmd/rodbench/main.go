// Command rodbench regenerates the paper's tables and figures from this
// repository's implementations.
//
// Usage:
//
//	rodbench [-quick] [-seed N] [-workers N] [-csv DIR] [-list] [experiment ...]
//
// With no experiment names it runs the full suite; -list prints the
// experiment names.
//
// -workers sets the compute-plane worker count (0 = GOMAXPROCS). The
// rendered tables on stdout are byte-identical for any worker count;
// per-experiment wall-clock timings go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rodsp/internal/bench"
	"rodsp/internal/par"
)

func main() {
	quick := flag.Bool("quick", false, "shrink parameters for a fast run")
	seed := flag.Int64("seed", 1, "experiment seed")
	list := flag.Bool("list", false, "list experiment names and exit")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	workers := flag.Int("workers", 0, "compute-plane worker count (0 = GOMAXPROCS)")
	flag.Parse()

	if *list {
		for _, name := range bench.ExperimentNames {
			fmt.Println(name)
		}
		return
	}
	par.SetWorkers(*workers)
	names := flag.Args()
	if len(names) == 0 {
		names = bench.ExperimentNames
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fail(err)
		}
	}
	total := time.Duration(0)
	for _, name := range names {
		fmt.Printf("==== %s ====\n", name)
		start := time.Now()
		tables, err := bench.RunTables(name, *quick, *seed)
		elapsed := time.Since(start)
		if err != nil {
			fail(err)
		}
		total += elapsed
		fmt.Fprintf(os.Stderr, "rodbench: %-12s %8.3fs (workers=%d)\n", name, elapsed.Seconds(), par.Workers())
		for i, t := range tables {
			fmt.Println(t.String())
			if *csvDir != "" {
				path := filepath.Join(*csvDir, fmt.Sprintf("%s_%d.csv", name, i))
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					fail(err)
				}
			}
		}
	}
	fmt.Fprintf(os.Stderr, "rodbench: total        %8.3fs (workers=%d)\n", total.Seconds(), par.Workers())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "rodbench:", err)
	os.Exit(1)
}
