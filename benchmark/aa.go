package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// manifest is the part of BENCHMARK.json the A/A check reads.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), which is what
// the acceptance check of this benchmark uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// runChild runs this binary once as a child process and parses the JSON
// object on the last line of its output.
func runChild(cfg runConfig, workload string, seed int64) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", "0", "-dir", cfg.dir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var o outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &o); err != nil {
		return nil, fmt.Errorf("%s seed %d: last output line is not the result object: %w", workload, seed, err)
	}
	return &o, nil
}

// runAA is the A/A check: for every workload two interleaved sets of n
// untraced runs of the same code, each run on its own seed. For every
// end-to-end metric it prints both medians, how much worse the second is,
// each set's quartile spread, and the bound from BENCHMARK.json. It returns
// a non-zero exit code if a gap or (setup_s aside) a spread exceeds its bound
// or any run failed its checks.
func runAA(n int, cfg runConfig) int {
	m, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -aa runs from the repository root:", err)
		return 1
	}
	bad := 0
	fmt.Printf("A/A check: 2 sets x %d runs per workload, %g s each\n", n, cfg.seconds)
	fmt.Printf("%-14s %-16s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "B worse", "iqr A", "iqr B", "bound")
	for _, w := range m.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for set := 0; set < 2; set++ {
				o, err := runChild(cfg, w.Name, cfg.seed+int64(set*n+i))
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				if !o.Correct || o.Failed != 0 {
					fmt.Printf("%-14s run %d of set %c: correct=%v failed=%d of %d\n", w.Name, i, 'A'+set, o.Correct, o.Failed, o.Attempted)
					bad++
				}
				for name, v := range o.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		for _, e := range m.EndToEnd {
			a, b := median(sets[0][e.Name]), median(sets[1][e.Name])
			worse := (b - a) / a
			if e.Better == "higher" {
				worse = (a - b) / a
			}
			var iqr [2]float64
			if n >= 4 {
				for set := range sets {
					q1, q3 := quartiles(sets[set][e.Name])
					iqr[set] = (q3 - q1) / median(sets[set][e.Name])
				}
			}
			verdict := ""
			if worse > e.Bound || -worse > e.Bound {
				verdict = "  GAP > BOUND"
				bad++
			}
			if e.Name != "setup_s" && (iqr[0] > e.Bound || iqr[1] > e.Bound) {
				verdict += "  SPREAD > BOUND"
				bad++
			}
			fmt.Printf("%-14s %-16s %12.5g %12.5g %+8.3f %8.3f %8.3f %6.2f%s\n", w.Name, e.Name, a, b, worse, iqr[0], iqr[1], e.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("A/A check FAILED: %d problems\n", bad)
		return 1
	}
	fmt.Println("A/A check passed")
	return 0
}
