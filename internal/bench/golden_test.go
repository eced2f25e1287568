package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestPublishedTablesMatchGolden regenerates every cheap deterministic
// experiment and compares it byte for byte with the committed
// full_bench_results.txt. "Bit-identical results" is a claim every change
// to internal/feasible, internal/core or internal/placement makes; this is
// what fails when it is not true. latency, dynamic and empirical are
// deterministic too but take ≈ 20 s each, and crossval is wall-clock driven.
func TestPublishedTablesMatchGolden(t *testing.T) {
	raw, err := os.ReadFile("../../full_bench_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	// sections[name] is the text between "==== name ====\n" and the next header.
	sections := map[string]string{}
	for _, part := range strings.Split("\n"+string(raw), "\n==== ")[1:] {
		name, body, ok := strings.Cut(part, " ====\n")
		if !ok {
			t.Fatalf("malformed section header %q", part[:min(len(part), 40)])
		}
		sections[name] = body + "\n"
	}

	names := []string{"figure2", "table2", "figure9", "figure14", "figure15", "loadshift",
		"lowerbound", "joins", "clustering", "rodvariants", "ordering"}
	if !testing.Short() {
		names = append(names, "optimal")
	}
	for _, name := range names {
		want, ok := sections[name]
		if !ok {
			t.Fatalf("full_bench_results.txt has no %q section", name)
		}
		var got bytes.Buffer
		if err := Run(&got, name, false, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.String() != want {
			t.Errorf("%s drifted from full_bench_results.txt:\n--- regenerated\n%s--- committed\n%s", name, got.String(), want)
		}
	}
}
