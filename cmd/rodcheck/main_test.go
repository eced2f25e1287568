package main

import (
	"flag"
	"strings"
	"testing"

	"rodsp/internal/check"
)

// TestReproReplaysSameClass: the repro line printed for a failing chaos
// episode must replay the class that episode ran with inside the longer
// loop "-seed 1 -episodes 40", not whatever class the first episode of a
// loop happens to get.
func TestReproReplaysSameClass(t *testing.T) {
	const base = 1
	for i := 0; i < 40; i++ {
		s := seedOf(base, i)
		inLoop := check.ClassFor(s)

		fs := flag.NewFlagSet("repro", flag.ContinueOnError)
		seed := fs.Int64("seed", 0, "")
		episodes := fs.Int("episodes", 0, "")
		fs.Int("nodes", 0, "")
		line := reproLine(s, 4, episodeRepro)
		args := strings.Fields(line)
		if len(args) < 3 || strings.Join(args[:3], " ") != "go run ./cmd/rodcheck" {
			t.Fatalf("repro %q does not run rodcheck", line)
		}
		if err := fs.Parse(args[3:]); err != nil {
			t.Fatalf("repro %q: %v", line, err)
		}
		if *episodes != 1 {
			t.Fatalf("repro %q runs %d episodes, want 1", line, *episodes)
		}
		if replayed := check.ClassFor(seedOf(*seed, 0)); replayed != inLoop {
			t.Errorf("seed %d ran as %s in the loop, but its repro %q runs %s", s, inLoop, line, replayed)
		}
	}
	// -seed 1 -episodes 4 (the CI smoke) must still cover every chaos class.
	for _, c := range []check.Class{check.Strict, check.KillNode, check.CorrSpike} {
		found := false
		for i := 0; i < 4; i++ {
			found = found || check.ClassFor(seedOf(base, i)) == c
		}
		if !found {
			t.Errorf("-seed 1 -episodes 4 runs no %s episode", c)
		}
	}
}
