package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Run grades, ordered from best to worst.
const (
	GradePass     = "pass"
	GradeDegraded = "degraded"
	GradeFail     = "fail"
)

// SLOSpec is a per-run service-level objective: a p99 latency target with a
// degraded band, an optional zero-shed requirement, and an optional drop
// budget. The zero value grades every run as pass.
type SLOSpec struct {
	// P99Ms is the p99 sink-latency target in milliseconds; 0 disables the
	// latency gate.
	P99Ms float64 `json:"p99_ms,omitempty"`
	// DegradedFactor widens the latency target for the degraded band:
	// p99 ≤ P99Ms is pass, p99 ≤ DegradedFactor×P99Ms is degraded, beyond
	// is fail. Defaults to 1.5 when 0.
	DegradedFactor float64 `json:"degraded_factor,omitempty"`
	// ZeroShed fails the run if any tuple was shed at an ingress queue.
	ZeroShed bool `json:"zero_shed,omitempty"`
	// MaxDrops is the budget for data-plane drops (outbox overflow/faults
	// plus no-route discards). Negative disables the gate.
	MaxDrops int64 `json:"max_drops"`
}

// ParseSLOSpec parses a comma-separated spec such as
//
//	p99=250ms,zero-shed,max-drops=100
//
// Latency values accept time.ParseDuration syntax. Unknown keys error.
func ParseSLOSpec(s string) (SLOSpec, error) {
	spec := SLOSpec{MaxDrops: -1}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, hasVal := strings.Cut(part, "=")
		switch key {
		case "p99":
			if !hasVal {
				return spec, fmt.Errorf("obs: slo term %q needs a duration value", part)
			}
			d, err := time.ParseDuration(val)
			if err != nil {
				return spec, fmt.Errorf("obs: slo p99 %q: %w", val, err)
			}
			spec.P99Ms = float64(d) / float64(time.Millisecond)
		case "degraded-factor":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 1 {
				return spec, fmt.Errorf("obs: slo degraded-factor %q must be a number ≥ 1", val)
			}
			spec.DegradedFactor = f
		case "zero-shed":
			if hasVal {
				return spec, fmt.Errorf("obs: slo term %q takes no value", part)
			}
			spec.ZeroShed = true
		case "max-drops":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return spec, fmt.Errorf("obs: slo max-drops %q must be a non-negative integer", val)
			}
			spec.MaxDrops = n
		default:
			return spec, fmt.Errorf("obs: unknown slo term %q (want p99=DUR, degraded-factor=F, zero-shed, max-drops=N)", part)
		}
	}
	return spec, nil
}

// Empty reports whether the spec gates nothing.
func (s SLOSpec) Empty() bool {
	return s.P99Ms <= 0 && !s.ZeroShed && s.MaxDrops < 0
}

// String renders the spec back in ParseSLOSpec syntax.
func (s SLOSpec) String() string {
	var terms []string
	if s.P99Ms > 0 {
		terms = append(terms, fmt.Sprintf("p99=%gms", s.P99Ms))
	}
	if s.DegradedFactor > 0 && s.DegradedFactor != 1.5 {
		terms = append(terms, fmt.Sprintf("degraded-factor=%g", s.DegradedFactor))
	}
	if s.ZeroShed {
		terms = append(terms, "zero-shed")
	}
	if s.MaxDrops >= 0 {
		terms = append(terms, fmt.Sprintf("max-drops=%d", s.MaxDrops))
	}
	if len(terms) == 0 {
		return "(empty)"
	}
	return strings.Join(terms, ",")
}

// Grade grades one run against the spec. p99Ms is the observed sink p99 in
// milliseconds, shed the total ingress-shed count, drops the total
// data-plane drop count. The reasons explain every non-pass contribution.
func (s SLOSpec) Grade(p99Ms float64, shed, drops int64) (string, []string) {
	grade := GradePass
	var reasons []string
	worsen := func(g, reason string) {
		reasons = append(reasons, reason)
		if g == GradeFail || grade == GradeFail {
			grade = GradeFail
		} else {
			grade = GradeDegraded
		}
	}
	if s.P99Ms > 0 {
		factor := s.DegradedFactor
		if factor <= 0 {
			factor = 1.5
		}
		switch {
		case p99Ms <= s.P99Ms:
		case p99Ms <= factor*s.P99Ms:
			worsen(GradeDegraded, fmt.Sprintf("p99 %.2fms exceeds target %gms (within degraded band %.2fms)",
				p99Ms, s.P99Ms, factor*s.P99Ms))
		default:
			worsen(GradeFail, fmt.Sprintf("p99 %.2fms exceeds degraded band %.2fms (target %gms)",
				p99Ms, factor*s.P99Ms, s.P99Ms))
		}
	}
	if s.ZeroShed && shed > 0 {
		worsen(GradeFail, fmt.Sprintf("%d tuples shed under zero-shed requirement", shed))
	}
	if s.MaxDrops >= 0 && drops > s.MaxDrops {
		worsen(GradeFail, fmt.Sprintf("%d tuples dropped, budget %d", drops, s.MaxDrops))
	}
	return grade, reasons
}

// StageReport is one stage's latency summary inside a RunReport.
type StageReport struct {
	Stage  string  `json:"stage"`
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

// StageReportFrom summarizes a StageSet's histograms (nil set → nil).
func StageReportFrom(set *StageSet) []StageReport {
	if set == nil {
		return nil
	}
	out := make([]StageReport, 0, NumStages)
	for i := 0; i < NumStages; i++ {
		h := set.Hist(i)
		r := StageReport{Stage: StageName(i), Count: h.Count()}
		if r.Count > 0 {
			r.MeanMs = h.Sum() / float64(r.Count) * 1000
			if v, ok := h.Quantile(50); ok {
				r.P50Ms = v * 1000
			}
			if v, ok := h.Quantile(99); ok {
				r.P99Ms = v * 1000
			}
		}
		out = append(out, r)
	}
	return out
}

// RunReport is the machine-readable outcome of one graded run, written by
// rodcheck -slo/-report.
type RunReport struct {
	Harness  string   `json:"harness"` // "rodcheck"
	Grade    string   `json:"grade"`   // pass | degraded | fail
	Reasons  []string `json:"reasons,omitempty"`
	SLO      SLOSpec  `json:"slo"`
	Scenario string   `json:"scenario,omitempty"`

	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	SinkTuples int64   `json:"sink_tuples"`
	Shed       int64   `json:"shed"`
	Drops      int64   `json:"drops"`

	Stages   []StageReport `json:"stages,omitempty"`
	Episodes int           `json:"episodes,omitempty"`
}

// WriteFile writes the report as indented JSON.
func (r *RunReport) WriteFile(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
