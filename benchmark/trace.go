package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Times are nanoseconds since the tracer was made.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = none
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run calls it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<15)} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(layer string, parent int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Layer: layer, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// layerTotals is the per-layer roll-up written beside the spans.
type layerTotals struct {
	Calls   int   `json:"calls"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"` // total minus the time covered by child spans
}

// traceFile is the on-disk form: every span, the per-layer self times, and
// the counts (the per-layer metrics) taken at the same boundaries.
type traceFile struct {
	Run     string                 `json:"run"` // shared identifier of every span in the file
	Spans   []span                 `json:"spans"`
	Layers  map[string]layerTotals `json:"layers"`
	Metrics map[string]metric      `json:"metrics"`
}

// write rolls the spans up per layer and writes the trace file.
func (t *tracer) write(path, run string, metrics map[string]metric) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1) // time covered by direct children, by parent id
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	layers := map[string]layerTotals{}
	for _, s := range t.spans {
		lt := layers[s.Layer]
		lt.Calls++
		lt.TotalNs += s.End - s.Start
		lt.SelfNs += s.End - s.Start - child[s.ID]
		layers[s.Layer] = lt
	}
	data, err := json.Marshal(traceFile{Run: run, Spans: t.spans, Layers: layers, Metrics: metrics})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
