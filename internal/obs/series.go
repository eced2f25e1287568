package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Series is one ring-buffered time series: (t, value) points where t is
// seconds since the run/sampler start (wall time for the engine, virtual
// time for the simulator). Once full, new points overwrite the oldest.
type Series struct {
	Name   string
	Labels []string // k1,v1,k2,v2,...

	mu    sync.Mutex
	times []float64
	vals  []float64
	head  int // index of the oldest point
	n     int // number of live points
}

func newSeries(name string, labels []string, capacity int) *Series {
	return &Series{
		Name:   name,
		Labels: labels,
		times:  make([]float64, capacity),
		vals:   make([]float64, capacity),
	}
}

// Append records one point.
func (s *Series) Append(t, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n < len(s.vals) {
		i := (s.head + s.n) % len(s.vals)
		s.times[i], s.vals[i] = t, v
		s.n++
		return
	}
	s.times[s.head], s.vals[s.head] = t, v
	s.head = (s.head + 1) % len(s.vals)
}

// Points returns the retained points oldest-first.
func (s *Series) Points() (ts, vs []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts = make([]float64, s.n)
	vs = make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		j := (s.head + i) % len(s.vals)
		ts[i], vs[i] = s.times[j], s.vals[j]
	}
	return ts, vs
}

// Last returns the most recent point, ok=false when empty.
func (s *Series) Last() (t, v float64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return 0, 0, false
	}
	i := (s.head + s.n - 1) % len(s.vals)
	return s.times[i], s.vals[i], true
}

// Len returns the number of retained points.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Min returns the smallest retained value (ok=false when empty).
func (s *Series) Min() (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return 0, false
	}
	min := s.vals[s.head]
	for i := 1; i < s.n; i++ {
		if v := s.vals[(s.head+i)%len(s.vals)]; v < min {
			min = v
		}
	}
	return min, true
}

// Mean returns the average of the retained values (0 when empty): the
// time-average of a series sampled at a fixed interval.
func (s *Series) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < s.n; i++ {
		sum += s.vals[(s.head+i)%len(s.vals)]
	}
	return sum / float64(s.n)
}

// ID renders the series identity as name{k="v",...}.
func (s *Series) ID() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i := 0; i+1 < len(s.Labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", s.Labels[i], s.Labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// SeriesSet is a registry of ring-buffered series keyed by name + labels.
type SeriesSet struct {
	mu       sync.Mutex
	capacity int
	order    []*Series
	byKey    map[string]*Series
}

// NewSeriesSet returns an empty set whose series retain up to capacity
// points each (default 2048 when capacity <= 0).
func NewSeriesSet(capacity int) *SeriesSet {
	if capacity <= 0 {
		capacity = 2048
	}
	return &SeriesSet{capacity: capacity, byKey: map[string]*Series{}}
}

// Series returns (creating on first use) the series with the given name and
// label pairs.
func (ss *SeriesSet) Series(name string, labels ...string) *Series {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: series %q has odd label list %v", name, labels))
	}
	key := name + "\xfe" + labelKey(labels)
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if s := ss.byKey[key]; s != nil {
		return s
	}
	cp := make([]string, len(labels))
	copy(cp, labels)
	s := newSeries(name, cp, ss.capacity)
	ss.byKey[key] = s
	ss.order = append(ss.order, s)
	return s
}

// All returns every series, sorted by identity for determinism.
func (ss *SeriesSet) All() []*Series {
	ss.mu.Lock()
	out := make([]*Series, len(ss.order))
	copy(out, ss.order)
	ss.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Names returns the sorted distinct metric names present in the set — the
// series schema, compared across the simulator and the engine by the
// cross-validation harness.
func (ss *SeriesSet) Names() []string {
	seen := map[string]bool{}
	for _, s := range ss.All() {
		seen[s.Name] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SameSchema verifies two sets expose the same metric names — the contract
// that makes the simulator's and the engine's series directly comparable.
// A mismatch names the first metric, in sorted order, that only one set has.
func SameSchema(a, b *SeriesSet) error {
	an, bn := a.Names(), b.Names()
	i, j := 0, 0
	for i < len(an) || j < len(bn) {
		switch {
		case j == len(bn) || (i < len(an) && an[i] < bn[j]):
			return fmt.Errorf("obs: schema mismatch: %s only in the first set", an[i])
		case i == len(an) || bn[j] < an[i]:
			return fmt.Errorf("obs: schema mismatch: %s only in the second set", bn[j])
		}
		i++
		j++
	}
	return nil
}

// seriesJSON is the wire form of one series in /series responses.
type seriesJSON struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Points [][2]float64      `json:"points"`
}

// WriteJSON renders {"series":[...]} with points as [t, v] pairs.
func (ss *SeriesSet) WriteJSON(w io.Writer) error {
	var out struct {
		Series []seriesJSON `json:"series"`
	}
	for _, s := range ss.All() {
		ts, vs := s.Points()
		sj := seriesJSON{Name: s.Name, Points: make([][2]float64, len(ts))}
		if len(s.Labels) > 0 {
			sj.Labels = map[string]string{}
			for i := 0; i+1 < len(s.Labels); i += 2 {
				sj.Labels[s.Labels[i]] = s.Labels[i+1]
			}
		}
		for i := range ts {
			sj.Points[i] = [2]float64{ts[i], vs[i]}
		}
		out.Series = append(out.Series, sj)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}

// WriteCSV renders the set in long form: time,series,value — one row per
// point, series identified as name{k="v",...}.
func (ss *SeriesSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "series", "value"}); err != nil {
		return err
	}
	for _, s := range ss.All() {
		id := s.ID()
		ts, vs := s.Points()
		for i := range ts {
			row := []string{
				strconv.FormatFloat(ts[i], 'g', -1, 64),
				id,
				strconv.FormatFloat(vs[i], 'g', -1, 64),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Sampler polls registered sources at a configurable interval and appends
// each reading to its ring-buffered series. Sources are plain probes
// (func() float64) or registry gauges/counters; the clock is supplied by
// the caller, so the engine samples wall time while the simulator samples
// virtual time through the same machinery.
type Sampler struct {
	set *SeriesSet

	mu     sync.Mutex
	probes []samplerProbe
}

type samplerProbe struct {
	s  *Series
	fn func() float64
}

// NewSampler returns a sampler writing into set (a fresh default set when
// nil).
func NewSampler(set *SeriesSet) *Sampler {
	if set == nil {
		set = NewSeriesSet(0)
	}
	return &Sampler{set: set}
}

// Set returns the underlying series set.
func (sp *Sampler) Set() *SeriesSet { return sp.set }

// Probe registers a source polled on every Sample call.
func (sp *Sampler) Probe(name string, fn func() float64, labels ...string) *Series {
	s := sp.set.Series(name, labels...)
	sp.mu.Lock()
	sp.probes = append(sp.probes, samplerProbe{s: s, fn: fn})
	sp.mu.Unlock()
	return s
}

// ProbeGauge registers a registry gauge as a source.
func (sp *Sampler) ProbeGauge(name string, g *Gauge, labels ...string) *Series {
	return sp.Probe(name, g.Value, labels...)
}

// ProbeCounter registers a registry counter as a source (sampled as its raw
// cumulative value).
func (sp *Sampler) ProbeCounter(name string, c *Counter, labels ...string) *Series {
	return sp.Probe(name, func() float64 { return float64(c.Value()) }, labels...)
}

// Sample polls every registered source once, stamping the readings with t
// (seconds since the caller's chosen epoch).
func (sp *Sampler) Sample(t float64) {
	sp.mu.Lock()
	probes := make([]samplerProbe, len(sp.probes))
	copy(probes, sp.probes)
	sp.mu.Unlock()
	for _, p := range probes {
		p.s.Append(t, p.fn())
	}
}

// Run samples every interval of wall time until stop closes, stamping
// readings with seconds since Run began. It blocks; run it in a goroutine.
func (sp *Sampler) Run(interval time.Duration, stop <-chan struct{}) {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	start := time.Now()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-tick.C:
			sp.Sample(now.Sub(start).Seconds())
		}
	}
}
