package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func TestSeriesRingWraparound(t *testing.T) {
	ss := NewSeriesSet(8)
	s := ss.Series("m", "node", "0")
	for i := 0; i < 20; i++ {
		s.Append(float64(i), float64(i*10))
	}
	if s.Len() != 8 {
		t.Fatalf("len = %d, want 8", s.Len())
	}
	ts, vs := s.Points()
	for i := range ts {
		wantT := float64(12 + i) // last 8 of 0..19
		if ts[i] != wantT || vs[i] != wantT*10 {
			t.Fatalf("point %d = (%g,%g), want (%g,%g)", i, ts[i], vs[i], wantT, wantT*10)
		}
	}
	if lt, lv, ok := s.Last(); !ok || lt != 19 || lv != 190 {
		t.Fatalf("last = (%g,%g,%v)", lt, lv, ok)
	}
	if min, ok := s.Min(); !ok || min != 120 {
		t.Fatalf("min = %g ok=%v, want 120", min, ok)
	}
}

func TestSeriesPartialFill(t *testing.T) {
	ss := NewSeriesSet(16)
	s := ss.Series("m")
	if _, _, ok := s.Last(); ok {
		t.Fatal("empty series must have no last point")
	}
	s.Append(1, 2)
	s.Append(3, 4)
	ts, vs := s.Points()
	if len(ts) != 2 || ts[0] != 1 || vs[1] != 4 {
		t.Fatalf("points = %v %v", ts, vs)
	}
}

func TestSeriesSetIdentityAndSchema(t *testing.T) {
	ss := NewSeriesSet(4)
	if ss.Series("a", "k", "v") != ss.Series("a", "k", "v") {
		t.Fatal("same identity must return the same series")
	}
	if ss.Series("a", "k", "v") == ss.Series("a", "k", "w") {
		t.Fatal("different labels must be a different series")
	}
	ss.Series("b")
	names := ss.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
	if id := ss.Series("a", "k", "v").ID(); id != `a{k="v"}` {
		t.Fatalf("id = %s", id)
	}
}

func TestSamplerPolls(t *testing.T) {
	sp := NewSampler(nil)
	x := 1.0
	sp.Probe("probe_metric", func() float64 { return x }, "node", "0")
	reg := NewRegistry()
	g := reg.Gauge("gauge_metric")
	c := reg.Counter("counter_metric")
	sp.ProbeGauge("gauge_metric", g)
	sp.ProbeCounter("counter_metric", c)

	g.Set(5)
	c.Add(3)
	sp.Sample(0.5)
	x = 2
	g.Set(6)
	sp.Sample(1.0)

	ts, vs := sp.Set().Series("probe_metric", "node", "0").Points()
	if len(ts) != 2 || vs[0] != 1 || vs[1] != 2 || ts[1] != 1.0 {
		t.Fatalf("probe series = %v %v", ts, vs)
	}
	_, gv := sp.Set().Series("gauge_metric").Points()
	if gv[0] != 5 || gv[1] != 6 {
		t.Fatalf("gauge series = %v", gv)
	}
	_, cv := sp.Set().Series("counter_metric").Points()
	if cv[0] != 3 || cv[1] != 3 {
		t.Fatalf("counter series = %v", cv)
	}
}

func TestSeriesSetJSONAndCSV(t *testing.T) {
	ss := NewSeriesSet(4)
	s := ss.Series("rodsp_node_utilization", "node", "0")
	s.Append(0, 0.5)
	s.Append(1, 0.75)

	var jb bytes.Buffer
	if err := ss.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Series []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Points [][2]float64      `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(jb.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Series) != 1 || decoded.Series[0].Name != "rodsp_node_utilization" ||
		decoded.Series[0].Labels["node"] != "0" || decoded.Series[0].Points[1][1] != 0.75 {
		t.Fatalf("json = %s", jb.String())
	}

	var cb bytes.Buffer
	if err := ss.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&cb).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][0] != "time" || rows[0][1] != "series" || rows[0][2] != "value" {
		t.Fatalf("csv rows = %v", rows)
	}
	if rows[2][0] != "1" || rows[2][1] != `rodsp_node_utilization{node="0"}` || rows[2][2] != "0.75" {
		t.Fatalf("csv data row = %v", rows[2])
	}
}

func TestSeriesMean(t *testing.T) {
	ss := NewSeriesSet(4)
	s := ss.Series("m")
	if m := s.Mean(); m != 0 {
		t.Fatalf("mean of an empty series = %g, want 0", m)
	}
	for i := 1; i <= 6; i++ { // the ring keeps 3, 4, 5, 6
		s.Append(float64(i), float64(i))
	}
	if m := s.Mean(); m != 4.5 {
		t.Fatalf("mean = %g, want 4.5 over the retained points", m)
	}
}

func TestSameSchemaNamesFirstDifference(t *testing.T) {
	set := func(names ...string) *SeriesSet {
		ss := NewSeriesSet(1)
		for _, n := range names {
			ss.Series(n, "node", "0")
			ss.Series(n, "node", "1")
		}
		return ss
	}
	if err := SameSchema(set("a", "b", "c"), set("c", "b", "a")); err != nil {
		t.Fatalf("identical schemas rejected: %v", err)
	}
	for _, tc := range []struct {
		a, b *SeriesSet
		want string
	}{
		{set("a", "b", "c", "d"), set("a", "c"), "b only in the first set"},
		{set("a", "c"), set("a", "b", "c", "d"), "b only in the second set"},
		{set("a", "b"), set("a", "b", "z"), "z only in the second set"},
		{set("x"), set(), "x only in the first set"},
	} {
		err := SameSchema(tc.a, tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("SameSchema(%v, %v) = %v, want %q", tc.a.Names(), tc.b.Names(), err, tc.want)
		}
	}
}
