package obs

import (
	"fmt"
	"reflect"
	"strconv"
	"sync"
	"testing"
)

// TestObserverWindows feeds synthetic windows to the shared observer and
// checks the per-window rules both runtimes inherit: the overload latch's
// thresholds and hysteresis, the utilization clamp, the source EWMA and the
// headroom, with stale nodes left out.
func TestObserverWindows(t *testing.T) {
	type step struct {
		util  []float64
		queue []int
		add   int64     // tuples injected on source "I" during the window
		loads []float64 // per-node loads (nil: no load model)
		stale []int     // nodes marked stale before the window
	}
	cases := []struct {
		name   string
		cfg    ObserverConfig
		steps  []step
		events []string // type@node:queue, in order
		util   []float64
		head   []float64
		over   []bool
		rate   float64
	}{
		{
			name: "onset needs utilization and backlog",
			cfg:  ObserverConfig{Nodes: 1},
			steps: []step{
				{util: []float64{0.99}, queue: []int{99}},
				{util: []float64{0.94}, queue: []int{500}},
				{util: []float64{0.95}, queue: []int{100}},
			},
			events: []string{"overload_onset@0:100"},
			over:   []bool{true},
		},
		{
			name: "hysteresis keeps a draining node latched",
			cfg:  ObserverConfig{Nodes: 1, OverloadQueue: 100},
			steps: []step{
				{util: []float64{1}, queue: []int{100}},
				{util: []float64{0.5}, queue: []int{26}},
				{util: []float64{0.97}, queue: []int{5}},
				{util: []float64{0.5}, queue: []int{25}},
			},
			events: []string{"overload_onset@0:100", "overload_clear@0:25"},
			over:   []bool{false},
		},
		{
			// A quarter of a backlog under 4 is 0; the floor of 1 keeps a
			// small OverloadQueue from demanding a perfectly empty queue.
			name: "clear floor of one queued tuple",
			cfg:  ObserverConfig{Nodes: 1, OverloadQueue: 2},
			steps: []step{
				{util: []float64{1}, queue: []int{2}},
				{util: []float64{0.5}, queue: []int{1}},
			},
			events: []string{"overload_onset@0:2", "overload_clear@0:1"},
			over:   []bool{false},
		},
		{
			name: "utilization clamped into [0, 1]",
			cfg:  ObserverConfig{Nodes: 2, OverloadQueue: 10},
			steps: []step{
				{util: []float64{1.7, -0.3}, queue: []int{10, 0}},
			},
			events: []string{"overload_onset@0:10"},
			util:   []float64{1, 0},
			over:   []bool{true, false},
		},
		{
			// First delta 10/0.5 = 20 seeds the average; the second, 80,
			// moves it halfway: 20 + 0.5·(80 − 20) = 50.
			name: "source rate is the EWMA of counter deltas over dt",
			cfg:  ObserverConfig{Nodes: 1, RateAlpha: 0.5},
			steps: []step{
				{util: []float64{0}, queue: []int{0}, add: 10},
				{util: []float64{0}, queue: []int{0}, add: 40},
			},
			rate: 50,
		},
		{
			// Node 1's capacity 0 counts as 1, node 2 has none (1 too) but
			// is stale: its gauges stay zeroed and it never latches.
			name: "headroom with a non-positive capacity and a stale node",
			cfg:  ObserverConfig{Nodes: 3, Caps: []float64{2, 0}, OverloadQueue: 10},
			steps: []step{
				{util: []float64{0.2, 0.4, 1}, queue: []int{0, 0, 500}, loads: []float64{1, 0.5, 3}, stale: []int{2}},
			},
			util: []float64{0.2, 0.4, 0},
			head: []float64{0.5, 0.5, 0},
			over: []bool{false, false, false},
		},
		{
			name: "going stale clears the latch without a clear event",
			cfg:  ObserverConfig{Nodes: 1, OverloadQueue: 10},
			steps: []step{
				{util: []float64{1}, queue: []int{50}},
				{util: []float64{1}, queue: []int{50}, stale: []int{0}},
			},
			events: []string{"overload_onset@0:50"},
			util:   []float64{0},
			head:   []float64{0},
			over:   []bool{false},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := NewObserver(nil, nil, nil, tc.cfg)
			src := o.Source("I")
			for k, st := range tc.steps {
				for _, i := range st.stale {
					o.SetStale(i, true)
				}
				src.Add(st.add)
				w := Window{T: float64(k+1) * 0.5, Dt: 0.5, Util: st.util, Queue: st.queue}
				if st.loads != nil {
					w.Loads = func([]float64) []float64 { return st.loads }
				}
				o.Observe(w)
			}
			var got []string
			for _, e := range o.Events().Events() {
				got = append(got, fmt.Sprintf("%s@%v:%v", e.Type, e.Fields["node"], e.Fields["queue"]))
				if u := e.Fields["util"].(float64); u < 0 || u > 1 {
					t.Errorf("%s carries unclamped util %g", e.Type, u)
				}
			}
			if !reflect.DeepEqual(got, tc.events) {
				t.Errorf("events = %v, want %v", got, tc.events)
			}
			st := o.State()
			if tc.util != nil && !reflect.DeepEqual(st.Utils, tc.util) {
				t.Errorf("utilization gauges = %v, want %v", st.Utils, tc.util)
			}
			if tc.head != nil && !reflect.DeepEqual(st.Headrooms, tc.head) {
				t.Errorf("headroom gauges = %v, want %v", st.Headrooms, tc.head)
			}
			if tc.over != nil && !reflect.DeepEqual(st.Overloaded, tc.over) {
				t.Errorf("overload latch = %v, want %v", st.Overloaded, tc.over)
			}
			if st.Rates[0] != tc.rate {
				t.Errorf("source rate = %g, want %g", st.Rates[0], tc.rate)
			}
			if n := o.Series().Series(MetricNodeUtilization, "node", "0").Len(); n != len(tc.steps) {
				t.Errorf("%d utilization points for %d windows", n, len(tc.steps))
			}
		})
	}
}

// TestNodeLoads checks the per-node aggregation: operators sum onto their
// nodes, and an operator placed off the node range or without a load is
// skipped.
func TestNodeLoads(t *testing.T) {
	dst := []float64{9, 9}
	got := NodeLoads(dst, []float64{0.25, 0.5, 1, 2}, []int{0, 0, 1, -1, 1})
	if want := []float64{0.75, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("NodeLoads = %v, want %v", got, want)
	}
}

// TestObserverControllerSchema checks the controller series join the schema
// only on request, once, and start at a forecast headroom of 1.
func TestObserverControllerSchema(t *testing.T) {
	o := NewObserver(nil, nil, nil, ObserverConfig{Nodes: 2})
	base := len(o.Series().Names())
	c := o.Controller()
	if o.Controller() != c {
		t.Fatal("Controller must register its series once")
	}
	if got := len(o.Series().Names()); got != base+5 {
		t.Fatalf("%d series names with the controller, want %d", got, base+5)
	}
	if c.ForecastHeadroom.Value() != 1 {
		t.Fatalf("forecast headroom starts at %g, want 1", c.ForecastHeadroom.Value())
	}
}

// TestObserverConcurrentReaders runs the sampling side (SetStale, Observe)
// against readers on other goroutines — State, as Monitor.Snapshot calls
// it, late Source registrations and the controller's registration — for
// the race detector.
func TestObserverConcurrentReaders(t *testing.T) {
	o := NewObserver(nil, nil, nil, ObserverConfig{Nodes: 2, OverloadQueue: 1})
	in := o.Source("I")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				switch r {
				case 0:
					if st := o.State(); len(st.Overloaded) != 2 || len(st.Rates) == 0 {
						t.Errorf("State = %+v", st)
						return
					}
				case 1:
					o.Source("S" + strconv.Itoa(k%8)).Inc()
				default:
					o.Controller().Decisions.Inc()
				}
			}
		}(r)
	}
	for k := 0; k < 200; k++ {
		o.SetStale(1, k%3 == 0)
		in.Add(5)
		o.Observe(Window{
			T: float64(k), Dt: 1,
			Util:  []float64{float64(k % 2), 1},
			Queue: []int{k % 2, 3},
			Loads: func(rates []float64) []float64 { return []float64{rates[0], 1} },
		})
	}
	close(stop)
	wg.Wait()
	if got := o.State().Rates[0]; got != 5 {
		t.Fatalf("source rate = %g, want 5", got)
	}
}
