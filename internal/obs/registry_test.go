package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("re-registration returned a different counter")
	}

	g := r.Gauge("g")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Load(); got != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", got)
	}
	g.SetMax(1.0)
	if got := g.Load(); got != 1.5 {
		t.Fatalf("SetMax lowered the gauge to %g", got)
	}
	g.SetMax(3)
	if got := g.Load(); got != 3 {
		t.Fatalf("SetMax = %g, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	s := h.snapshot()
	// 0.05 and 0.1 land in <=0.1; 0.5 in <=1; 2 in <=10; 100 overflows.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%+v)", i, s.Counts[i], w, s)
		}
	}
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Sum != 102.65 {
		t.Fatalf("sum = %g", s.Sum)
	}
}

func TestKindCollisionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering a counter name as a gauge did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.Gauge("x")
}

func TestSnapshotIncludesFuncCollectors(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(7)
	r.Gauge("g").Set(1.25)
	r.CounterFunc("cf", func() uint64 { return 11 })
	r.GaugeFunc("gf", func() float64 { return -2 })
	s := r.Snapshot()
	if s.Counters["c"] != 7 || s.Counters["cf"] != 11 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["g"] != 1.25 || s.Gauges["gf"] != -2 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := Snapshot{
		Counters: map[string]uint64{"c": 2},
		Gauges:   map[string]float64{"hw": 5},
		Histograms: map[string]HistogramSnapshot{
			"h": {Count: 2, Sum: 3, Bounds: []float64{1}, Counts: []uint64{1, 1}},
		},
	}
	b := Snapshot{
		Counters: map[string]uint64{"c": 3, "d": 1},
		Gauges:   map[string]float64{"hw": 4, "other": 9},
		Histograms: map[string]HistogramSnapshot{
			"h": {Count: 1, Sum: 0.5, Bounds: []float64{1}, Counts: []uint64{1, 0}},
		},
	}
	m := a.Merge(b)
	if m.Counters["c"] != 5 || m.Counters["d"] != 1 {
		t.Fatalf("counters = %v", m.Counters)
	}
	if m.Gauges["hw"] != 5 || m.Gauges["other"] != 9 {
		t.Fatalf("gauges = %v", m.Gauges)
	}
	h := m.Histograms["h"]
	if h.Count != 3 || h.Sum != 3.5 || h.Counts[0] != 2 || h.Counts[1] != 1 {
		t.Fatalf("histogram = %+v", h)
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("z").Inc()
	r.Counter("a").Inc()
	r.Gauge("m").Set(1)
	first, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(first) {
			t.Fatalf("snapshot JSON unstable:\n%s\n%s", first, again)
		}
	}
}

// TestHotPathAllocations pins the registry's core guarantee: observing a
// metric through a handle never allocates.
func TestHotPathAllocations(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10})
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(2)
		g.Add(0.5)
		g.SetMax(7)
		h.Observe(0.02)
		h.Observe(50)
	}); n != 0 {
		t.Fatalf("hot path allocates %v allocs/op, want 0", n)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", []float64{0.5})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%2) * 0.75)
			}
		}()
	}
	wg.Wait()
	if c.Load() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Load(), workers*per)
	}
	if got := h.count.Load(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}
