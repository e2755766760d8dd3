package workload

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/stats"
)

func TestSessionsMeanRate(t *testing.T) {
	// 5 sessions/s x 4 requests/session = 20 req/s.
	p := NewSessions(5, 4, nil)
	if p.Rate() != 20 {
		t.Fatalf("rate = %g", p.Rate())
	}
	got := measureRate(p, 4000, 81)
	if stats.RelativeError(got, 20) > 0.05 {
		t.Fatalf("measured %g, want 20", got)
	}
	if p.String() == "" {
		t.Fatal("empty description")
	}
}

func TestSessionsSingleRequestIsPoisson(t *testing.T) {
	// MeanRequests = 1 degenerates to a plain Poisson process.
	p := NewSessions(10, 1, nil)
	got := measureRate(p, 3000, 83)
	if stats.RelativeError(got, 10) > 0.05 {
		t.Fatalf("measured %g, want 10", got)
	}
	// Count autocorrelation ~ 0 (no clustering).
	counts := windowCounts(NewSessions(10, 1, nil), 1.0, 3000, 84)
	if ac := stats.Autocorrelation(counts, 1); math.Abs(ac) > 0.1 {
		t.Fatalf("single-request sessions correlated: %g", ac)
	}
}

func TestSessionsBurstierThanPoisson(t *testing.T) {
	// Long sessions with short gaps cluster requests: count variance
	// exceeds the Poisson (variance = mean) level.
	gap := stats.NewExponential(2) // 0.5 s mean gap: tight trains
	counts := windowCounts(NewSessions(2, 10, gap), 1.0, 6000, 85)
	mean := stats.Mean(counts)
	variance := stats.Variance(counts)
	if stats.RelativeError(mean, 20) > 0.1 {
		t.Fatalf("mean count %g, want ~20", mean)
	}
	if variance < 1.5*mean {
		t.Fatalf("sessions not bursty: var=%g mean=%g", variance, mean)
	}
	// And positively autocorrelated across windows (sessions span them).
	if ac := stats.Autocorrelation(counts, 1); ac < 0.05 {
		t.Fatalf("session counts uncorrelated: %g", ac)
	}
}

func TestSessionsMonotoneClock(t *testing.T) {
	p := NewSessions(3, 6, nil)
	s := stats.NewStream(87, "sessions/monotone")
	for i := 0; i < 20000; i++ {
		if gap := p.Next(s); gap < 0 {
			t.Fatalf("negative inter-arrival %g at %d", gap, i)
		}
	}
}

// oracleHeap drives container/heap, the reference for sessionHeap's
// element order.
type oracleHeap []float64

func (h oracleHeap) Len() int           { return len(h) }
func (h oracleHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h oracleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *oracleHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// TestSessionHeapMatchesContainerHeap: on random push/pop sequences, with
// many equal times, the typed heap returns what container/heap returns
// and keeps its elements in the same array order after every operation.
func TestSessionHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got sessionHeap
		var want oracleHeap
		for op := 0; op < 400; op++ {
			if len(want) == 0 || rng.Intn(5) < 3 {
				v := float64(rng.Intn(20)) / 4
				got.push(v)
				heap.Push(&want, v)
			} else if g, w := got.pop(), heap.Pop(&want).(float64); g != w {
				t.Fatalf("seed %d op %d: pop %g, container/heap %g", seed, op, g, w)
			}
			if !slices.Equal([]float64(got), want) {
				t.Fatalf("seed %d op %d: heap %v, container/heap %v", seed, op, got, want)
			}
		}
	}
}

func TestSessionsPanics(t *testing.T) {
	cases := []func(){
		func() { NewSessions(0, 2, nil) },
		func() { NewSessions(-1, 2, nil) },
		func() { NewSessions(1, 0.5, nil) },
		func() { NewSessions(1, math.NaN(), nil) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// windowCounts bins the arrival stream of p into fixed windows.
func windowCounts(p ArrivalProcess, window, horizon float64, seed uint64) []float64 {
	s := stats.NewStream(seed, "wc/"+p.String())
	counts := make([]float64, int(horizon/window))
	clock := 0.0
	for {
		clock += p.Next(s)
		if clock >= horizon {
			return counts
		}
		counts[int(clock/window)]++
	}
}
