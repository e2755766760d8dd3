package replicate

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// fakeSim is a deterministic stand-in for a simulator: the output depends
// only on the seed, never on timing or worker identity.
func fakeSim(_ int, seed uint64) (float64, error) {
	// A cheap splitmix64-style scramble mapped into [0, 1).
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z%1_000_003) / 1_000_003, nil
}

func identity(x float64) float64 { return x }

func TestValidate(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{Replications: 0}, fakeSim, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("zero replications: %v", err)
	}
	if _, err := Run(ctx, Config{Replications: 2, Precision: -1}, fakeSim, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("negative precision: %v", err)
	}
	if _, err := Run(ctx, Config{Replications: 2, Confidence: 1}, fakeSim, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("confidence 1: %v", err)
	}
	if _, err := Run[float64](ctx, Config{Replications: 2}, nil, nil); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("nil sim: %v", err)
	}
}

// TestDeterminismAcrossWorkers is the engine's core guarantee: identical
// seeds produce bit-identical merged results for any worker count.
func TestDeterminismAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	base := Config{Replications: 16, Seed: 42}
	var ref *Result[float64]
	for _, workers := range []int{1, 4} {
		cfg := base
		cfg.Workers = workers
		res, err := Run(ctx, cfg, fakeSim, identity)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Outputs) != 16 {
			t.Fatalf("workers=%d: %d outputs", workers, len(res.Outputs))
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range ref.Outputs {
			if res.Outputs[i] != ref.Outputs[i] || res.Metrics[i] != ref.Metrics[i] {
				t.Fatalf("workers=%d: replication %d diverged: %v vs %v",
					workers, i, res.Outputs[i], ref.Outputs[i])
			}
		}
		if res.CI != ref.CI {
			t.Fatalf("workers=%d: CI diverged: %+v vs %+v", workers, res.CI, ref.CI)
		}
	}
}

// TestSeedDerivation pins replication r to seed base+r in index order.
func TestSeedDerivation(t *testing.T) {
	res, err := Run(context.Background(), Config{Replications: 5, Seed: 100, Workers: 3},
		func(_ int, seed uint64) (uint64, error) { return seed, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Outputs {
		if s != 100+uint64(i) {
			t.Fatalf("replication %d ran with seed %d", i, s)
		}
	}
	if res.Metrics != nil || res.CI.Confidence != 0 {
		t.Fatalf("metricless run produced metrics %v CI %+v", res.Metrics, res.CI)
	}
}

// TestEarlyStopHonorsPrecision: a constant metric has zero variance, so the
// study must stop at MinReplications; tightening the precision to
// impossible levels must disable stopping for a noisy metric.
func TestEarlyStopHonorsPrecision(t *testing.T) {
	ctx := context.Background()
	constant := func(_ int, _ uint64) (float64, error) { return 0.25, nil }
	res, err := Run(ctx, Config{Replications: 64, Precision: 0.05, Workers: 4}, constant, identity)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStopped {
		t.Fatal("constant metric did not early-stop")
	}
	if len(res.Outputs) != 3 { // default MinReplications
		t.Fatalf("stopped after %d replications, want 3", len(res.Outputs))
	}
	if res.CI.Point != 0.25 || res.CI.RelativeHalfWidth() > 0.05 {
		t.Fatalf("CI %+v", res.CI)
	}

	// The stopping point must respect a raised floor.
	res, err = Run(ctx, Config{Replications: 64, Precision: 0.05, MinReplications: 7}, constant, identity)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 7 {
		t.Fatalf("stopped after %d replications, want 7", len(res.Outputs))
	}

	// An unreachable precision must run the study to completion.
	res, err = Run(ctx, Config{Replications: 12, Precision: 1e-12, Workers: 4}, fakeSim, identity)
	if err != nil {
		t.Fatal(err)
	}
	if res.EarlyStopped || len(res.Outputs) != 12 {
		t.Fatalf("early=%v n=%d, want full 12", res.EarlyStopped, len(res.Outputs))
	}
}

// TestEarlyStopDeterministicAcrossWorkers: the stopping index is a prefix
// property, so parallel runs stop exactly where the serial run does.
func TestEarlyStopDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	// Metric with decaying noise: early replications are noisy, later ones
	// nearly constant, so the stopping index is somewhere in the middle.
	sim := func(rep int, seed uint64) (float64, error) {
		v, _ := fakeSim(rep, seed)
		return 1 + (v-0.5)/(1+float64(rep)*float64(rep)), nil
	}
	var ref *Result[float64]
	for _, workers := range []int{1, 4} {
		res, err := Run(ctx, Config{Replications: 40, Seed: 7, Precision: 0.02, Workers: workers}, sim, identity)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			if !res.EarlyStopped || len(res.Outputs) == 40 {
				t.Fatalf("test needs a mid-study stop, got early=%v n=%d", res.EarlyStopped, len(res.Outputs))
			}
			continue
		}
		if len(res.Outputs) != len(ref.Outputs) || res.CI != ref.CI {
			t.Fatalf("workers=%d stopped at %d (CI %+v), serial stopped at %d (CI %+v)",
				workers, len(res.Outputs), res.CI, len(ref.Outputs), ref.CI)
		}
	}
}

// TestContextCancellation: a cancelled study returns promptly with the
// completed prefix and ctx.Err(), and leaks no goroutines.
func TestContextCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	release := make(chan struct{})
	sim := func(rep int, seed uint64) (float64, error) {
		if calls.Add(1) == 3 {
			cancel()
		} else if rep > 0 {
			<-release // block until cancellation is visible
		}
		return float64(rep), nil
	}
	done := make(chan struct{})
	var res *Result[float64]
	var err error
	go func() {
		res, err = Run(ctx, Config{Replications: 100, Workers: 2}, sim, identity)
		close(done)
	}()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("cancel never fired")
	}
	close(release)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Outputs) >= 100 {
		t.Fatalf("expected a partial prefix, got %+v", res)
	}
	for i, v := range res.Outputs {
		if v != float64(i) {
			t.Fatalf("partial prefix not contiguous at %d: %v", i, v)
		}
	}
	// All workers must have exited.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestTimeout: context deadlines behave like cancellation.
func TestTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	sim := func(rep int, _ uint64) (float64, error) {
		if rep > 1 {
			<-ctx.Done()
		}
		return float64(rep), nil
	}
	res, err := Run(ctx, Config{Replications: 50, Workers: 2}, sim, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if res == nil || len(res.Outputs) == 50 {
		t.Fatal("expected partial results")
	}
}

// TestErrorPropagation: the reported failure is the lowest-index error, the
// same one a serial loop hits first.
func TestErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	sim := func(rep int, _ uint64) (float64, error) {
		if rep == 2 || rep == 5 {
			return 0, boom
		}
		return float64(rep), nil
	}
	_, err := Run(context.Background(), Config{Replications: 10, Workers: 4}, sim, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "replication 2") {
		t.Fatalf("error names the wrong replication: %v", err)
	}
}

// TestCIQuality sanity-checks the interval against known sample statistics.
func TestCIQuality(t *testing.T) {
	res, err := Run(context.Background(), Config{Replications: 30, Seed: 9, Workers: 4}, fakeSim, identity)
	if err != nil {
		t.Fatal(err)
	}
	want := stats.Mean(res.Metrics)
	if math.Abs(res.CI.Point-want) > 1e-12 {
		t.Fatalf("CI point %v, sample mean %v", res.CI.Point, want)
	}
	if ci := res.CI; ci.HalfWidth() <= 0 || !(ci.Lo <= want && want <= ci.Hi) {
		t.Fatalf("degenerate CI %+v", res.CI)
	}
}

func TestEngineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{Replications: 12, Workers: 4, Obs: reg}
	if _, err := Run(context.Background(), cfg, fakeSim, identity); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters["replicate/reps_completed"]; got != 12 {
		t.Fatalf("completed = %d, want 12", got)
	}
	if got := s.Counters["replicate/reps_failed"]; got != 0 {
		t.Fatalf("failed = %d, want 0", got)
	}
	wall := s.Histograms["replicate/rep_wall_seconds"]
	if wall.Count != 12 {
		t.Fatalf("wall-time observations = %d, want 12", wall.Count)
	}
	if got := s.Gauges["replicate/configured_workers"]; got != 4 {
		t.Fatalf("configured workers = %g, want 4", got)
	}
	if peak := s.Gauges["replicate/peak_active_workers"]; peak < 1 || peak > 4 {
		t.Fatalf("peak active workers = %g, want within [1, 4]", peak)
	}
	if got := s.Gauges["replicate/active_workers"]; got != 0 {
		t.Fatalf("active workers after Run = %g, want 0", got)
	}
	if got := s.Gauges["replicate/early_stop_round"]; got != 0 {
		t.Fatalf("early stop round = %g, want 0 (no early stop)", got)
	}
}

func TestEngineMetricsEarlyStopAndFailure(t *testing.T) {
	reg := obs.NewRegistry()
	// Constant metric: the CI collapses at MinReplications.
	constSim := func(int, uint64) (float64, error) { return 1, nil }
	res, err := Run(context.Background(),
		Config{Replications: 50, Workers: 1, Precision: 0.01, Obs: reg},
		constSim, identity)
	if err != nil {
		t.Fatal(err)
	}
	if !res.EarlyStopped {
		t.Fatal("expected early stop")
	}
	if got := reg.Snapshot().Gauges["replicate/early_stop_round"]; got != float64(len(res.Outputs)) {
		t.Fatalf("early stop round = %g, want %d", got, len(res.Outputs))
	}

	reg = obs.NewRegistry()
	boom := errors.New("boom")
	failSim := func(rep int, _ uint64) (float64, error) {
		if rep == 1 {
			return 0, boom
		}
		return 1, nil
	}
	if _, err := Run(context.Background(),
		Config{Replications: 2, Workers: 1, Obs: reg}, failSim, nil); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	s := reg.Snapshot()
	if s.Counters["replicate/reps_failed"] != 1 || s.Counters["replicate/reps_completed"] != 1 {
		t.Fatalf("completed/failed = %d/%d, want 1/1",
			s.Counters["replicate/reps_completed"], s.Counters["replicate/reps_failed"])
	}
}
