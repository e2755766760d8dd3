package queueing

import (
	"context"
	"errors"
	"testing"

	"repro/internal/replicate"
	"repro/internal/workload"
)

// TestRunReplicationsDeterministicAcrossWorkers: the merged study is
// bit-identical for workers 1 and 4, and replication 0 reproduces a plain
// Simulate with the base seed.
func TestRunReplicationsDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	cfg := mmnnConfig(3, 2, 1, 7)
	cfg.Horizon = 1500
	cfg.Warmup = 150
	single, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var serial *ReplicationSet
	for _, workers := range []int{1, 4} {
		set, err := RunReplications(ctx, cfg, replicate.Config{Replications: 8, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(set.Results) != 8 || len(set.Losses) != 8 {
			t.Fatalf("workers=%d: %d results, %d losses", workers, len(set.Results), len(set.Losses))
		}
		r0 := set.Results[0]
		if r0.Arrivals != single.Arrivals || r0.Served != single.Served || r0.Lost != single.Lost {
			t.Fatalf("workers=%d: replication 0 diverged from plain Simulate", workers)
		}
		if serial == nil {
			serial = set
			continue
		}
		for i := range serial.Losses {
			if set.Losses[i] != serial.Losses[i] {
				t.Fatalf("workers=%d: loss %d = %v, workers=1 %v",
					workers, i, set.Losses[i], serial.Losses[i])
			}
		}
		if set.LossCI != serial.LossCI {
			t.Fatalf("workers=%d: CI %+v, workers=1 %+v", workers, set.LossCI, serial.LossCI)
		}
	}
}

// TestRunReplicationsClonesStatefulArrivals: a bursty MMPP2 config yields
// identical studies on repeated calls — per-replication clones keep the
// configured process pristine.
func TestRunReplicationsClonesStatefulArrivals(t *testing.T) {
	ctx := context.Background()
	cfg := mmnnConfig(3, 2, 1, 13)
	cfg.Arrivals = workload.NewMMPP2(8, 0.4, 2, 7.5)
	cfg.Horizon = 1500
	cfg.Warmup = 150
	first, err := RunReplications(ctx, cfg, replicate.Config{Replications: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunReplications(ctx, cfg, replicate.Config{Replications: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Losses {
		if first.Losses[i] != second.Losses[i] {
			t.Fatalf("replication %d diverged across calls: %v vs %v (arrival state leaked)",
				i, first.Losses[i], second.Losses[i])
		}
	}
}

func TestRunReplicationsEarlyStop(t *testing.T) {
	cfg := mmnnConfig(3, 2, 1, 7)
	cfg.Horizon = 1500
	cfg.Warmup = 150
	set, err := RunReplications(context.Background(), cfg,
		replicate.Config{Replications: 32, Precision: 0.5, MinReplications: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !set.EarlyStopped || len(set.Results) >= 32 {
		t.Fatalf("early=%v n=%d, want an early stop", set.EarlyStopped, len(set.Results))
	}
	if set.LossCI.RelativeHalfWidth() > 0.5 {
		t.Fatalf("stopped with CI %+v above the precision target", set.LossCI)
	}

	if _, err := RunReplications(context.Background(), cfg, replicate.Config{}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("zero replications: %v", err)
	}
	bad := cfg
	bad.Servers = 0
	if _, err := RunReplications(context.Background(), bad, replicate.Config{Replications: 2}); !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("invalid sim config: %v", err)
	}
}
