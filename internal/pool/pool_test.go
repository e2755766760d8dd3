package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestNewSemantics(t *testing.T) {
	p, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Size(); got != 3 {
		t.Fatalf("Size = %d, want 3", got)
	}

	p, err = New(0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Size(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Size = %d, want GOMAXPROCS %d", got, want)
	}

	if _, err := New(-1); err == nil {
		t.Fatal("New(-1) accepted; want a clear rejection")
	}
}

func TestBoundedConcurrency(t *testing.T) {
	p, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	var active, peak atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Run(ctx, func() error {
				n := active.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				active.Add(-1)
				return nil
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if peak.Load() > 2 {
		t.Fatalf("observed %d concurrent tasks through a 2-slot pool", peak.Load())
	}
	if p.Units() != 16 {
		t.Fatalf("Units = %d, want 16", p.Units())
	}
	if p.Active() != 0 {
		t.Fatalf("Active = %d after all releases", p.Active())
	}
	if p.Peak() < 1 || p.Peak() > 2 {
		t.Fatalf("Peak = %d, want within [1,2]", p.Peak())
	}
}

func TestAcquireCancellation(t *testing.T) {
	p, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer p.Release()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Acquire(ctx); err != context.Canceled {
		t.Fatalf("Acquire on a full pool with cancelled ctx: %v, want context.Canceled", err)
	}
}

// TestAcquireDoneContextNeverAdmits: a done context must lose even when
// slots are free — work must never start after shutdown began. Before the
// ctx.Err() pre-check, the select picked either ready branch at random, so
// roughly half of these calls would have been admitted.
func TestAcquireDoneContextNeverAdmits(t *testing.T) {
	p, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 100; i++ {
		if err := p.Acquire(ctx); err != context.Canceled {
			t.Fatalf("Acquire %d with free slots and done ctx: %v, want context.Canceled", i, err)
		}
	}
	if p.Active() != 0 || p.Units() != 0 {
		t.Fatalf("done-context Acquires leaked state: active=%d units=%d", p.Active(), p.Units())
	}
}

// TestTryAcquire: non-blocking claims succeed exactly while slots are
// free, fail immediately at capacity, and feed the same occupancy
// accounting as Acquire.
func TestTryAcquire(t *testing.T) {
	p, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.TryAcquire() || !p.TryAcquire() {
		t.Fatal("TryAcquire failed with free slots")
	}
	if p.TryAcquire() {
		t.Fatal("TryAcquire succeeded at capacity")
	}
	if p.Active() != 2 || p.Peak() != 2 || p.Units() != 2 {
		t.Fatalf("accounting: active=%d peak=%d units=%d", p.Active(), p.Peak(), p.Units())
	}
	p.Release()
	if !p.TryAcquire() {
		t.Fatal("TryAcquire failed after Release freed a slot")
	}
	p.Release()
	p.Release()
	if p.Active() != 0 {
		t.Fatalf("active=%d after releasing all", p.Active())
	}
	var nilPool *Pool
	if !nilPool.TryAcquire() {
		t.Fatal("nil pool TryAcquire must succeed (unbounded)")
	}
	nilPool.Release()
}

// TestPeakNeverExceedsSize: a contended one-slot pool must never report
// a peak above its size, although a waiting Acquire takes the slot the
// instant Release frees it. That hand-over window is narrow, hence many
// short trials.
func TestPeakNeverExceedsSize(t *testing.T) {
	const trials, workers, pairs = 1000, 9, 100
	ctx := context.Background()
	for trial := 0; trial < trials; trial++ {
		p, err := New(1)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < pairs; i++ {
					if err := p.Acquire(ctx); err != nil {
						t.Error(err)
						return
					}
					p.Release()
				}
			}()
		}
		wg.Wait()
		if got := p.Peak(); got != 1 {
			t.Fatalf("trial %d: Peak = %d on a one-slot pool", trial, got)
		}
	}
}

// TestUnpairedReleasePanics: an unbalanced Release must fail loudly at the
// bug, not grow the slot count and deadlock a later Acquire, and must
// leave the active count as it found it.
func TestUnpairedReleasePanics(t *testing.T) {
	p, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unpaired Release did not panic")
		}
		if got := p.Active(); got != 0 {
			t.Fatalf("Active = %d after an unpaired Release", got)
		}
	}()
	p.Release()
}

func TestNilPoolNoOps(t *testing.T) {
	var p *Pool
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Release()
	if err := p.Run(context.Background(), func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if p.Size() != 0 || p.Active() != 0 || p.Peak() != 0 || p.Units() != 0 {
		t.Fatal("nil pool reported non-zero state")
	}
	p.Observe(obs.NewRegistry()) // must not panic
}

func TestObserve(t *testing.T) {
	p, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	p.Observe(reg)
	if err := p.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Gauges["pool/size"] != 4 {
		t.Fatalf("pool/size = %g, want 4", snap.Gauges["pool/size"])
	}
	if snap.Gauges["pool/active"] != 1 || snap.Gauges["pool/peak_active"] != 1 {
		t.Fatalf("active/peak = %g/%g, want 1/1",
			snap.Gauges["pool/active"], snap.Gauges["pool/peak_active"])
	}
	if snap.Counters["pool/units_run"] != 1 {
		t.Fatalf("pool/units_run = %d, want 1", snap.Counters["pool/units_run"])
	}
	p.Release()
}
