package sweep

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/pool"
	"repro/internal/scenario"
)

func expandTestSpec(t *testing.T) []Point {
	t.Helper()
	sp, err := ParseSpecBytes([]byte(testSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	points, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return points
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunPointsDeterministicAcrossWorkers is the golden determinism check:
// the serialized sweep results are byte-identical whether the shared pool
// has one slot or eight.
func TestRunPointsDeterministicAcrossWorkers(t *testing.T) {
	points := expandTestSpec(t)
	var blobs [][]byte
	for _, workers := range []int{1, 8} {
		p, err := pool.New(workers)
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewEngine(p, nil, nil).RunPoints(context.Background(), points)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, mustJSON(t, res))
	}
	if string(blobs[0]) != string(blobs[1]) {
		t.Fatal("sweep results differ between workers=1 and workers=8")
	}
}

// TestCacheColdWarm pins the memoization contract: a warm rerun reproduces
// the cold run's results byte for byte, serving every point from cache.
func TestCacheColdWarm(t *testing.T) {
	points := expandTestSpec(t)
	dir := t.TempDir()
	p, err := pool.New(4)
	if err != nil {
		t.Fatal(err)
	}

	run := func() ([]PointResult, *Engine) {
		cache, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(p, cache, nil)
		res, err := e.RunPoints(context.Background(), points)
		if err != nil {
			t.Fatal(err)
		}
		return res, e
	}

	cold, coldEng := run()
	snap := coldEng.Registry().Snapshot()
	if snap.Counters["sweep/cache_misses"] != uint64(len(points)) {
		t.Fatalf("cold misses = %d, want %d", snap.Counters["sweep/cache_misses"], len(points))
	}
	if snap.Counters["sweep/cache_hits"] != 0 {
		t.Fatalf("cold hits = %d, want 0", snap.Counters["sweep/cache_hits"])
	}

	warm, warmEng := run()
	snap = warmEng.Registry().Snapshot()
	if snap.Counters["sweep/cache_hits"] != uint64(len(points)) {
		t.Fatalf("warm hits = %d, want %d", snap.Counters["sweep/cache_hits"], len(points))
	}
	for i, r := range warm {
		if !r.CacheHit {
			t.Fatalf("warm point %d not served from cache", i)
		}
		if r.Label != points[i].Label {
			t.Fatalf("warm point %d label = %q, want %q", i, r.Label, points[i].Label)
		}
	}
	if string(mustJSON(t, cold)) != string(mustJSON(t, warm)) {
		t.Fatal("warm rerun differs from cold run")
	}
}

// TestRunPointsRejectsBadIndices: results land in a slice indexed by
// Point.Index, so a hand-built point list with gaps or duplicates must be
// rejected up front rather than silently overwriting a neighbor (or
// panicking out of range).
func TestRunPointsRejectsBadIndices(t *testing.T) {
	points := expandTestSpec(t)
	e := NewEngine(nil, nil, nil)
	ctx := context.Background()

	cases := []struct {
		name   string
		mutate func([]Point)
	}{
		{"duplicate", func(ps []Point) { ps[1].Index = 0 }},
		{"gap", func(ps []Point) { ps[1].Index = len(ps) }},
		{"negative", func(ps []Point) { ps[0].Index = -1 }},
	}
	for _, tc := range cases {
		bad := append([]Point(nil), points...)
		tc.mutate(bad)
		if _, err := e.RunPoints(ctx, bad); !errors.Is(err, ErrInvalidSpec) {
			t.Fatalf("%s indices: err = %v, want ErrInvalidSpec", tc.name, err)
		}
	}

	// A subset of a larger expansion keeps its original indices; it must be
	// rejected, not have its results shifted down.
	if _, err := e.RunPoints(ctx, points[1:3]); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("subset with original indices: err = %v, want ErrInvalidSpec", err)
	}
}

// TestTimeoutKeepsPrefixClassifier pins the decision table for "did this
// point's own wall-clock deadline fire": only that case keeps the
// completed replication prefix. Real contexts are used throughout —
// the classifier reads live ctx.Err() state, not error strings.
func TestTimeoutKeepsPrefixClassifier(t *testing.T) {
	background := context.Background()

	// No per-point timeout armed: never a prefix-keeping timeout, whatever
	// the error says.
	if timeoutKeepsPrefix(background, background, context.DeadlineExceeded) {
		t.Fatal("no timeout armed classified as point timeout")
	}

	// The point's own deadline fired while the parent stayed alive: the
	// canonical timeout, including when the error arrives wrapped.
	parent, cancelParent := context.WithCancel(background)
	defer cancelParent()
	runCtx, cancelRun := context.WithTimeout(parent, time.Nanosecond)
	defer cancelRun()
	<-runCtx.Done()
	if !timeoutKeepsPrefix(runCtx, parent, context.DeadlineExceeded) {
		t.Fatal("own deadline with live parent not classified as timeout")
	}
	if !timeoutKeepsPrefix(runCtx, parent, fmt.Errorf("replication 3: %w", context.DeadlineExceeded)) {
		t.Fatal("wrapped deadline error not classified as timeout")
	}
	if timeoutKeepsPrefix(runCtx, parent, errors.New("rng exhausted")) {
		t.Fatal("unrelated error classified as timeout")
	}

	// A sibling failure cancels the parent after this point's deadline has
	// already fired: still the point's own timeout. This is the case the
	// old `ctx.Err() == nil` check got wrong — it turned a legitimate
	// timeout into a hard error whenever any sibling failed concurrently.
	cancelParent()
	if runCtx.Err() != context.DeadlineExceeded {
		t.Fatalf("runCtx.Err() = %v after parent cancel, want DeadlineExceeded", runCtx.Err())
	}
	if !timeoutKeepsPrefix(runCtx, parent, context.DeadlineExceeded) {
		t.Fatal("deadline-then-parent-cancel not classified as timeout")
	}

	// The parent cancelled first: the deadline never got to fire on its
	// own, so the point aborts.
	parent2, cancelParent2 := context.WithCancel(background)
	runCtx2, cancelRun2 := context.WithTimeout(parent2, time.Hour)
	defer cancelRun2()
	cancelParent2()
	<-runCtx2.Done()
	if timeoutKeepsPrefix(runCtx2, parent2, runCtx2.Err()) {
		t.Fatal("parent cancellation classified as point timeout")
	}

	// The parent's own deadline (a global abort) is never the point's
	// timeout, even though both contexts report DeadlineExceeded.
	parent3, cancelParent3 := context.WithTimeout(background, time.Nanosecond)
	defer cancelParent3()
	<-parent3.Done()
	runCtx3, cancelRun3 := context.WithTimeout(parent3, time.Hour)
	defer cancelRun3()
	<-runCtx3.Done()
	if timeoutKeepsPrefix(runCtx3, parent3, context.DeadlineExceeded) {
		t.Fatal("global deadline classified as point timeout")
	}
}

func TestTimeoutPointsNeverCached(t *testing.T) {
	points := expandTestSpec(t)
	points = points[:1]
	points[0].Scenario.Replication.TimeoutSec = 60

	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(nil, cache, nil)
	if _, err := e.RunPoints(context.Background(), points); err != nil {
		t.Fatal(err)
	}
	entries := 0
	if err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			entries++
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if entries != 0 {
		t.Fatalf("timeout-bounded point wrote %d cache entries", entries)
	}
}

func TestPointKeySemantics(t *testing.T) {
	base := func() scenario.Scenario {
		sp, err := ParseSpecBytes([]byte(testSpecJSON))
		if err != nil {
			t.Fatal(err)
		}
		return sp.Base
	}

	ky := newPointKeyer()
	a := base()
	b := base()
	b.Replication.Workers = 8
	ka, err := ky.key(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := ky.key(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatal("point key depends on the worker count")
	}

	c := base()
	c.Horizon = 99
	kc, err := ky.key(c)
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Fatal("point key ignores the horizon")
	}

	d := base()
	d.Seed = a.Seed + 1
	kd, err := ky.key(d)
	if err != nil {
		t.Fatal(err)
	}
	if kd == ka {
		t.Fatal("point key ignores the seed")
	}

	// The shard count changes wall-clock time, never results: it must hit
	// the same cache entry.
	e := base()
	e.Replication.Shards = 4
	ke, err := ky.key(e)
	if err != nil {
		t.Fatal(err)
	}
	if ke != ka {
		t.Fatal("point key depends on shards")
	}
}

// TestPointKeyerMatchesMarshal pins the buffered keyer to the original
// Marshal-based computation byte for byte — a drifting key would silently
// orphan every cache entry written before the buffered path existed.
func TestPointKeyerMatchesMarshal(t *testing.T) {
	sp, err := ParseSpecBytes([]byte(testSpecJSON))
	if err != nil {
		t.Fatal(err)
	}
	points, err := sp.Expand()
	if err != nil {
		t.Fatal(err)
	}
	ky := newPointKeyer()
	for _, p := range points {
		s := p.Scenario
		s.ApplyDefaults()
		rep := *s.Replication
		rep.Workers = 0
		rep.Shards = 0
		s.Replication = &rep
		blob, err := json.Marshal(struct {
			Engine      string               `json:"engine"`
			Scenario    scenario.Scenario    `json:"scenario"`
			Replication scenario.Replication `json:"replication"`
		}{EngineVersion, s, rep})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(blob)
		want := hex.EncodeToString(sum[:])

		got, err := ky.key(p.Scenario)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("point %d: buffered key %s, Marshal-based %s", p.Index, got, want)
		}
	}
}

func TestCachedHelper(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(nil, cache, nil)
	key := Key("unit", "cached-helper", "seed=7")

	calls := 0
	compute := func(context.Context) (float64, error) {
		calls++
		return 1.25, nil
	}
	for i := 0; i < 2; i++ {
		v, err := Cached(context.Background(), e, key, compute)
		if err != nil {
			t.Fatal(err)
		}
		if v != 1.25 {
			t.Fatalf("call %d: v = %g", i, v)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

func TestJFloatRoundTrip(t *testing.T) {
	values := []float64{0, 1.25, -3e-17, math.NaN(), math.Inf(1), math.Inf(-1), 0.1 + 0.2}
	for _, v := range values {
		blob, err := json.Marshal(JFloat(v))
		if err != nil {
			t.Fatalf("marshal %g: %v", v, err)
		}
		var back JFloat
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", blob, err)
		}
		got := float64(back)
		if math.IsNaN(v) {
			if !math.IsNaN(got) {
				t.Fatalf("NaN round-tripped to %g", got)
			}
			continue
		}
		if got != v {
			t.Fatalf("%g round-tripped to %g via %s", v, got, blob)
		}
	}
}
