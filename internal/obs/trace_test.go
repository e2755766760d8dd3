package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/desim"
)

func TestTraceWriterRecordsSchedulerOps(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, 1)
	sim := desim.New()
	sim.SetTracer(tw)

	h := sim.After(5, func() {})
	sim.After(1, func() {})
	h.Cancel()
	sim.Run(math.Inf(1))
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	var ops []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line struct {
			Seq uint64  `json:"seq"`
			Op  string  `json:"op"`
			Now float64 `json:"now"`
			At  float64 `json:"at"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		ops = append(ops, line.Op)
	}
	want := []string{"schedule", "schedule", "cancel", "fire"}
	if strings.Join(ops, ",") != strings.Join(want, ",") {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
}

func TestTraceWriterSampling(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, 10)
	sim := desim.New()
	sim.SetTracer(tw)
	for i := 0; i < 100; i++ {
		sim.After(1, func() {})
	}
	sim.Run(math.Inf(1))
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	// 200 operations (100 schedules + 100 fires) sampled 1-in-10.
	lines := strings.Count(buf.String(), "\n")
	if lines != 20 {
		t.Fatalf("sampled lines = %d, want 20", lines)
	}
}
