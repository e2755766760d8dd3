package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/scenario"
)

// span is one traced interval. Times are nanoseconds since the
// recorder's epoch; Parent 0 marks a root span. Req is the op the span
// belongs to, so the spans of one request share it. N is the number of
// units of work the span covers (evaluations, for eval spans).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
	Failed bool   `json:"failed,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) newID() int64 { return r.next.Add(1) }

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add records a finished span.
func (r *recorder) add(name string, id, parent, req int64, start, end time.Time, n int64, failed bool) {
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: r.since(start), End: r.since(end), N: n, Failed: failed}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs fn inside a span named name and returns fn's error; fn gets
// the span's id so its callees can parent their own spans on it.
func (r *recorder) timed(name string, parent, req int64, fn func(id int64) error) error {
	id := r.newID()
	start := time.Now()
	err := fn(id)
	r.add(name, id, parent, req, start, time.Now(), 1, err != nil)
	return err
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count  int64 // spans
	failed int64 // spans marked failed
	units  int64 // summed N
	total  int64 // summed duration, ns
	self   int64 // summed self time, ns
}

// aggregate sums span durations and self times by name. A span's self
// time is its duration minus the union of its children's intervals
// clipped to it, so children that run in parallel are not counted twice.
func aggregate(spans []span) map[string]*layerStat {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]*layerStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		dur := s.End - s.Start
		st.count++
		if s.Failed {
			st.failed++
		}
		st.units += s.N
		st.total += dur
		st.self += dur - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi].
func covered(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// perOpMs converts a summed nanosecond total into milliseconds per op.
func perOpMs(ns int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(ns) / 1e6 / float64(ops)
}

// meanMs is the mean span duration in milliseconds.
func (s *layerStat) meanMs() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return float64(s.total) / 1e6 / float64(s.count)
}

// spanHeader carries "<req>:<client span id>" from the load generator to the
// handler wrapper, which parents its serve span on the client span.
const spanHeader = "X-Perfbench-Span"

func spanHeaderValue(req, id int64) string {
	return strconv.FormatInt(req, 10) + ":" + strconv.FormatInt(id, 10)
}

func parseSpanHeader(v string) (req, id int64) {
	a, b, ok := strings.Cut(v, ":")
	if !ok {
		return 0, 0
	}
	req, _ = strconv.ParseInt(a, 10, 64)
	id, _ = strconv.ParseInt(b, 10, 64)
	return req, id
}

// tracedHandler wraps the server handler in traced runs: each request
// of a timed op becomes a serve span under the client span named in its
// header. Warm-up requests carry no header and record nothing.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hdr := r.Header.Get(spanHeader)
	if hdr == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	req, parent := parseSpanHeader(hdr)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	id := h.rec.newID()
	start := time.Now()
	h.next.ServeHTTP(sw, r)
	h.rec.add("serve", id, parent, req, start, time.Now(), 1, sw.status >= 400)
}

// statusWriter remembers the response status.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// spanCtxKey carries the enclosing span into evaluator calls, which get
// only the context the planner hands them.
type spanCtxKey struct{}

type spanRef struct{ id, req int64 }

func withSpan(ctx context.Context, id, req int64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, spanRef{id, req})
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanCtxKey{}).(spanRef)
	return ref
}

// tracedEval records an eval span around every evaluation of the wrapped
// evaluator. Use traceEvaluator to build one: the planner and
// eval.EvaluatePeriods change their path on the optional interfaces
// eval.SelfBudgeted and eval.BatchEvaluator, so the decorator must
// implement exactly the ones the wrapped evaluator does.
type tracedEval struct {
	inner eval.Evaluator
	rec   *recorder
}

func (t *tracedEval) Evaluate(ctx context.Context, s scenario.Scenario) (eval.Result, error) {
	ref := spanFrom(ctx)
	start := time.Now()
	res, err := t.inner.Evaluate(ctx, s)
	t.rec.add("eval", t.rec.newID(), ref.id, ref.req, start, time.Now(), 1, err != nil)
	return res, err
}

func (t *tracedEval) selfBudgeted() bool {
	return t.inner.(eval.SelfBudgeted).SelfBudgeted()
}

func (t *tracedEval) evaluateBatch(ctx context.Context, cands []scenario.Scenario) ([]eval.Result, error) {
	ref := spanFrom(ctx)
	start := time.Now()
	res, err := t.inner.(eval.BatchEvaluator).EvaluateBatch(ctx, cands)
	t.rec.add("eval", t.rec.newID(), ref.id, ref.req, start, time.Now(), int64(len(cands)), err != nil)
	return res, err
}

type tracedSelfBudgeted struct{ *tracedEval }

func (t tracedSelfBudgeted) SelfBudgeted() bool { return t.selfBudgeted() }

type tracedBatch struct{ *tracedEval }

func (t tracedBatch) EvaluateBatch(ctx context.Context, cands []scenario.Scenario) ([]eval.Result, error) {
	return t.evaluateBatch(ctx, cands)
}

type tracedSelfBudgetedBatch struct{ *tracedEval }

func (t tracedSelfBudgetedBatch) SelfBudgeted() bool { return t.selfBudgeted() }

func (t tracedSelfBudgetedBatch) EvaluateBatch(ctx context.Context, cands []scenario.Scenario) ([]eval.Result, error) {
	return t.evaluateBatch(ctx, cands)
}

// traceEvaluator wraps ev in the span-recording decorator that
// implements the same optional interfaces as ev.
func traceEvaluator(ev eval.Evaluator, rec *recorder) eval.Evaluator {
	t := &tracedEval{inner: ev, rec: rec}
	_, sb := ev.(eval.SelfBudgeted)
	_, be := ev.(eval.BatchEvaluator)
	switch {
	case sb && be:
		return tracedSelfBudgetedBatch{t}
	case sb:
		return tracedSelfBudgeted{t}
	case be:
		return tracedBatch{t}
	}
	return t
}

// traceFile names a run's trace file. Each traced run of a workload
// replaces the last one's, which keeps the disk a long series of traced
// runs takes to one file per workload.
func traceFile(o opts) string {
	return fmt.Sprintf("trace-%s.jsonl", o.workload)
}
