package obs

import (
	"bufio"
	"io"
	"strconv"
	"sync"

	"repro/internal/desim"
)

// TraceWriter emits scheduler operations as one JSON object per line
// (JSONL) for post-hoc debugging of sim schedules. It implements
// desim.Tracer; install it with Simulator.SetTracer.
//
// A sampling rate keeps full-fidelity tracing optional: sampleEvery = 1
// records every operation, N > 1 records every Nth (counted across all
// operation kinds), preserving relative density between schedules, fires
// and cancels. Lines are hand-formatted into a reused buffer, so tracing
// adds no per-event allocation — only the sampled writes.
//
// TraceWriter is safe for concurrent use (replicated runs may share one
// writer; their lines interleave but each line stays intact).
type TraceWriter struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	closer io.Closer
	every  uint64
	n      uint64
	seq    uint64
	buf    []byte
	err    error
}

// NewTraceWriter wraps w. sampleEvery <= 1 records every operation;
// N > 1 records one in N. If w is an io.Closer, Close closes it.
func NewTraceWriter(w io.Writer, sampleEvery int) *TraceWriter {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	t := &TraceWriter{
		bw:    bufio.NewWriterSize(w, 1<<16),
		every: uint64(sampleEvery),
		buf:   make([]byte, 0, 128),
	}
	if c, ok := w.(io.Closer); ok {
		t.closer = c
	}
	return t
}

// TraceEvent implements desim.Tracer.
func (t *TraceWriter) TraceEvent(op desim.TraceOp, now, at desim.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	if t.n%t.every != 0 || t.err != nil {
		return
	}
	t.seq++
	b := t.buf[:0]
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, t.seq, 10)
	b = append(b, `,"op":"`...)
	b = append(b, op.String()...)
	b = append(b, `","now":`...)
	b = strconv.AppendFloat(b, now, 'g', -1, 64)
	b = append(b, `,"at":`...)
	b = strconv.AppendFloat(b, at, 'g', -1, 64)
	b = append(b, "}\n"...)
	t.buf = b
	if _, err := t.bw.Write(b); err != nil {
		t.err = err
	}
}

// Close flushes buffered lines and closes the underlying writer when it
// is closable. It returns the first error seen while tracing, flushing
// or closing.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.bw.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	if t.closer != nil {
		if err := t.closer.Close(); err != nil && t.err == nil {
			t.err = err
		}
		t.closer = nil
	}
	return t.err
}
