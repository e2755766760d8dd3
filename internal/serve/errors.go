package serve

import (
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/jsonenc"
)

// Error codes of the structured error shape. Every non-2xx response body
// is exactly {"error":{"code":<code>,"message":<message>}}.
const (
	CodeInvalidArgument  = "invalid_argument"
	CodeInfeasible       = "infeasible"
	CodeNotFound         = "not_found"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeBodyTooLarge     = "body_too_large"
	CodeCanceled         = "canceled"
	CodeDeadlineExceeded = "deadline_exceeded"
	CodeInternal         = "internal"
)

// statusCanceledClient is the non-standard 499 "client closed request"
// status (nginx convention) for requests abandoned mid-flight. The client
// usually never sees it, but it keeps access logs and metrics honest.
const statusCanceledClient = 499

// ErrorBody is the inner object of the structured error shape; exported so
// clients (the load harness, the batch response) can decode it.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the full error envelope.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// appendError appends the structured error JSON to buf: the bytes
// json.Marshal writes for the ErrorResponse, so a message carrying control
// bytes or invalid UTF-8 still makes a valid body. It is the only error
// serializer — the hot path and encoding/json handlers produce the
// identical shape — and allocates nothing.
func appendError(buf []byte, code, message string) []byte {
	buf = append(buf, `{"error":{"code":`...)
	buf = jsonenc.AppendString(buf, code)
	buf = append(buf, `,"message":`...)
	buf = jsonenc.AppendString(buf, message)
	buf = append(buf, "}}"...)
	return buf
}

// writeError writes a structured error response.
func writeError(w http.ResponseWriter, status int, code, message string) {
	writeResponse(w, status, appendError(nil, code, message))
}

// contentTypeJSON is the shared Content-Type header value, assigned
// directly into the header map so the hot path does not allocate a fresh
// []string per response the way Header().Set does.
var contentTypeJSON = []string{"application/json"}

// writeResponse writes body with the JSON content type. The write error is
// ignored: a failed response write means the client is gone, and the
// per-route 5xx metrics already capture server-side failures.
func writeResponse(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h["Content-Type"] = contentTypeJSON
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeSized is writeResponse with a Content-Length header, for bodies
// that may outgrow the 2 KiB net/http buffers before it falls back to
// chunked encoding. The GET hot path keeps writeResponse: its bodies fit
// the buffer, which net/http sizes itself, and the header would cost it
// allocations.
func writeSized(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Length"] = []string{strconv.Itoa(len(body))}
	writeResponse(w, status, body)
}

// writeJSON marshals v; a marshal failure (a programming error — every
// response type here is marshalable) degrades to a 500.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "encoding response: "+err.Error())
		return
	}
	writeSized(w, status, body)
}

// jsonAppender is a response that appends its own JSON encoding, byte
// for byte what json.Marshal writes: plan.Plan and plan.PeriodPlan.
type jsonAppender interface {
	AppendJSON(b []byte) ([]byte, error)
}

// writeAppended writes v's JSON as a 200 with its Content-Length,
// appended into a pooled buffer. An encoding failure (a NaN or infinite
// number) is writeJSON's 500, with the same message.
func (s *Server) writeAppended(w http.ResponseWriter, v jsonAppender) {
	rb := s.bufs.Get().(*respBuf)
	defer s.bufs.Put(rb)
	out, err := v.AppendJSON(rb.b[:0])
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "encoding response: "+err.Error())
		return
	}
	writeSized(w, http.StatusOK, out)
	rb.b = out[:0]
}
