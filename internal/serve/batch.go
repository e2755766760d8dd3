package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/erlang"
	"repro/internal/jsonenc"
)

// Query is one batch question. Kind selects the computation; the other
// fields are its inputs (unused ones must stay zero):
//
//	"servers"     rho, target  -> smallest N with B(N, rho) <= target
//	"loss"        n, rho       -> B(n, rho), carried, utilization, wait
//	"traffic"     n, target    -> largest rho with B(n, rho) <= target
//	"utilization" n, rho       -> carried traffic / n
type Query struct {
	Kind   string  `json:"kind"`
	N      int     `json:"n,omitempty"`
	Rho    float64 `json:"rho,omitempty"`
	Target float64 `json:"target,omitempty"`
}

// QueryResult is one batch answer: the query echoed back, the populated
// outputs for its kind, or a per-query structured error. A batch response
// is 200 as long as the request itself was well-formed; individual
// failures ride in Error so one bad query cannot hide the others'
// answers.
type QueryResult struct {
	Query       Query      `json:"query"`
	Servers     *int       `json:"servers,omitempty"`
	Loss        *float64   `json:"loss,omitempty"`
	Carried     *float64   `json:"carried,omitempty"`
	Utilization *float64   `json:"utilization,omitempty"`
	Wait        *float64   `json:"wait,omitempty"`
	Traffic     *float64   `json:"traffic,omitempty"`
	Error       *ErrorBody `json:"error,omitempty"`
}

// BatchRequest is the POST /v1/batch body.
type BatchRequest struct {
	Queries []Query `json:"queries"`
}

// BatchResponse is the POST /v1/batch response.
type BatchResponse struct {
	Results []QueryResult `json:"results"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decodePost(w, r, func(data []byte) error { return jsonenc.Decode(data, &req) }) {
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, "batch needs at least one query")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatchQueries {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument,
			fmt.Sprintf("batch of %d queries exceeds the %d-query cap", len(req.Queries), s.cfg.MaxBatchQueries))
		return
	}

	resp := BatchResponse{Results: make([]QueryResult, len(req.Queries))}
	for i, q := range req.Queries {
		resp.Results[i] = s.answerQuery(q)
	}
	writeJSON(w, http.StatusOK, resp)
}

// answerQuery evaluates one batch query against the memo. It is also the
// sequential core the load harness exercises through /v1/batch.
func (s *Server) answerQuery(q Query) QueryResult {
	res := QueryResult{Query: q}
	fail := func(code, msg string) QueryResult {
		res.Error = &ErrorBody{Code: code, Message: msg}
		return res
	}
	switch q.Kind {
	case "servers":
		if !(q.Target > 0 && q.Target < 1) {
			return fail(CodeInvalidArgument,
				"target: must lie in (0, 1), got "+strconv.FormatFloat(q.Target, 'g', -1, 64))
		}
		n, err := s.memo.Servers(q.Rho, q.Target)
		if err != nil {
			return fail(CodeInvalidArgument, err.Error())
		}
		loss, err := s.memo.B(n, q.Rho)
		if err != nil {
			return fail(CodeInternal, err.Error())
		}
		util := 0.0
		if n > 0 {
			util = q.Rho * (1 - loss) / float64(n)
		}
		res.Servers, res.Loss, res.Utilization = &n, &loss, &util
	case "loss":
		loss, err := s.memo.B(q.N, q.Rho)
		if err != nil {
			return fail(CodeInvalidArgument, err.Error())
		}
		carried := q.Rho * (1 - loss)
		util, wait := 0.0, 1.0
		if q.N > 0 {
			util = carried / float64(q.N)
			if wait, err = s.memo.C(q.N, q.Rho); err != nil {
				return fail(CodeInternal, err.Error())
			}
		}
		res.Loss, res.Carried, res.Utilization, res.Wait = &loss, &carried, &util, &wait
	case "traffic":
		if !(q.Target > 0 && q.Target < 1) {
			return fail(CodeInvalidArgument,
				"target: must lie in (0, 1), got "+strconv.FormatFloat(q.Target, 'g', -1, 64))
		}
		rho, err := erlang.Traffic(q.N, q.Target)
		if err != nil {
			return fail(CodeInvalidArgument, err.Error())
		}
		res.Traffic = &rho
	case "utilization":
		util, err := s.memo.Utilization(q.N, q.Rho)
		if err != nil {
			return fail(CodeInvalidArgument, err.Error())
		}
		res.Utilization = &util
	default:
		return fail(CodeInvalidArgument, "unknown query kind "+strconv.Quote(q.Kind))
	}
	return res
}
