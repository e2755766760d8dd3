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
	switch q.Kind {
	case "servers":
		a, fail := s.servers(q.Rho, q.Target)
		if res.Error = fail; fail == nil {
			res.Servers, res.Loss, res.Utilization = &a.servers, &a.loss, &a.util
		}
	case "loss":
		a, fail := s.loss(q.N, q.Rho)
		if res.Error = fail; fail == nil {
			res.Loss, res.Carried, res.Utilization, res.Wait = &a.loss, &a.carried, &a.util, &a.wait
		}
	case "traffic":
		if res.Error = badTarget(q.Target); res.Error != nil {
			return res
		}
		rho, err := erlang.Traffic(q.N, q.Target)
		if err != nil {
			res.Error = &ErrorBody{CodeInvalidArgument, err.Error()}
			return res
		}
		res.Traffic = &rho
	case "utilization":
		util, err := s.memo.Utilization(q.N, q.Rho)
		if err != nil {
			res.Error = &ErrorBody{CodeInvalidArgument, err.Error()}
			return res
		}
		res.Utilization = &util
	default:
		res.Error = &ErrorBody{CodeInvalidArgument, "unknown query kind " + strconv.Quote(q.Kind)}
	}
	return res
}
