package serve

import (
	"net/url"
	"strconv"
	"strings"

	"repro/internal/jsonenc"
)

// The single-query GET endpoints are the service's hot path: parse the raw
// query string in place, answer from the Erlang memo, and append the
// response JSON into a pooled buffer. After the memo is warm for a traffic
// value, a request allocates nothing (pinned by BenchmarkServeQuery and
// TestServeQueryAllocations).

// qparams is the decoded query-string parameter set of the GET endpoints.
// Presence flags distinguish "absent" from zero values.
type qparams struct {
	rho, target float64
	n           int
	hasRho      bool
	hasTarget   bool
	hasN        bool
}

// parseQuery decodes raw ("rho=120&target=0.001") into p, restricted to
// the keys the endpoint allows. On failure it appends a structured error
// to buf and returns it with ok=false; the caller responds 400 with that
// body. Unknown and duplicate keys are rejected so client typos fail
// loudly instead of silently applying defaults. Escaped values take a
// slow (allocating) unescape path; plain numbers never allocate.
func parseQuery(raw string, allowN, allowRho, allowTarget bool, p *qparams, buf []byte) ([]byte, bool) {
	for len(raw) > 0 {
		var pair string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			pair, raw = raw, ""
		}
		if pair == "" {
			continue
		}
		key, val := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			key, val = pair[:i], pair[i+1:]
		}
		if strings.IndexByte(val, '%') >= 0 || strings.IndexByte(val, '+') >= 0 {
			u, err := url.QueryUnescape(val)
			if err != nil {
				return appendError(buf, CodeInvalidArgument, "malformed query escape in "+strconv.Quote(key)), false
			}
			val = u
		}
		switch {
		case key == "n" && allowN:
			if p.hasN {
				return appendError(buf, CodeInvalidArgument, "duplicate parameter n"), false
			}
			v, err := strconv.Atoi(val)
			if err != nil {
				return appendError(buf, CodeInvalidArgument, "n: not an integer: "+strconv.Quote(val)), false
			}
			p.n, p.hasN = v, true
		case key == "rho" && allowRho:
			if p.hasRho {
				return appendError(buf, CodeInvalidArgument, "duplicate parameter rho"), false
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return appendError(buf, CodeInvalidArgument, "rho: not a number: "+strconv.Quote(val)), false
			}
			p.rho, p.hasRho = v, true
		case key == "target" && allowTarget:
			if p.hasTarget {
				return appendError(buf, CodeInvalidArgument, "duplicate parameter target"), false
			}
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return appendError(buf, CodeInvalidArgument, "target: not a number: "+strconv.Quote(val)), false
			}
			p.target, p.hasTarget = v, true
		default:
			return appendError(buf, CodeInvalidArgument, "unknown parameter "+strconv.Quote(key)), false
		}
	}
	return buf, true
}

// answer holds the numbers of one question; each kind fills its own.
type answer struct {
	servers                   int
	loss, carried, util, wait float64
}

// badTarget refuses a loss target outside the API-level domain, the open
// interval (0, 1). (The underlying math accepts 1, but a loss target of 1
// or worse is always a client mistake at this layer.)
func badTarget(target float64) *ErrorBody {
	if target > 0 && target < 1 { // NaN fails
		return nil
	}
	return &ErrorBody{CodeInvalidArgument, "target: must lie in (0, 1), got " + strconv.FormatFloat(target, 'g', -1, 64)}
}

// servers answers the paper's sizing question — the smallest N with
// B(N, ρ) <= target — plus the achieved loss and per-server utilization
// at that N. GET /v1/servers and /v1/batch both answer with it; a failure
// is the error either one reports.
func (s *Server) servers(rho, target float64) (answer, *ErrorBody) {
	if fail := badTarget(target); fail != nil {
		return answer{}, fail
	}
	n, err := s.memo.Servers(rho, target)
	if err != nil {
		return answer{}, &ErrorBody{CodeInvalidArgument, err.Error()}
	}
	a := answer{servers: n}
	if a.loss, err = s.memo.B(n, rho); err != nil {
		return answer{}, &ErrorBody{CodeInternal, err.Error()}
	}
	if n > 0 {
		a.util = rho * (1 - a.loss) / float64(n)
	}
	return a, nil
}

// loss answers the allocator-bound reading of the model ("fix M = N") —
// with the server count pinned, what loss does this traffic see — plus
// carried traffic, utilization, and the Erlang C waiting probability as
// the delay-system companion. GET /v1/loss and /v1/batch both answer with
// it.
func (s *Server) loss(n int, rho float64) (answer, *ErrorBody) {
	var a answer
	var err error
	if a.loss, err = s.memo.B(n, rho); err != nil {
		return answer{}, &ErrorBody{CodeInvalidArgument, err.Error()}
	}
	a.carried = rho * (1 - a.loss)
	a.wait = 1
	if n > 0 {
		a.util = a.carried / float64(n)
		if a.wait, err = s.memo.C(n, rho); err != nil {
			return answer{}, &ErrorBody{CodeInternal, err.Error()}
		}
	}
	return a, nil
}

// appendFailure appends a failed question's error body and returns its
// status: 500 for an internal error, else 400.
func appendFailure(buf []byte, fail *ErrorBody) ([]byte, int) {
	status := 400
	if fail.Code == CodeInternal {
		status = 500
	}
	return appendError(buf, fail.Code, fail.Message), status
}

// answerServers handles GET /v1/servers?rho=&target=.
func (s *Server) answerServers(raw string, buf []byte) ([]byte, int) {
	var p qparams
	buf, ok := parseQuery(raw, false, true, true, &p, buf)
	if !ok {
		return buf, 400
	}
	if !p.hasRho || !p.hasTarget {
		return appendError(buf, CodeInvalidArgument, "need rho and target parameters"), 400
	}
	a, fail := s.servers(p.rho, p.target)
	if fail != nil {
		return appendFailure(buf, fail)
	}
	buf = append(buf, `{"rho":`...)
	buf = appendFloat(buf, p.rho)
	buf = append(buf, `,"target":`...)
	buf = appendFloat(buf, p.target)
	buf = append(buf, `,"servers":`...)
	buf = strconv.AppendInt(buf, int64(a.servers), 10)
	buf = append(buf, `,"loss":`...)
	buf = appendFloat(buf, a.loss)
	buf = append(buf, `,"utilization":`...)
	buf = appendFloat(buf, a.util)
	buf = append(buf, '}')
	return buf, 200
}

// answerLoss handles GET /v1/loss?n=&rho=.
func (s *Server) answerLoss(raw string, buf []byte) ([]byte, int) {
	var p qparams
	buf, ok := parseQuery(raw, true, true, false, &p, buf)
	if !ok {
		return buf, 400
	}
	if !p.hasN || !p.hasRho {
		return appendError(buf, CodeInvalidArgument, "need n and rho parameters"), 400
	}
	a, fail := s.loss(p.n, p.rho)
	if fail != nil {
		return appendFailure(buf, fail)
	}
	buf = append(buf, `{"n":`...)
	buf = strconv.AppendInt(buf, int64(p.n), 10)
	buf = append(buf, `,"rho":`...)
	buf = appendFloat(buf, p.rho)
	buf = append(buf, `,"loss":`...)
	buf = appendFloat(buf, a.loss)
	buf = append(buf, `,"carried":`...)
	buf = appendFloat(buf, a.carried)
	buf = append(buf, `,"utilization":`...)
	buf = appendFloat(buf, a.util)
	buf = append(buf, `,"wait":`...)
	buf = appendFloat(buf, a.wait)
	buf = append(buf, '}')
	return buf, 200
}

// appendFloat appends v in encoding/json's number form (jsonenc), so a
// GET answer prints the same bytes as the same query answered through
// /v1/batch. Every value the answerers print is finite: the memo refuses
// a non-finite rho before anything is computed, and the rest derive from
// a finite rho and a loss in [0, 1], so a failure here is a bug.
func appendFloat(buf []byte, v float64) []byte {
	out, err := jsonenc.AppendFloat(buf, v)
	if err != nil {
		panic(err)
	}
	return out
}
