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
				return appendError(buf, CodeInvalidArgument, "malformed query escape in "+key), false
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

// checkTarget enforces the API-level loss-target domain: the open interval
// (0, 1). (The underlying math accepts 1, but a loss target of 1 or worse
// is always a client mistake at this layer.)
func checkTarget(target float64, buf []byte) ([]byte, bool) {
	if !(target > 0 && target < 1) { // NaN fails too
		return appendError(buf, CodeInvalidArgument,
			"target: must lie in (0, 1), got "+strconv.FormatFloat(target, 'g', -1, 64)), false
	}
	return buf, true
}

// answerServers handles GET /v1/servers?rho=&target=: the paper's sizing
// question — the smallest N with B(N, ρ) <= target — plus the achieved
// loss and per-server utilization at that N.
func (s *Server) answerServers(raw string, buf []byte) ([]byte, int) {
	var p qparams
	buf, ok := parseQuery(raw, false, true, true, &p, buf)
	if !ok {
		return buf, 400
	}
	if !p.hasRho || !p.hasTarget {
		return appendError(buf, CodeInvalidArgument, "need rho and target parameters"), 400
	}
	if buf, ok = checkTarget(p.target, buf); !ok {
		return buf, 400
	}
	n, err := s.memo.Servers(p.rho, p.target)
	if err != nil {
		return appendError(buf, CodeInvalidArgument, err.Error()), 400
	}
	loss, err := s.memo.B(n, p.rho)
	if err != nil {
		return appendError(buf, CodeInternal, err.Error()), 500
	}
	util := 0.0
	if n > 0 {
		util = p.rho * (1 - loss) / float64(n)
	}
	buf = append(buf, `{"rho":`...)
	buf = appendFloat(buf, p.rho)
	buf = append(buf, `,"target":`...)
	buf = appendFloat(buf, p.target)
	buf = append(buf, `,"servers":`...)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, `,"loss":`...)
	buf = appendFloat(buf, loss)
	buf = append(buf, `,"utilization":`...)
	buf = appendFloat(buf, util)
	buf = append(buf, '}')
	return buf, 200
}

// answerLoss handles GET /v1/loss?n=&rho=: the allocator-bound reading of
// the model ("fix M = N") — with the server count pinned, what loss does
// this traffic see — plus carried traffic, utilization, and the Erlang C
// waiting probability as the delay-system companion.
func (s *Server) answerLoss(raw string, buf []byte) ([]byte, int) {
	var p qparams
	buf, ok := parseQuery(raw, true, true, false, &p, buf)
	if !ok {
		return buf, 400
	}
	if !p.hasN || !p.hasRho {
		return appendError(buf, CodeInvalidArgument, "need n and rho parameters"), 400
	}
	loss, err := s.memo.B(p.n, p.rho)
	if err != nil {
		return appendError(buf, CodeInvalidArgument, err.Error()), 400
	}
	carried := p.rho * (1 - loss)
	util := 0.0
	wait := 1.0
	if p.n > 0 {
		util = carried / float64(p.n)
		wait, err = s.memo.C(p.n, p.rho)
		if err != nil {
			return appendError(buf, CodeInternal, err.Error()), 500
		}
	}
	buf = append(buf, `{"n":`...)
	buf = strconv.AppendInt(buf, int64(p.n), 10)
	buf = append(buf, `,"rho":`...)
	buf = appendFloat(buf, p.rho)
	buf = append(buf, `,"loss":`...)
	buf = appendFloat(buf, loss)
	buf = append(buf, `,"carried":`...)
	buf = appendFloat(buf, carried)
	buf = append(buf, `,"utilization":`...)
	buf = appendFloat(buf, util)
	buf = append(buf, `,"wait":`...)
	buf = appendFloat(buf, wait)
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
