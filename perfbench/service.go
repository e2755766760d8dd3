package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/serve"
)

// service is an in-process serve.Server behind a loopback listener.
type service struct {
	srv  *serve.Server
	pool *pool.Pool
	hs   *http.Server
	url  string
	done chan error // Serve's return value
}

// startService builds a server the way cmd/consolidated does — a
// GOMAXPROCS-sized pool, no sweep cache, the default preheat — and
// serves it on 127.0.0.1. In traced runs the handler is wrapped so each
// request records a serve span.
func startService(rec *recorder) (*service, error) {
	p, err := pool.New(0)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Pool: p})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	var h http.Handler = srv
	if rec != nil {
		h = tracedHandler{next: srv, rec: rec}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:  srv,
		pool: p,
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: opTimeout},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close shuts the server down and waits for Serve to return.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// counters reads the server's registry counters and gauges.
func (s *service) counters() obs.Snapshot { return s.srv.Registry().Snapshot() }

// newClient returns a client that holds one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: opTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// call is one prepared request.
type call struct {
	method string
	url    string
	body   []byte
}

// do sends c and reads the whole response. hdr, when set, is the span
// header of a traced run.
func do(client *http.Client, c call, hdr string) (status int, body []byte, err error) {
	var rd io.Reader
	if c.body != nil {
		rd = bytes.NewReader(c.body)
	}
	req, err := http.NewRequest(c.method, c.url, rd)
	if err != nil {
		return 0, nil, err
	}
	if c.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if hdr != "" {
		req.Header.Set(spanHeader, hdr)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// closedLoop sends c as ops lo..hi-1, back to back on one client, and
// records each op's latency in lat. keep is called with every response,
// inside the timed segment, and must be cheap; checks belong after the
// run.
func closedLoop(client *http.Client, c call, lo, hi int, lat []time.Duration, rec *recorder, keep func(i int, status int, body []byte, err error)) {
	for i := lo; i < hi; i++ {
		var hdr string
		var id int64
		if rec != nil {
			id = rec.newID()
			hdr = spanHeaderValue(int64(i), id)
		}
		start := time.Now()
		status, body, err := do(client, c, hdr)
		end := time.Now()
		lat[i] = end.Sub(start)
		if rec != nil {
			rec.add("client", id, 0, int64(i), start, end, 1, err != nil || status >= 400)
		}
		keep(i, status, body, err)
	}
}

// warm sends c n times and fails on the first error or non-200 answer.
func warm(client *http.Client, c call, n int) error {
	for i := 0; i < n; i++ {
		status, body, err := do(client, c, "")
		if err != nil {
			return fmt.Errorf("warm-up %s %s: %w", c.method, c.url, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("warm-up %s %s: status %d: %s", c.method, c.url, status, body)
		}
	}
	return nil
}

// change is the change of after's counters since before, with after's
// gauges. Merged over a run's rounds, counters add up and gauges keep
// their highest reading.
func change(before, after obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{Counters: map[string]uint64{}, Gauges: after.Gauges}
	for k, v := range after.Counters {
		d.Counters[k] = v - before.Counters[k]
	}
	return d
}

// serviceLayers computes the serve, erlang and pool metrics of a run
// against the in-process service: spans from the timed segments, and
// counts the registry changes over them (see change).
func serviceLayers(st map[string]*layerStat, counts obs.Snapshot) map[string]float64 {
	l := map[string]float64{}
	if s := st["serve"]; s != nil {
		l["serve.requests"] = float64(s.count)
		l["serve.handler_ms"] = s.meanMs()
		l["serve.errors"] = float64(s.failed)
	}
	if c := st["client"]; c != nil && c.count > 0 {
		l["serve.wait_ms"] = float64(c.self) / 1e6 / float64(c.count)
	}
	count := func(name string) float64 { return float64(counts.Counters[name]) }
	hits, misses, fallbacks := count("serve/memo_hits"), count("serve/memo_misses"), count("serve/memo_fallbacks")
	l["erlang.memo_hits"] = hits
	l["erlang.memo_misses"] = misses
	l["erlang.memo_fallbacks"] = fallbacks
	l["erlang.memo_rhos"] = counts.Gauges["serve/memo_rhos"]
	if total := hits + misses + fallbacks; total > 0 {
		l["erlang.memo_hit_ratio"] = hits / total
	}
	l["pool.units_run"] = count("pool/units_run")
	l["pool.peak_active"] = counts.Gauges["pool/peak_active"]
	return l
}
