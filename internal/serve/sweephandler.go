package serve

import (
	"fmt"
	"net/http"

	"repro/internal/sweep"
)

// SweepPoint is one grid point of a sweep response: placement metadata
// plus the full simulation summary.
type SweepPoint struct {
	Index    int               `json:"index"`
	Label    string            `json:"label,omitempty"`
	CacheHit bool              `json:"cache_hit,omitempty"`
	Result   sweep.PointResult `json:"result"`
}

// SweepResponse is the POST /v1/sweep response.
type SweepResponse struct {
	Name   string       `json:"name,omitempty"`
	Size   int          `json:"size"`
	Points []SweepPoint `json:"points"`
}

// handleSweep lowers a declarative sweep spec (the same JSON cmd/simulate
// -sweep takes) onto the shared sweep engine: expansion, the worker-pool
// budget, and the content-addressed result cache all behave exactly as in
// the batch tools, so a what-if grid asked over HTTP is bit-identical to
// the same grid run offline.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var spec sweep.Spec
	if !s.decodePost(w, r, func(data []byte) (err error) {
		spec, err = sweep.ParseSpecBytes(data)
		return err
	}) {
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error())
		return
	}
	if size := spec.Size(); size > s.cfg.MaxSweepPoints {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument,
			fmt.Sprintf("sweep of %d points exceeds the %d-point cap", size, s.cfg.MaxSweepPoints))
		return
	}
	points, err := spec.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidArgument, err.Error())
		return
	}

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	results, err := s.engine.RunPoints(ctx, points)
	if err != nil {
		writeRunError(w, r.Context(), err)
		return
	}
	s.sweepsRun.Inc()
	s.sweepPts.Add(uint64(len(results)))

	resp := SweepResponse{Name: spec.Name, Size: len(results), Points: make([]SweepPoint, len(results))}
	for i, res := range results {
		resp.Points[i] = SweepPoint{
			Index:    res.Index,
			Label:    res.Label,
			CacheHit: res.CacheHit,
			Result:   res,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
