package core

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/jsonenc"
)

// The JSON representation of a Model, for CLI tools and config files. The
// schema is deliberately explicit (no map[Resource] in the wire format
// beyond resource-name keys) and versioned by leniency: unknown fields are
// rejected so typos surface instead of silently defaulting.
//
//	{
//	  "lossTarget": 0.05,
//	  "form": "eq5-restricted",            // or "eq5-verbatim", "harmonic"
//	  "utilizationScale": 1,               // optional, the paper's b
//	  "power": {"base": 250, "max": 340},  // optional, watts
//	  "services": [
//	    {
//	      "name": "web",
//	      "arrivalRate": 1280,
//	      "servingRates":  {"diskio": 1420, "cpu": 3360},
//	      "impactFactors": {"diskio": 0.98, "cpu": 0.63}
//	    }
//	  ]
//	}
type modelJSON struct {
	LossTarget       float64       `json:"lossTarget"`
	Form             string        `json:"form,omitempty"`
	UtilizationScale float64       `json:"utilizationScale,omitempty"`
	Power            *powerJSON    `json:"power,omitempty"`
	Services         []serviceJSON `json:"services"`
	Resources        []string      `json:"resources,omitempty"`
}

type powerJSON struct {
	Base float64 `json:"base"`
	Max  float64 `json:"max"`
}

type serviceJSON struct {
	Name          string             `json:"name"`
	ArrivalRate   float64            `json:"arrivalRate"`
	ServingRates  map[string]float64 `json:"servingRates"`
	ImpactFactors map[string]float64 `json:"impactFactors,omitempty"`
}

// formNames maps wire names to TrafficForm values.
var formNames = map[string]TrafficForm{
	"":               TrafficEq5Restricted,
	"eq5-restricted": TrafficEq5Restricted,
	"eq5-verbatim":   TrafficEq5Verbatim,
	"harmonic":       TrafficHarmonic,
}

// ParseJSONBytes reads a model from JSON, rejecting unknown fields and
// anything after the model (one strict jsonenc.Decode), and validates the
// result.
func ParseJSONBytes(raw []byte) (*Model, error) {
	var mj modelJSON
	if err := jsonenc.Decode(raw, &mj); err != nil {
		return nil, fmt.Errorf("core: parsing model JSON: %w", err)
	}
	form, ok := formNames[mj.Form]
	if !ok {
		return nil, fmt.Errorf("%w: unknown traffic form %q", ErrInvalidModel, mj.Form)
	}
	m := &Model{
		LossTarget:       mj.LossTarget,
		Form:             form,
		UtilizationScale: mj.UtilizationScale,
	}
	if mj.Power != nil {
		m.Power = PowerParams{Base: mj.Power.Base, Max: mj.Power.Max}
	}
	for _, r := range mj.Resources {
		m.Resources = append(m.Resources, Resource(r))
	}
	for _, sj := range mj.Services {
		svc := Service{
			Name:        sj.Name,
			ArrivalRate: sj.ArrivalRate,
		}
		if len(sj.ServingRates) > 0 {
			svc.ServingRates = map[Resource]float64{}
			for r, mu := range sj.ServingRates {
				svc.ServingRates[Resource(r)] = mu
			}
		}
		if len(sj.ImpactFactors) > 0 {
			svc.ImpactFactors = map[Resource]float64{}
			for r, a := range sj.ImpactFactors {
				svc.ImpactFactors[Resource(r)] = a
			}
		}
		m.Services = append(m.Services, svc)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteJSON writes the model as indented JSON. The model is validated
// first so round-trips stay inside the schema's domain.
func (m *Model) WriteJSON(w io.Writer) error {
	if err := m.Validate(); err != nil {
		return err
	}
	mj := modelJSON{
		LossTarget:       m.LossTarget,
		UtilizationScale: m.UtilizationScale,
	}
	switch m.Form {
	case TrafficEq5Restricted:
		mj.Form = "" // the default reads back identically
	case TrafficEq5Verbatim:
		mj.Form = "eq5-verbatim"
	case TrafficHarmonic:
		mj.Form = "harmonic"
	default:
		return fmt.Errorf("%w: unserializable traffic form %d", ErrInvalidModel, int(m.Form))
	}
	if m.Power != (PowerParams{}) {
		mj.Power = &powerJSON{Base: m.Power.Base, Max: m.Power.Max}
	}
	for _, r := range m.Resources {
		mj.Resources = append(mj.Resources, string(r))
	}
	for _, svc := range m.Services {
		sj := serviceJSON{
			Name:        svc.Name,
			ArrivalRate: svc.ArrivalRate,
		}
		if len(svc.ServingRates) > 0 {
			sj.ServingRates = map[string]float64{}
			for r, mu := range svc.ServingRates {
				sj.ServingRates[string(r)] = mu
			}
		}
		if len(svc.ImpactFactors) > 0 {
			sj.ImpactFactors = map[string]float64{}
			for r, a := range svc.ImpactFactors {
				sj.ImpactFactors[string(r)] = a
			}
		}
		mj.Services = append(mj.Services, sj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(mj)
}
