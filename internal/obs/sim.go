package obs

import "repro/internal/desim"

// RegisterSimulator publishes a discrete-event simulator's engine
// counters into the registry under the given prefix, as snapshot-time
// func collectors — the engine itself keeps plain fields and pays nothing
// per event. Call after creating the simulator; the registry reads the
// live counters whenever Snapshot runs.
func RegisterSimulator(r *Registry, prefix string, sim *desim.Simulator) {
	r.CounterFunc(prefix+"/events_scheduled", func() uint64 { return sim.Stats().Scheduled })
	r.CounterFunc(prefix+"/events_fired", func() uint64 { return sim.Stats().Fired })
	r.CounterFunc(prefix+"/events_cancelled", func() uint64 { return sim.Stats().Cancelled })
	r.GaugeFunc(prefix+"/queue_high_water", func() float64 { return float64(sim.Stats().MaxQueue) })
	r.GaugeFunc(prefix+"/arena_slots", func() float64 { return float64(sim.Stats().ArenaSlots) })
}
