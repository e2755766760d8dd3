package cluster

import (
	"fmt"
	"testing"

	"repro/internal/desim"
)

// BenchmarkStationHighOccupancy measures one arrival→completion cycle at a
// station already holding k long-running jobs — the high-occupancy regime
// where the original implementation paid O(k) per event (scan-to-drain in
// advance, scan-for-min in reschedule, scan-to-collect in complete) and the
// virtual-time formulation pays O(log k). Each iteration admits one short
// job and runs the simulator until its completion event fires.
func BenchmarkStationHighOccupancy(b *testing.B) {
	for _, k := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			sim := desim.New()
			done := 0
			st := newStation(sim, "bench", 1, func(*request, *station) { done++ })
			for i := 0; i < k; i++ {
				st.add(&request{}, 1e15) // background jobs that never finish
			}
			req := &request{}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.add(req, 1e-9)
				sim.Run(sim.Now() + 1)
			}
			b.StopTimer()
			if done != b.N {
				b.Fatalf("completed %d of %d short jobs", done, b.N)
			}
		})
	}
}
