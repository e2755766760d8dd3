package power

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestDrawEndpointsAndClamp(t *testing.T) {
	m := ServerModel{Base: 250, Max: 340}
	if m.Draw(0, NativeLinux) != 250 {
		t.Fatal("idle draw wrong")
	}
	if m.Draw(1, NativeLinux) != 340 {
		t.Fatal("max draw wrong")
	}
	if m.Draw(-2, NativeLinux) != 250 || m.Draw(3, NativeLinux) != 340 {
		t.Fatal("clamp broken")
	}
	if math.Abs(m.Draw(0.5, NativeLinux)-295) > 1e-12 {
		t.Fatal("midpoint wrong")
	}
}

func TestXenPlatformFactors(t *testing.T) {
	m := DefaultServer
	// Idle Xen = 9 % less than idle Linux (paper Section IV-C.2).
	if got, want := m.IdleDraw(XenRainbow), 250*XenIdleFactor; math.Abs(got-want) > 1e-12 {
		t.Fatalf("xen idle = %g, want %g", got, want)
	}
	// Active component = 30 % less.
	linuxActive := m.Draw(1, NativeLinux) - m.IdleDraw(NativeLinux)
	xenActive := m.Draw(1, XenRainbow) - m.IdleDraw(XenRainbow)
	if math.Abs(xenActive-linuxActive*XenActiveFactor) > 1e-12 {
		t.Fatalf("xen active = %g, want %g", xenActive, linuxActive*XenActiveFactor)
	}
	if NativeLinux.String() != "linux" || XenRainbow.String() != "xen" {
		t.Fatal("platform names wrong")
	}
}

func TestBusyOnlySlightlyAboveIdle(t *testing.T) {
	// Paper: "the servers hosting services only increase up to 7% power
	// consumption than the same idle servers" at case-study utilization
	// (~0.2 on dedicated hosts). Our constants must respect that.
	m := DefaultServer
	u := 0.20
	ratio := m.Draw(u, NativeLinux) / m.IdleDraw(NativeLinux)
	if ratio > 1.08 {
		t.Fatalf("busy/idle ratio at u=0.2 = %g, want <= 1.08", ratio)
	}
	// And Barroso & Hölzle: idle exceeds 50 % of peak.
	if m.IdleDraw(NativeLinux) < 0.5*m.Draw(1, NativeLinux) {
		t.Fatal("idle draw below 50% of peak")
	}
}

func TestValidate(t *testing.T) {
	if err := (ServerModel{Base: -1, Max: 10}).Validate(); err == nil {
		t.Fatal("negative base accepted")
	}
	if err := (ServerModel{Base: 10, Max: 5}).Validate(); err == nil {
		t.Fatal("max < base accepted")
	}
	if err := (ServerModel{Base: math.NaN(), Max: 5}).Validate(); err == nil {
		t.Fatal("NaN accepted")
	}
	if err := DefaultServer.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Golden values of the paper's linear form P = S_base + (S_max − S_base)·u
// for the default 250/340 W server, on both platforms. Pinned exactly so
// a factor or formula regression cannot hide behind tolerances.
func TestDrawGoldenValues(t *testing.T) {
	m := DefaultServer
	cases := []struct {
		u        float64
		platform Platform
		want     float64
	}{
		{0, NativeLinux, 250},
		{0.25, NativeLinux, 272.5},
		{0.5, NativeLinux, 295},
		{1, NativeLinux, 340},
		// Xen: 250·0.91 + 90·0.70·u = 227.5 + 63u.
		{0, XenRainbow, 227.5},
		{0.25, XenRainbow, 243.25},
		{0.5, XenRainbow, 259},
		{1, XenRainbow, 290.5},
	}
	for _, c := range cases {
		if got := m.Draw(c.u, c.platform); got != c.want {
			t.Errorf("Draw(%g, %s) = %g, want %g", c.u, c.platform, got, c.want)
		}
	}
}

// Zero utilization is exactly the idle draw — no active term leaks in —
// and a fleet at zero utilization draws servers × idle.
func TestZeroUtilization(t *testing.T) {
	m := ServerModel{Base: 120, Max: 180}
	if got := m.Draw(0, NativeLinux); got != 120 {
		t.Fatalf("zero-utilization draw %g, want the bare base 120", got)
	}
	if got := SteadyStateDraw(m, 7, 0, NativeLinux); got != 7*120 {
		t.Fatalf("fleet zero-utilization draw %g, want %g", got, 7.0*120)
	}
	if got := SteadyStateDraw(m, 0, 0.5, NativeLinux); got != 0 {
		t.Fatalf("empty fleet draws %g, want 0", got)
	}
	if got := SteadyStateDraw(m, -3, 0.5, NativeLinux); got != 0 {
		t.Fatalf("negative fleet draws %g, want 0", got)
	}
}

// Validate rejects every non-physical model shape with the sentinel.
func TestValidateEdgeCases(t *testing.T) {
	bad := []ServerModel{
		{Base: 340, Max: 250}, // S_max < S_base
		{Base: -1, Max: 10},
		{Base: math.NaN(), Max: 340},
		{Base: 250, Max: math.NaN()},
		{Base: math.Inf(1), Max: math.Inf(1)},
		{Base: 250, Max: math.Inf(1)},
	}
	for _, m := range bad {
		err := m.Validate()
		if err == nil {
			t.Errorf("model %+v accepted", m)
			continue
		}
		if !errors.Is(err, ErrInvalidModel) {
			t.Errorf("model %+v: error %v does not wrap ErrInvalidModel", m, err)
		}
	}
	// Degenerate-but-physical shapes stay valid: a zero-draw server and a
	// flat (base == max) server.
	for _, m := range []ServerModel{{}, {Base: 100, Max: 100}} {
		if err := m.Validate(); err != nil {
			t.Errorf("model %+v rejected: %v", m, err)
		}
	}
}

func TestMeterIntegration(t *testing.T) {
	m, err := NewMeter(ServerModel{Base: 100, Max: 200}, NativeLinux)
	if err != nil {
		t.Fatal(err)
	}
	// 2 servers at u=0.5 for 10 s: each draws 150 W → 3000 J.
	if err := m.Observe(10, []float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Energy()-3000) > 1e-9 {
		t.Fatalf("energy = %g", m.Energy())
	}
	if math.Abs(m.IdleEnergy()-2000) > 1e-9 {
		t.Fatalf("idle energy = %g", m.IdleEnergy())
	}
	// Zero-length observation is a no-op.
	energy, idle := m.Energy(), m.IdleEnergy()
	if err := m.Observe(0, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if m.Energy() != energy || m.IdleEnergy() != idle {
		t.Fatal("zero-dt observation changed state")
	}
	// Negative dt rejected.
	if err := m.Observe(-1, nil); err == nil {
		t.Fatal("negative dt accepted")
	}
}

func TestMeterEmpty(t *testing.T) {
	m, _ := NewMeter(DefaultServer, NativeLinux)
	if m.Energy() != 0 || m.IdleEnergy() != 0 {
		t.Fatalf("empty meter reports %g J, %g J idle", m.Energy(), m.IdleEnergy())
	}
}

func TestNewMeterValidates(t *testing.T) {
	if _, err := NewMeter(ServerModel{Base: 5, Max: 1}, NativeLinux); err == nil {
		t.Fatal("invalid model accepted")
	}
}

func TestComparisonSavings(t *testing.T) {
	c := Comparison{
		DedicatedTotal: 1000, ConsolidatedTotal: 470,
		DedicatedIdle: 800, ConsolidatedIdle: 364,
	}
	if math.Abs(c.TotalSaving()-0.53) > 1e-12 {
		t.Fatalf("total saving = %g", c.TotalSaving())
	}
	if math.Abs(c.WorkloadSaving()-(1-106.0/200.0)) > 1e-12 {
		t.Fatalf("workload saving = %g", c.WorkloadSaving())
	}
	if math.Abs(c.IdleSaving()-(1-364.0/800.0)) > 1e-12 {
		t.Fatalf("idle saving = %g", c.IdleSaving())
	}
	// Degenerate zeros.
	var zero Comparison
	if zero.TotalSaving() != 0 || zero.WorkloadSaving() != 0 || zero.IdleSaving() != 0 {
		t.Fatal("degenerate comparison should be zero")
	}
}

func TestCompareMeters(t *testing.T) {
	ded, _ := NewMeter(DefaultServer, NativeLinux)
	cons, _ := NewMeter(DefaultServer, XenRainbow)
	// 8 dedicated servers at u=0.2 vs 4 consolidated at u=0.45, one hour.
	dedU := make([]float64, 8)
	for i := range dedU {
		dedU[i] = 0.2
	}
	consU := make([]float64, 4)
	for i := range consU {
		consU[i] = 0.45
	}
	if err := ded.Observe(3600, dedU); err != nil {
		t.Fatal(err)
	}
	if err := cons.Observe(3600, consU); err != nil {
		t.Fatal(err)
	}
	c := Compare(ded, cons)
	// Paper headline: consolidation saves roughly half the power. With the
	// platform factors this lands in [0.45, 0.58].
	saving := c.TotalSaving()
	if saving < 0.45 || saving > 0.58 {
		t.Fatalf("total saving = %g, want ~0.5", saving)
	}
}

func TestSteadyStateDraw(t *testing.T) {
	got := SteadyStateDraw(ServerModel{Base: 100, Max: 200}, 4, 0.25, NativeLinux)
	if math.Abs(got-4*125) > 1e-12 {
		t.Fatalf("draw = %g", got)
	}
	if SteadyStateDraw(DefaultServer, 0, 1, NativeLinux) != 0 {
		t.Fatal("zero servers should draw nothing")
	}
	if SteadyStateDraw(DefaultServer, -3, 1, NativeLinux) != 0 {
		t.Fatal("negative servers should draw nothing")
	}
}

// Property: Draw is monotone in utilization and Xen never draws more than
// Linux at equal utilization.
func TestDrawMonotoneProperty(t *testing.T) {
	f := func(u1, u2 uint8) bool {
		a := float64(u1) / 255
		b := float64(u2) / 255
		if a > b {
			a, b = b, a
		}
		m := DefaultServer
		if m.Draw(a, NativeLinux) > m.Draw(b, NativeLinux)+1e-12 {
			return false
		}
		return m.Draw(a, XenRainbow) <= m.Draw(a, NativeLinux)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: meter energy equals the sum of per-interval draws (linearity).
func TestMeterLinearityProperty(t *testing.T) {
	f := func(us []uint8, dtRaw uint8) bool {
		dt := float64(dtRaw%100) + 1
		m, _ := NewMeter(DefaultServer, NativeLinux)
		want := 0.0
		utils := make([]float64, len(us))
		for i, u := range us {
			utils[i] = float64(u) / 255
			want += DefaultServer.Draw(utils[i], NativeLinux) * dt
		}
		if err := m.Observe(dt, utils); err != nil {
			return false
		}
		return math.Abs(m.Energy()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
