package virt

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestPaperCurveValues(t *testing.T) {
	// Fig. 5(b): a_wi(1) ≈ 0.98 (single VM near-native), a_wi(2) ≈ 0.88,
	// and degradation passes 50 % beyond 6 VMs (Section IV-D).
	if got := WebDiskIOCurve.At(1); math.Abs(got-0.980) > 1e-12 {
		t.Fatalf("WebDiskIO(1) = %g", got)
	}
	if got := WebDiskIOCurve.At(2); math.Abs(got-0.878) > 1e-12 {
		t.Fatalf("WebDiskIO(2) = %g", got)
	}
	if got := WebDiskIOCurve.At(7); got >= 0.5 {
		t.Fatalf("WebDiskIO(7) = %g, want < 0.5", got)
	}
	// Fig. 6(b): a_wc(2) ≈ 0.630.
	if got := WebCPUCurve.At(2); math.Abs(got-0.6302) > 1e-9 {
		t.Fatalf("WebCPU(2) = %g", got)
	}
	// Fig. 8(b): a_dc(1) < 1 (OS ceiling), a_dc(2) > 1 (multi-VM beats native).
	if got := DBCPUCurve.At(1); math.Abs(got-0.925) > 1e-12 {
		t.Fatalf("DBCPU(1) = %g", got)
	}
	if got := DBCPUCurve.At(2); got <= 1 {
		t.Fatalf("DBCPU(2) = %g, want > 1", got)
	}
}

func TestCurveStrings(t *testing.T) {
	for _, c := range []ImpactCurve{WebDiskIOCurve, WebCPUCurve, DBCPUCurve, ConstantCurve{1}} {
		if c.String() == "" {
			t.Fatalf("%T renders empty", c)
		}
	}
}

func TestClamped(t *testing.T) {
	c := Clamped{Curve: DBCPUCurve}
	if got := c.At(2); got != 1 {
		t.Fatalf("clamp above 1 failed: %g", got)
	}
	low := Clamped{Curve: LinearCurve{Intercept: 0.1, Slope: -0.05}}
	if got := low.At(10); got != 0.01 {
		t.Fatalf("default floor failed: %g", got)
	}
	floored := Clamped{Curve: LinearCurve{Intercept: 0.1, Slope: -0.05}, Floor: 0.2}
	if got := floored.At(10); got != 0.2 {
		t.Fatalf("explicit floor failed: %g", got)
	}
	// In-range values pass through.
	mid := Clamped{Curve: ConstantCurve{0.7}}
	if got := mid.At(3); got != 0.7 {
		t.Fatalf("pass-through failed: %g", got)
	}
}

func TestClampedAlwaysInDomainProperty(t *testing.T) {
	f := func(i, s int16, v uint8) bool {
		c := Clamped{Curve: LinearCurve{
			Intercept: float64(i) / 100,
			Slope:     float64(s) / 1000,
		}}
		a := c.At(int(v)%20 + 1)
		return a > 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHostOverheadFactor(t *testing.T) {
	web := WebHostOverhead()
	a, err := web.Factor("diskio", 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-0.878) > 1e-12 {
		t.Fatalf("web diskio factor at v=2 = %g, want 0.878", a)
	}
	a, err = web.Factor("diskio", 9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-(1.082-0.102*9)) > 1e-12 {
		t.Fatalf("web diskio factor at v=9 = %g", a)
	}
	// Unknown resources carry no overhead.
	a, err = web.Factor("memory", 3)
	if err != nil || a != 1 {
		t.Fatalf("memory factor = %g, err=%v", a, err)
	}
	// Invalid VM count.
	if _, err := web.Factor("cpu", 0); !errors.Is(err, ErrInvalidVMCount) {
		t.Fatal("v=0 accepted")
	}
}

func TestRawFactorVsFactor(t *testing.T) {
	db := DBHostOverhead()
	raw, err := db.RawFactor("cpu", 4)
	if err != nil {
		t.Fatal(err)
	}
	if raw <= 1 {
		t.Fatalf("raw DB factor at v=4 = %g, want > 1", raw)
	}
	clamped, err := db.Factor("cpu", 4)
	if err != nil {
		t.Fatal(err)
	}
	if clamped != 1 {
		t.Fatalf("clamped DB factor = %g", clamped)
	}
	if _, err := db.RawFactor("cpu", -1); !errors.Is(err, ErrInvalidVMCount) {
		t.Fatal("negative v accepted")
	}
}

func TestPinningPenalty(t *testing.T) {
	pinned := DBHostOverhead()
	unpinned := DBHostOverhead()
	unpinned.Pinning = XenScheduledVCPUs

	ap, err := pinned.RawFactor("cpu", 6)
	if err != nil {
		t.Fatal(err)
	}
	au, err := unpinned.RawFactor("cpu", 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(au-ap*UnpinnedPenalty) > 1e-12 {
		t.Fatalf("unpinned %g != pinned %g * %g", au, ap, UnpinnedPenalty)
	}
	// Pinning policy must not touch non-CPU resources.
	web := WebHostOverhead()
	web.Pinning = XenScheduledVCPUs
	aDisk, _ := web.RawFactor("diskio", 3)
	aDiskPinned, _ := WebHostOverhead().RawFactor("diskio", 3)
	if aDisk != aDiskPinned {
		t.Fatal("pinning affected disk I/O")
	}
}

func TestCustomCPUResources(t *testing.T) {
	h := HostOverhead{
		Curves:       map[string]ImpactCurve{"vcpu": ConstantCurve{0.9}},
		Pinning:      XenScheduledVCPUs,
		CPUResources: []string{"vcpu"},
	}
	a, err := h.Factor("vcpu", 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-0.9*UnpinnedPenalty) > 1e-12 {
		t.Fatalf("custom cpu resource factor = %g", a)
	}
}

func TestFitLinearRecoversPaperCurve(t *testing.T) {
	vms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	factors := make([]float64, len(vms))
	for i, v := range vms {
		factors[i] = WebDiskIOCurve.At(v)
	}
	fit, r2, err := FitLinear(vms, factors)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Intercept-1.082) > 1e-9 || math.Abs(fit.Slope+0.102) > 1e-9 {
		t.Fatalf("fit = %+v", fit)
	}
	if r2 < 1-1e-9 {
		t.Fatalf("R2 = %g", r2)
	}
}

func TestFitRationalRecoversPaperCurve(t *testing.T) {
	vms := []int{1, 2, 3, 4, 5, 6}
	factors := make([]float64, len(vms))
	for i, v := range vms {
		factors[i] = DBCPUCurve.At(v)
	}
	fit, r2, err := FitRational(vms, factors)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.C-1.85) > 1e-9 {
		t.Fatalf("C = %g", fit.C)
	}
	if r2 < 1-1e-9 {
		t.Fatalf("R2 = %g", r2)
	}
}

func TestFitErrors(t *testing.T) {
	if _, _, err := FitLinear([]int{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, _, err := FitLinear([]int{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, _, err := FitRational(nil, nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestStableMeanImpact(t *testing.T) {
	// Native plateau at 100; virtualized plateau at 80 → impact 0.8.
	native := []float64{10, 40, 70, 98, 100, 99, 97, 96}
	virt := []float64{10, 35, 60, 78, 80, 79, 78, 77}
	a, err := StableMeanImpact(virt, native, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Plateau (top 10 %): native {98,100,99,97,96} → 98; virtualized
	// {78,80,79,78,77} → 78.4; ratio 0.8.
	if math.Abs(a-0.8) > 1e-9 {
		t.Fatalf("impact = %g, want 0.8", a)
	}
}

func TestStableMeanImpactErrors(t *testing.T) {
	good := []float64{1, 2, 3}
	if _, err := StableMeanImpact(nil, good, 0); err == nil {
		t.Fatal("empty virtualized accepted")
	}
	if _, err := StableMeanImpact(good, nil, 0); err == nil {
		t.Fatal("empty native accepted")
	}
	if _, err := StableMeanImpact(good, []float64{0, 0}, 0); err == nil {
		t.Fatal("zero native accepted")
	}
	if _, err := StableMeanImpact([]float64{-1, -2}, good, 0); err == nil {
		t.Fatal("negative virtualized accepted")
	}
}

func TestWebDiskDegradationPassesHalfAfterSixVMs(t *testing.T) {
	// Section IV-D: "the overhead of Xen on disk I/O is huge, especially
	// when the number of VMs is more than six (the degradation of
	// throughput is more than 50%)". Our reconstruction keeps the curve
	// monotone decreasing; verify monotonicity and that degradation grows
	// with VM count.
	prev := math.Inf(1)
	for v := 1; v <= 9; v++ {
		a := WebDiskIOCurve.At(v)
		if a >= prev {
			t.Fatalf("curve not decreasing at v=%d", v)
		}
		prev = a
	}
}
