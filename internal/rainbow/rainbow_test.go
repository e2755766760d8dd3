package rainbow

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func TestStaticEqualShares(t *testing.T) {
	s := Static{}
	shares := s.Shares(nil, make([]float64, 4))
	for _, v := range shares {
		if math.Abs(v-0.25) > 1e-12 {
			t.Fatalf("shares = %v", shares)
		}
	}
	if s.Period() != 0 || s.Overhead() != 0 || s.String() != "static" {
		t.Fatal("static metadata wrong")
	}
}

func TestStaticWeights(t *testing.T) {
	s := Static{Weights: []float64{3, 1}}
	shares := s.Shares(nil, make([]float64, 2))
	if math.Abs(shares[0]-0.75) > 1e-12 || math.Abs(shares[1]-0.25) > 1e-12 {
		t.Fatalf("shares = %v", shares)
	}
	// Wrong-length weights fall back to equal.
	shares = s.Shares(nil, make([]float64, 3))
	for _, v := range shares {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("fallback shares = %v", shares)
		}
	}
	// All-zero weights fall back too.
	z := Static{Weights: []float64{0, 0}}
	shares = z.Shares(nil, make([]float64, 2))
	if math.Abs(shares[0]-0.5) > 1e-12 {
		t.Fatalf("zero-weight shares = %v", shares)
	}
}

func TestStaticEmpty(t *testing.T) {
	if got := (Static{}).Shares(nil, nil); len(got) != 0 {
		t.Fatal("empty backlogs should yield empty shares")
	}
}

func TestProportionalTracksBacklog(t *testing.T) {
	p := Proportional{RebalancePeriod: 1}
	shares := p.Shares(nil, []float64{30, 10})
	if math.Abs(shares[0]-0.75) > 1e-12 || math.Abs(shares[1]-0.25) > 1e-12 {
		t.Fatalf("shares = %v", shares)
	}
	// Zero backlog: equal split.
	shares = p.Shares(nil, []float64{0, 0})
	if math.Abs(shares[0]-0.5) > 1e-12 {
		t.Fatalf("idle shares = %v", shares)
	}
}

func TestProportionalMinShare(t *testing.T) {
	p := Proportional{RebalancePeriod: 1, MinShare: 0.2}
	shares := p.Shares(nil, []float64{100, 0})
	if shares[1] < 0.2-1e-12 {
		t.Fatalf("floor violated: %v", shares)
	}
	if math.Abs(sum(shares)-1) > 1e-12 {
		t.Fatalf("shares sum %v", sum(shares))
	}
	// MinShare above 1/n clamps.
	p2 := Proportional{RebalancePeriod: 1, MinShare: 0.9}
	shares = p2.Shares(nil, []float64{1, 1, 1})
	if math.Abs(sum(shares)-1) > 1e-9 {
		t.Fatalf("clamped shares sum %v", sum(shares))
	}
}

func TestProportionalDefaults(t *testing.T) {
	p := Proportional{}
	if p.Period() != 1 {
		t.Fatalf("default period = %g", p.Period())
	}
	if p.Overhead() != 0 {
		t.Fatalf("default overhead = %g", p.Overhead())
	}
	if (Proportional{Cost: 2}).Overhead() != 0.9 {
		t.Fatal("overhead not clamped")
	}
	if (Proportional{Cost: -1}).Overhead() != 0 {
		t.Fatal("negative cost not clamped")
	}
	if p.String() == "" {
		t.Fatal("empty string")
	}
}

func TestPriorityOrdering(t *testing.T) {
	p := Priority{Priorities: []int{0, 1}, DemandCap: 0.8}
	// Both backlogged: high priority takes its cap, low gets the rest.
	shares := p.Shares(nil, []float64{10, 10})
	if math.Abs(shares[0]-0.8) > 1e-12 {
		t.Fatalf("high priority share = %v", shares)
	}
	if math.Abs(shares[1]-0.2) > 1e-12 {
		t.Fatalf("low priority share = %v", shares)
	}
}

func TestPriorityIdleCapacityFlows(t *testing.T) {
	p := Priority{Priorities: []int{0, 1}}
	// Only the low-priority VM is backlogged: it gets (nearly) everything.
	shares := p.Shares(nil, []float64{0, 10})
	if shares[1] < 0.9 {
		t.Fatalf("idle capacity did not flow: %v", shares)
	}
	// Nobody backlogged: spread equally.
	shares = p.Shares(nil, []float64{0, 0})
	if math.Abs(shares[0]-0.5) > 1e-9 || math.Abs(shares[1]-0.5) > 1e-9 {
		t.Fatalf("idle spread = %v", shares)
	}
}

func TestPrioritySameRankProportional(t *testing.T) {
	p := Priority{Priorities: []int{0, 0}}
	shares := p.Shares(nil, []float64{30, 10})
	if math.Abs(shares[0]-0.75) > 1e-9 || math.Abs(shares[1]-0.25) > 1e-9 {
		t.Fatalf("same-rank shares = %v", shares)
	}
}

func TestPriorityMissingRanksDefaultLowest(t *testing.T) {
	p := Priority{Priorities: []int{0}} // VM 1 has no explicit rank
	shares := p.Shares(nil, []float64{10, 10})
	if shares[0] < shares[1] {
		t.Fatalf("explicit rank should win: %v", shares)
	}
}

func TestPriorityDefaults(t *testing.T) {
	p := Priority{}
	if p.Period() != 1 {
		t.Fatalf("default period = %g", p.Period())
	}
	if p.String() == "" {
		t.Fatal("empty string")
	}
}

// Property: every policy returns non-negative shares summing to <= 1 (+eps)
// for arbitrary backlogs, and writing them into a reused buffer that
// still holds other shares gives the same shares as a fresh one.
func TestSharesInvariantProperty(t *testing.T) {
	policies := []interface {
		Shares(dst, backlogs []float64) []float64
	}{
		Static{},
		Static{Weights: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
		Proportional{RebalancePeriod: 1, MinShare: 0.05},
		Priority{Priorities: []int{2, 0, 1}, DemandCap: 0.5},
	}
	f := func(raw []uint16) bool {
		backlogs := make([]float64, len(raw))
		for i, v := range raw {
			backlogs[i] = float64(v)
		}
		dirty := make([]float64, len(backlogs), len(backlogs)+1)
		for _, p := range policies {
			shares := p.Shares(nil, backlogs)
			if len(shares) != len(backlogs) {
				return false
			}
			for i := range dirty {
				dirty[i] = 0.75
			}
			if reused := p.Shares(dirty, backlogs); &reused[:1][0] != &dirty[:1][0] || !slices.Equal(reused, shares) {
				return false
			}
			total := 0.0
			for _, s := range shares {
				if s < -1e-12 || math.IsNaN(s) {
					return false
				}
				total += s
			}
			if total > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
