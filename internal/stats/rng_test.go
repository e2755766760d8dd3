package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42, "arrivals")
	b := NewStream(42, "arrivals")
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with identical seed/name diverged at draw %d", i)
		}
	}
}

func TestStreamNameAffectsSequence(t *testing.T) {
	a := NewStream(42, "arrivals")
	b := NewStream(42, "services")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with different names produced %d/100 identical draws", same)
	}
}

func TestSubstreamIndependentOfParentConsumption(t *testing.T) {
	p1 := NewStream(7, "root")
	p2 := NewStream(7, "root")
	// Consume from p1 before deriving; p2 derives immediately.
	for i := 0; i < 10; i++ {
		p1.Float64()
	}
	s1 := p1.Substream("child")
	s2 := p2.Substream("child")
	for i := 0; i < 100; i++ {
		if s1.Float64() != s2.Float64() {
			t.Fatalf("substream depends on parent consumption at draw %d", i)
		}
	}
}

func TestSubstreamPathNaming(t *testing.T) {
	s := NewStream(1, "a").Substream("b").Substream("c")
	if got, want := s.Name(), "a/b/c"; got != want {
		t.Fatalf("Name() = %q, want %q", got, want)
	}
	// The path alone names a stream: the root seed carries over.
	if s.Float64() != NewStream(1, "a/b/c").Float64() {
		t.Fatal("substream a/b/c draws unlike the root-seeded stream of that path")
	}
}

func TestFloat64Range(t *testing.T) {
	s := NewStream(3, "u")
	if err := quick.Check(func(k uint8) bool {
		u := s.Float64()
		return u >= 0 && u < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliEdges(t *testing.T) {
	s := NewStream(5, "bern")
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
	// p = 0.3: expect roughly 30 % over many trials.
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency = %.4f", p)
	}
}

func TestPerm(t *testing.T) {
	s := NewStream(9, "perm")
	p := s.Perm(10)
	seen := map[int]bool{}
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestSplitmix64Mixes(t *testing.T) {
	// Adjacent inputs should produce wildly different outputs.
	a, b := splitmix64(1), splitmix64(2)
	if a == b {
		t.Fatal("splitmix64 collision on adjacent inputs")
	}
	diff := 0
	for x := a ^ b; x != 0; x &= x - 1 {
		diff++
	}
	if diff < 16 {
		t.Fatalf("splitmix64(1)^splitmix64(2) has only %d differing bits", diff)
	}
}
