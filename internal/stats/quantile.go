package stats

import (
	"fmt"
	"math"
	"sort"
)

// P2Quantile estimates a single quantile of a stream without storing
// observations, using the P² algorithm of Jain & Chlamtac (1985): five
// markers track the minimum, the target quantile and intermediate
// positions, adjusted with parabolic interpolation as observations arrive.
// Memory is O(1); accuracy is excellent for smooth distributions and more
// than sufficient for simulation response-time percentiles.
type P2Quantile struct {
	p       float64
	n       int
	heights [5]float64
	pos     [5]float64 // actual marker positions (1-based)
	want    [5]float64 // desired marker positions
	inc     [5]float64 // desired-position increments
	initial []float64
}

// NewP2Quantile tracks the q-quantile, q in (0, 1).
func NewP2Quantile(q float64) *P2Quantile {
	if q <= 0 || q >= 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("stats: P2 quantile %v outside (0,1)", q))
	}
	est := &P2Quantile{p: q}
	est.pos = [5]float64{1, 2, 3, 4, 5}
	est.want = [5]float64{1, 1 + 2*q, 1 + 4*q, 3 + 2*q, 5}
	est.inc = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return est
}

// Add records one observation.
func (e *P2Quantile) Add(x float64) {
	e.n++
	if e.n <= 5 {
		e.initial = append(e.initial, x)
		if e.n == 5 {
			sort.Float64s(e.initial)
			copy(e.heights[:], e.initial)
			e.initial = nil
		}
		return
	}

	// Find the cell k containing x and update extreme heights.
	var k int
	switch {
	case x < e.heights[0]:
		e.heights[0] = x
		k = 0
	case x >= e.heights[4]:
		e.heights[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < e.heights[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := 0; i < 5; i++ {
		e.want[i] += e.inc[i]
	}

	// Adjust interior markers.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1
			}
			// Parabolic (P²) interpolation.
			h := e.parabolic(i, sign)
			if e.heights[i-1] < h && h < e.heights[i+1] {
				e.heights[i] = h
			} else {
				// Fall back to linear interpolation.
				e.heights[i] = e.linear(i, sign)
			}
			e.pos[i] += sign
		}
	}
}

func (e *P2Quantile) parabolic(i int, d float64) float64 {
	q := e.heights
	n := e.pos
	return q[i] + d/(n[i+1]-n[i-1])*((n[i]-n[i-1]+d)*(q[i+1]-q[i])/(n[i+1]-n[i])+
		(n[i+1]-n[i]-d)*(q[i]-q[i-1])/(n[i]-n[i-1]))
}

func (e *P2Quantile) linear(i int, d float64) float64 {
	q := e.heights
	n := e.pos
	j := i + int(d)
	return q[i] + d*(q[j]-q[i])/(n[j]-n[i])
}

// Value reports the current quantile estimate. With fewer than five
// observations it falls back to the exact order statistic; with none it is
// NaN.
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return math.NaN()
	}
	if e.n < 5 {
		cp := append([]float64(nil), e.initial...)
		sort.Float64s(cp)
		return quantileSorted(cp, e.p)
	}
	return e.heights[2]
}
