package main

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs with
// the same interpolation as Python's statistics.quantiles(xs, n=4)
// (its default "exclusive" method), so spreads printed here match the
// ones an external checker computes from the same values. It needs at
// least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, got %d", len(xs))
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) (float64, error) {
	q1, _, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	med := median(xs)
	if med == 0 {
		return math.Inf(1), nil
	}
	return (q3 - q1) / math.Abs(med), nil
}

// tailMinBeyond is how many samples must lie beyond the reported tail
// percentile: a tail resting on fewer samples is one outlier's value.
const tailMinBeyond = 10

// tail is a latency tail: the highest percentile that still has at
// least tailMinBeyond samples above it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"` // share of samples at or below Value, in percent
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
	// Max marks a sample too small for the rule: Value is then the
	// maximum and Beyond is 0.
	Max bool `json:"max,omitempty"`
}

// tailOf applies the tail rule to xs. Sorted ascending, the sample at
// index i has n-1-i samples beyond it, so the highest qualifying index
// is n-1-tailMinBeyond. Fewer than tailMinBeyond+1 samples have no
// qualifying percentile; the maximum is reported and flagged.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Max: true}
	}
	s := sorted(xs)
	i := n - 1 - tailMinBeyond
	if i < 0 {
		return tail{Value: s[n-1], Percentile: 100, Samples: n, Max: true}
	}
	return tail{Value: s[i], Percentile: 100 * float64(i+1) / float64(n), Samples: n, Beyond: n - 1 - i}
}

// String renders the tail with the percentile and sample count it
// rests on.
func (t tail) String() string {
	if t.Max {
		return fmt.Sprintf("max of n=%d (too few samples for %d beyond)", t.Samples, tailMinBeyond)
	}
	return fmt.Sprintf("p%.1f of n=%d (%d beyond)", t.Percentile, t.Samples, t.Beyond)
}
