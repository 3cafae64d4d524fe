package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// Summary accumulates streaming moments of a sequence of observations using
// Welford's numerically stable online algorithm.
type Summary struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean (0 if empty).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the unbiased sample variance (0 if fewer than two
// observations).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation (0 if empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 if empty).
func (s *Summary) Max() float64 { return s.max }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n < 2 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// Merge folds another summary into s, as if all of o's observations had
// been Added to s.
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	s.mean += delta * float64(o.n) / float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n = n
}

// summaryWire is the JSON form of a Summary: the exact Welford state, so
// a summary can cross a process boundary (the cluster shard protocol)
// and keep producing bit-identical Mean/Variance/Min/Max on the far side.
// encoding/json round-trips float64 exactly, so marshal→unmarshal loses
// nothing.
type summaryWire struct {
	N    int64   `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// MarshalJSON encodes the summary's full accumulator state.
func (s Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(summaryWire{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max})
}

// UnmarshalJSON restores a summary from its wire state.
func (s *Summary) UnmarshalJSON(data []byte) error {
	var w summaryWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.N < 0 {
		return fmt.Errorf("stats: summary with negative n %d", w.N)
	}
	s.n, s.mean, s.m2, s.min, s.max = w.N, w.Mean, w.M2, w.Min, w.Max
	return nil
}

// String renders a compact human-readable summary.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.StdDev(), s.min, s.max)
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It copies and sorts xs, so it is
// suitable for post-hoc analysis rather than hot loops.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q < 0 || q > 1 {
		panic("stats: Quantile requires q in [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
