package sim

import (
	"math"
	"sort"
)

// Stats accumulates a bounded summary of a series — count, running sum,
// min and max — without retaining samples. It is the statistic for
// infrastructure fields (response times, bus and service latencies,
// resource waits) that record on every job or frame. The zero value is
// ready to use.
type Stats struct {
	n        int64
	sum      float64
	min, max float64
}

// Add records a sample.
func (s *Stats) Add(x float64) {
	s.n++
	s.sum += x
	if s.n == 1 || x < s.min {
		s.min = x
	}
	if s.n == 1 || x > s.max {
		s.max = x
	}
}

// AddDuration records a duration sample in nanoseconds.
func (s *Stats) AddDuration(d Duration) { s.Add(float64(d)) }

// Count returns the number of samples recorded.
func (s *Stats) Count() int64 { return s.n }

// Mean returns sum/n over the samples in insertion order, or 0 with no
// samples.
func (s *Stats) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Min returns the smallest sample, or 0 with no samples.
func (s *Stats) Min() float64 { return s.min }

// Max returns the largest sample, or 0 with no samples.
func (s *Stats) Max() float64 { return s.max }

// MinDuration returns the minimum as a Duration.
func (s *Stats) MinDuration() Duration { return Duration(s.min) }

// MaxDuration returns the maximum as a Duration.
func (s *Stats) MaxDuration() Duration { return Duration(s.max) }

// Jitter returns max-min, the peak-to-peak jitter, as a Duration.
func (s *Stats) Jitter() Duration { return Duration(s.max - s.min) }

// Sample retains every sample, supporting exact percentiles. Use it only
// where a table prints an interior percentile (p50, p95, p99); every
// other series belongs on Stats.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records a sample.
func (s *Sample) Add(x float64) {
	if s.xs == nil {
		// Skip the 1→2→4→… grow chain: percentile sets typically
		// accumulate dozens of entries.
		s.xs = make([]float64, 0, 64)
	}
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddDuration records a duration sample in nanoseconds.
func (s *Sample) AddDuration(d Duration) { s.Add(float64(d)) }

// Count returns the number of samples.
func (s *Sample) Count() int { return len(s.xs) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using nearest-rank,
// or 0 with no samples.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.xs))))
	return s.xs[rank-1]
}

// PercentileDuration returns a percentile as a Duration.
func (s *Sample) PercentileDuration(p float64) Duration {
	return Duration(s.Percentile(p))
}
