package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// calRef is the calibration loop's wall time on the reference machine
// (a shared 2-vCPU KVM guest, Intel Xeon at 2.1 GHz, Go 1.24), taken as
// the median of 100 loops. Reported times are "seconds on that machine":
// a pass's wall time is scaled by calRef over the mean of the calibration
// loops timed just before and just after it, so contention that slows
// the pass and the loops beside it alike cancels out of the ratio.
const calRef = 0.1880

// calibrate times one fixed calibration loop and returns its wall time
// in seconds.
func calibrate() float64 {
	t0 := time.Now()
	calSink += calWork()
	return time.Since(t0).Seconds()
}

// calSink keeps calWork's result live so the compiler cannot drop it.
var calSink int

// calWork is a fixed, stdlib-only mix of what the workloads spend their
// time on: string-keyed map inserts and lookups, a sort and small
// allocations. Its amount of work never changes; only its speed does.
// The working set (about 10 MiB) is larger than a core's private caches
// on purpose: the workloads are pointer-heavy, and a loop that fits in
// cache tracked their slow-downs under contention less well.
func calWork() int {
	const rounds, keys = 3, 98304
	x := uint64(88172645463325252)
	sum := 0
	for r := 0; r < rounds; r++ {
		m := make(map[string]int)
		ks := make([]string, 0, keys)
		bufs := make([][]byte, 0, keys)
		for i := 0; i < keys; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			k := strconv.FormatUint(x%1_000_000_000, 36)
			m[k] = i
			ks = append(ks, k)
			bufs = append(bufs, make([]byte, 8+int(x%56)))
		}
		sort.Strings(ks)
		for i, k := range ks {
			sum += m[k] + len(bufs[i])
		}
	}
	return sum
}

// calibrated converts a wall time measured between two calibration loops
// into reference-machine seconds.
func calibrated(wall, calBefore, calAfter float64) float64 {
	return wall * calRef / ((calBefore + calAfter) / 2)
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks, the rule Python's
// statistics.quantiles(method="inclusive") uses. It returns 0 for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile returns the p-th percentile of xs when at least ten
// samples lie beyond it, so that a tail figure never rests on one or two
// outliers; ok is false otherwise.
func tailPercentile(xs []float64, p float64) (v float64, ok bool) {
	if float64(len(xs))*(1-p/100) < 10 {
		return 0, false
	}
	return quantile(xs, p/100), true
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
