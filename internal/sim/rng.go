package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic random number generator
// (xoshiro256** seeded via splitmix64). It is not cryptographically secure;
// it exists to make simulations reproducible across platforms and Go
// versions, which math/rand/v2's unspecified stream would not guarantee.
type RNG struct {
	s [4]uint64
	// cached second normal variate from Box-Muller
	haveGauss bool
	gauss     float64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed (re)initializes the state from seed via splitmix64, leaving r as
// NewRNG(seed) returns it. A Kernel or a pooled record embeds its RNG by
// value and seeds it in place without a separate allocation.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// Avoid the all-zero state, which xoshiro cannot escape.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	r.haveGauss = false
}

// Split returns a new generator whose stream is independent of r's,
// suitable for giving each subsystem its own stream so that adding draws
// in one subsystem does not shift the sequence seen by another.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Range returns a uniform integer in [lo, hi]. It panics if hi < lo.
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		panic("sim: Range with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, via Box-Muller.
func (r *RNG) Normal(mean, stddev float64) float64 {
	if r.haveGauss {
		r.haveGauss = false
		return mean + stddev*r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.haveGauss = true
	return mean + stddev*u*f
}

// Exponential returns an exponentially distributed value with the given
// mean (i.e. rate 1/mean).
func (r *RNG) Exponential(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// DurationRange returns a uniform duration in [lo, hi].
func (r *RNG) DurationRange(lo, hi Duration) Duration {
	if hi < lo {
		panic("sim: DurationRange with hi < lo")
	}
	if hi == lo {
		return lo
	}
	span := uint64(hi - lo + 1)
	return lo + Duration(r.Uint64()%span)
}

// NormalDuration returns a normally distributed duration clamped to be
// non-negative.
func (r *RNG) NormalDuration(mean, stddev Duration) Duration {
	d := Duration(r.Normal(float64(mean), float64(stddev)))
	if d < 0 {
		return 0
	}
	return d
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes s deterministically in place.
func Shuffle[T any](r *RNG, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}
