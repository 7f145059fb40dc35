// Package xrand provides small, fast, deterministic pseudo-random
// number generators for the simulation packages.
//
// Every stochastic component in this repository takes an explicit
// *xrand.Rand so that experiments are exactly reproducible from a
// seed, independent of package initialization order or the global
// math/rand state. The generator is a PCG-XSH-RR variant seeded
// through SplitMix64, which gives good statistical quality at a few
// nanoseconds per draw and supports cheap splitting into independent
// streams (one per server group, per entity, per zone, ...).
package xrand

import "math"

// Rand is a deterministic pseudo-random number generator.
// The zero value is not valid; use New or Split.
type Rand struct {
	state uint64
	inc   uint64
	// spare Gaussian value from the Box-Muller transform.
	gauss    float64
	hasGauss bool
}

// Mix64 is the SplitMix64 output finaliser: a bijection with full
// avalanche, so neighbouring inputs map to unrelated outputs. Stateless
// hashes of (seed, zone, tick) keys use it to stay independent of call
// order.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, never as the main stream.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	return Mix64(*s)
}

// New returns a generator seeded from seed. Two generators created
// with the same seed produce identical streams.
func New(seed uint64) *Rand {
	s := seed
	r := &Rand{}
	r.state = splitmix64(&s)
	r.inc = splitmix64(&s) | 1 // stream selector must be odd
	r.Uint64()                 // warm up
	return r
}

// Split returns a new generator whose stream is statistically
// independent of r's but fully determined by r's current state and
// the supplied label. Splitting does not advance r, so call sites can
// derive per-object generators without perturbing the parent stream.
func (r *Rand) Split(label uint64) *Rand {
	s := r.state ^ (label * 0xd1342543de82ef95)
	c := &Rand{}
	c.state = splitmix64(&s)
	c.inc = splitmix64(&s) | 1
	c.Uint64()
	return c
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	// Two PCG-XSH-RR 32-bit outputs glued together.
	return uint64(r.uint32())<<32 | uint64(r.uint32())
}

func (r *Rand) uint32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation (32-bit variant
	// is enough for the simulation's ranges).
	bound := uint32(n)
	threshold := -bound % bound
	for {
		v := r.uint32()
		if v >= threshold {
			return int((uint64(v) * uint64(bound)) >> 32)
		}
	}
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *Rand) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
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
	r.hasGauss = true
	return u * f
}

// Norm returns a normal variate with the given mean and standard
// deviation.
func (r *Rand) Norm(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// ExpFloat64 returns an exponential variate with rate 1.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Exp returns an exponential variate with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	return mean * r.ExpFloat64()
}

// LogNormal returns exp(Norm(mu, sigma)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Shuffle permutes the first n elements using swap, Fisher-Yates.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// WeightedChoice returns an index in [0, len(weights)) chosen with
// probability proportional to weights[i]. Negative weights are treated
// as zero. It panics when the weights sum to zero or the slice is empty.
func (r *Rand) WeightedChoice(weights []float64) int {
	if len(weights) == 0 {
		panic("xrand: WeightedChoice with no weights")
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("xrand: WeightedChoice with zero total weight")
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
