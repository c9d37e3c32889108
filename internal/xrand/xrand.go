// Package xrand provides a small, fast, deterministic PRNG (xorshift64*)
// used by the synthetic workload models. Determinism matters: every
// experiment in the harness must be exactly reproducible from a seed, so we
// do not use math/rand's global state anywhere in the simulator.
package xrand

import "math"

// Rand is a xorshift64* generator. The zero value is valid (it is reseeded
// to a fixed non-zero constant).
type Rand struct {
	s uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state. A zero seed is remapped to a fixed
// constant because xorshift has an all-zero fixed point.
func (r *Rand) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r.s = seed
	// Scramble a few rounds so nearby seeds diverge immediately.
	for i := 0; i < 4; i++ {
		r.Uint64()
	}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	if r.s == 0 {
		r.Seed(0)
	}
	x := step(r.s)
	r.s = x
	return x * mult
}

// mult scrambles the xorshift state into the output (the "*" of
// xorshift64*).
const mult = 0x2545F4914F6CDD1D

// step advances a non-zero xorshift64 state.
func step(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x
}

// Intn returns a value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a value in [0, n). n must be positive.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("xrand: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Bool returns true with probability p: Hit(NewProb(p)). Callers that draw
// against a fixed p on a hot path prepare the Prob once and call Hit.
func (r *Rand) Bool(p float64) bool { return r.Hit(NewProb(p)) }

// Prob is a probability prepared for Hit: the integer threshold a 53-bit
// draw is compared against, or one of two sentinels above every threshold
// for the certain outcomes, which consume no draw.
type Prob uint64

const (
	probNever  Prob = 1 << 63          // p <= 0
	probAlways Prob = 1<<63 | 1        // p >= 1
	probScale       = float64(1 << 53) // draws are 53-bit, as in Float64
)

// NewProb prepares p for Hit. For p in (0, 1) the threshold is
// ceil(p·2^53): a 53-bit draw k satisfies k/2^53 < p exactly when
// k < ceil(p·2^53), since the scaling by a power of two is exact. A NaN p
// gets threshold 0, so Hit still draws and never succeeds, as Float64() < NaN.
func NewProb(p float64) Prob {
	switch {
	case p <= 0:
		return probNever
	case p >= 1:
		return probAlways
	case math.IsNaN(p):
		return 0
	}
	return Prob(math.Ceil(p * probScale))
}

// Hit returns true with probability q. It consumes one draw unless q is
// certain (p <= 0 or p >= 1), and returns exactly what Float64() < p
// would for the same draw.
func (r *Rand) Hit(q Prob) bool {
	if q >= probNever {
		return q == probAlways
	}
	return r.Uint64()>>11 < uint64(q)
}

// Shuffle permutes s in place by Fisher–Yates: for i = len(s)-1 down to
// 1 it swaps s[i] with s[Intn(i+1)]. Shuffling the identity [0, n) gives
// the classic Perm(n) permutation, and r ends where n-1 Intn draws leave
// it. The state lives in a local for the loop, so a shuffle of a large
// cycle costs one division per element and no generator loads or stores.
func Shuffle[E any](r *Rand, s []E) {
	if len(s) < 2 {
		return
	}
	if r.s == 0 {
		r.Seed(0)
	}
	x := r.s
	for i := len(s) - 1; i > 0; i-- {
		x = step(x)
		j := x * mult % uint64(i+1)
		s[i], s[j] = s[j], s[i]
	}
	r.s = x
}
