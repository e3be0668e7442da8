package fleet

import "math"

// sessionSource is a session's random stream: math/rand's seeded stream,
// carried in a concrete type so the hot path (24 Gaussian draws per
// observation) makes direct, inlinable calls instead of going through
// rand.Rand and the rand.Source interface on every draw.
//
// The generator is math/rand's additive lagged-Fibonacci recurrence
//
//	x_n = x_{n-607} + x_{n-273}  (mod 2^64)
//
// seeded by math/rand's own rule (Seed: seedrand and rngCooked), so
// every value this source returns is the value rand.NewSource(seed)
// would return at the same position. Go 1's compatibility promise
// freezes that seeded stream (and the ziggurat normals of NormFloat64),
// which is what makes carrying it here safe;
// TestSessionSourceMatchesMathRand pins it.
//
// The draw count is the serializable RNG state: the seed derives from
// (fleet seed, session id), and one Int63 or Uint64 call is one step of
// the recurrence, so a source rebuilt from the seed and fast-forwarded
// by the same number of draws (skip) produces the identical remaining
// stream. Owning the generator's 607 words would let a snapshot carry
// them instead, but the count is 8 bytes against 4856 and keeps the
// snapshot envelope unchanged. The source implements rand.Source64, so a
// rand.Rand over it serves Intn to the latent schedule and the traffic
// models unchanged.
type sessionSource struct {
	// vec holds rngLen consecutive values of the stream; vec[pos:] are
	// the ones not yet drawn. refill advances all of them at once.
	vec [rngLen]uint64
	pos uint
	n   uint64 // values refill has produced; draws() subtracts the undrawn
}

const (
	rngLen = 607 // long lag of the recurrence
	rngTap = 273 // short lag
)

// newSessionSource seeds a source with rand.NewSource(seed)'s stream.
func newSessionSource(seed int64) *sessionSource {
	s := new(sessionSource)
	s.Seed(seed)
	return s
}

// seedMod is the modulus 2^31-1 of seedrand.
const seedMod = 1<<31 - 1

// seedrand is math/rand's seeding generator, x -> 48271*x mod 2^31-1.
// It reduces without a division: 2^31 = 1 (mod 2^31-1), so the
// product's bits above 31 fold onto its low 31 bits. For x < 2^31 the
// product is below 2^47, the fold is below 2^31+2^16, and one
// conditional subtraction makes the residue exact.
func seedrand(x uint32) uint32 {
	p := 48271 * uint64(x)
	r := uint32(p&seedMod) + uint32(p>>31)
	if r >= seedMod {
		r -= seedMod
	}
	return r
}

// refill replaces the ring's values x_{n-607}..x_{n-1} with the next
// rngLen values x_n..x_{n+606}. In place, vec[i] (x_{n-607+i}) becomes
// x_{n+i} = vec[i] + x_{n+i-273}: the short-lag term is the old
// vec[i+334] for i < 273 and the just-computed vec[i-273] after. Kept out
// of line so Uint64 stays small enough to inline.
//
//go:noinline
func (s *sessionSource) refill() {
	v := &s.vec
	for i := 0; i < rngTap; i++ {
		v[i] += v[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		v[i] += v[i-rngTap]
	}
	s.pos = 0
	s.n += rngLen
}

// Uint64 implements rand.Source64: the stream's next value.
func (s *sessionSource) Uint64() uint64 {
	if s.pos == rngLen {
		s.refill()
	}
	x := s.vec[s.pos]
	s.pos++
	return x
}

// Int63 implements rand.Source: the value's low 63 bits, as math/rand.
func (s *sessionSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Seed implements rand.Source, restarting the stream at seed with
// math/rand's rule (rngSource.Seed): the seed, reduced mod 2^31-1,
// starts seedrand, which runs 20 steps and then makes three outputs per
// ring word, XORed with rngCooked. math/rand's ring is read downward
// from index rngLen-rngTap-1, so its word i is this ring's
// vec[(rngLen-rngTap-1-i) mod rngLen]: the history x_{-606}..x_0, all
// counted as drawn, so the first draw refills the ring with x_1..x_607.
func (s *sessionSource) Seed(seed int64) {
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint32(seed)
	for range 20 {
		x = seedrand(x)
	}
	for i := range rngLen {
		x = seedrand(x)
		u := uint64(x) << 40
		x = seedrand(x)
		u ^= uint64(x) << 20
		x = seedrand(x)
		u ^= uint64(x)
		k := rngLen - rngTap - 1 - i
		if k < 0 {
			k += rngLen
		}
		s.vec[k] = u ^ uint64(rngCooked[i])
	}
	s.pos = rngLen
	s.n = 0
}

// draws returns the number of values drawn since seeding.
func (s *sessionSource) draws() uint64 { return s.n - uint64(rngLen-s.pos) }

// skip fast-forwards a freshly seeded source by n draws (restore path).
func (s *sessionSource) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		s.Uint64()
	}
}

// float64 is rand.Rand.Float64 over the source: Int63/2^63, resampled in
// the (once in 2^53) case that the division rounds up to 1.
func (s *sessionSource) float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// NormFloat64 is rand.Rand.NormFloat64 over the source: the ziggurat of
// Marsaglia and Tsang (2000) with math/rand's tables, drawing in the
// same order, so it returns the same values as
// rand.New(rand.NewSource(seed)).NormFloat64 at the same stream position.
func (s *sessionSource) NormFloat64() float64 {
	for {
		// rand.Rand.Uint32 as an int32, possibly negative: bits 31..62
		// of the value, Int63's masked bit 63 falling off the top.
		j := int32(s.Uint64() >> 31)
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x // better than 99% of draws
		}
		if i == 0 {
			// The base strip: sample the tail beyond rn.
			for {
				x = -math.Log(s.float64()) * (1.0 / rn)
				y := -math.Log(s.float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		// A wedge: accept under the density, else draw again.
		if fn[i]+float32(s.float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
	}
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}
