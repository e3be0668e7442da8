package fleet

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"affectedge/internal/affect"
)

// countedRef wraps math/rand's own source to count its draws, the
// reference for sessionSource.draws.
type countedRef struct {
	rand.Source64
	n uint64
}

func (c *countedRef) Int63() int64   { c.n++; return c.Source64.Int63() }
func (c *countedRef) Uint64() uint64 { c.n++; return c.Source64.Uint64() }

// zigguratBranch classifies the first strip draw of src's next
// NormFloat64 (on a copy, so src does not move): 0 for the fast path, 1
// for the base strip, 2 for a wedge.
func zigguratBranch(src *sessionSource) int {
	peek := *src
	j := int32(peek.Int63() >> 31)
	i := j & 0x7F
	switch {
	case absInt32(j) < kn[i]:
		return 0
	case i == 0:
		return 1
	}
	return 2
}

// TestSessionSourceMatchesMathRand pins the session source to
// rand.New(rand.NewSource(seed)) value for value: Int63, Uint64, Intn
// (through a rand.Rand over the source, as the traffic models draw) and
// NormFloat64, interleaved, with the draw counts equal throughout. Both
// slow branches of the ziggurat must be taken.
func TestSessionSourceMatchesMathRand(t *testing.T) {
	rounds := 1_000_000
	if testing.Short() || raceEnabled {
		rounds = 100_000
	}
	seeds := []int64{0, 1, -5, 1 << 40,
		sessionSeed(1, 0), sessionSeed(1, 1023), sessionSeed(-3, 7),
		// The edges of math/rand's seed reduction mod 2^31-1.
		-1, math.MaxInt32, 2 * math.MaxInt32, math.MinInt64, math.MaxInt64}
	var branches [3]int
	for _, seed := range seeds {
		ref := &countedRef{Source64: rand.NewSource(seed).(rand.Source64)}
		want := rand.New(ref)
		src := newSessionSource(seed)
		got := rand.New(src)
		for r := 0; r < rounds; r++ {
			// Rotate the call order so every op follows every other.
			for k := 0; k < 4; k++ {
				switch (r + k) % 4 {
				case 0:
					if g, w := src.Int63(), want.Int63(); g != w {
						t.Fatalf("seed %d round %d: Int63 %d, want %d", seed, r, g, w)
					}
				case 1:
					if g, w := src.Uint64(), want.Uint64(); g != w {
						t.Fatalf("seed %d round %d: Uint64 %d, want %d", seed, r, g, w)
					}
				case 2:
					n := 1 + r%97
					if r%1000 == 0 {
						n = 1<<40 + 3 // Int63n's rejection path
					}
					if g, w := got.Intn(n), want.Intn(n); g != w {
						t.Fatalf("seed %d round %d: Intn(%d) %d, want %d", seed, r, n, g, w)
					}
				case 3:
					branches[zigguratBranch(src)]++
					if g, w := src.NormFloat64(), want.NormFloat64(); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("seed %d round %d: NormFloat64 %v, want %v", seed, r, g, w)
					}
				}
			}
		}
		if src.draws() != ref.n {
			t.Fatalf("seed %d: %d draws counted, math/rand made %d", seed, src.draws(), ref.n)
		}
	}
	t.Logf("ziggurat first strips: %d fast, %d base strip, %d wedge", branches[0], branches[1], branches[2])
	if branches[1] == 0 || branches[2] == 0 {
		t.Fatalf("slow branches not exercised: base strip %d, wedge %d", branches[1], branches[2])
	}
}

// schrageSeedrand is math/rand's seedrand as Go writes it: Schrage's
// method, 48271*x mod 2^31-1 without overflowing int32.
func schrageSeedrand(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += seedMod
	}
	return x
}

// TestSeedrandMatchesSchrage: the division-free fold equals Go's
// seedrand at the edges of its domain and along a stride through it.
func TestSeedrandMatchesSchrage(t *testing.T) {
	xs := []int32{0, 1, 2, 44487, 44488, 44489, 1 << 30, seedMod - 2, seedMod - 1}
	for x := int32(3); x < seedMod-9973; x += 9973 {
		xs = append(xs, x)
	}
	for _, x := range xs {
		if g, w := seedrand(uint32(x)), schrageSeedrand(x); int32(g) != w {
			t.Fatalf("seedrand(%d) = %d, want %d", x, g, w)
		}
	}
}

// TestSessionSourceSkip: skip(n) on a fresh source is n draws, around
// both lags of the recurrence and their multiples.
func TestSessionSourceSkip(t *testing.T) {
	for _, n := range []uint64{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1213, 1214, 1215} {
		drawn := newSessionSource(42)
		for i := uint64(0); i < n; i++ {
			drawn.Uint64()
		}
		skipped := newSessionSource(42)
		skipped.skip(n)
		if *skipped != *drawn {
			t.Fatalf("skip(%d): state differs from %d draws", n, n)
		}
		if skipped.draws() != n {
			t.Fatalf("skip(%d): draws() = %d", n, skipped.draws())
		}
	}
}

// TestSessionSourceSeed: Seed restarts the stream and the draw count.
func TestSessionSourceSeed(t *testing.T) {
	src := newSessionSource(3)
	src.skip(1000)
	src.Seed(9)
	if *src != *newSessionSource(9) {
		t.Fatal("Seed(9) differs from a fresh source seeded 9")
	}
}

// TestSessionSnapshotAcrossLag: session snapshots taken while a session
// has drawn fewer than rngLen values (the stream still in math/rand's
// seeding history) and more (past it) restore onto the churn-free
// trajectory.
func TestSessionSnapshotAcrossLag(t *testing.T) {
	cfg := detCfg()
	oracle, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var below, above bool
	done := 0
	for _, at := range []int{3, 40} {
		if _, err := f.RunTicks(at - done); err != nil {
			t.Fatal(err)
		}
		done = at
		for _, id := range []int{0, 13, 59} {
			d := f.shardOf(id).sessions[id].src.draws()
			below = below || d < rngLen
			above = above || d > rngLen
			var buf bytes.Buffer
			if err := f.SnapshotSession(id, &buf); err != nil {
				t.Fatal(err)
			}
			if err := f.RemoveSession(id); err != nil {
				t.Fatal(err)
			}
			if err := f.RestoreSession(&buf); err != nil {
				t.Fatal(err)
			}
			if got := f.shardOf(id).sessions[id].src.draws(); got != d {
				t.Fatalf("session %d restored at %d draws, snapshot at %d", id, got, d)
			}
		}
	}
	if !below || !above {
		t.Fatalf("snapshots did not straddle %d draws (below %v, above %v)", rngLen, below, above)
	}
	if _, err := f.RunTicks(cfg.Ticks - done); err != nil {
		t.Fatal(err)
	}
	if got, want := f.Stats().Fingerprint(), oracle.Fingerprint(); got != want {
		t.Fatalf("round-tripped fingerprint %s, oracle %s", got, want)
	}
}

// TestSampleAllocs: synthesizing an observation through the session
// source allocates nothing.
func TestSampleAllocs(t *testing.T) {
	f, err := New(Config{Sessions: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := f.shards[0].sessions[0]
	dst := make([]float64, FeatureDim)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := f.stream.Sample(dst, s.latent, noise, s.src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Sample through the session source: %v allocs/op, want 0", allocs)
	}
}

// sourceSink keeps BenchmarkNewSessionSource's results live.
var sourceSink rand.Source

// BenchmarkNewSessionSource prices seeding a session's source, against
// rand.NewSource on the same seed.
func BenchmarkNewSessionSource(b *testing.B) {
	b.Run("source", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sourceSink = newSessionSource(sessionSeed(1, i))
		}
	})
	b.Run("rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sourceSink = rand.NewSource(sessionSeed(1, i))
		}
	})
}

// BenchmarkSessionSample prices one FeatureDim-wide Sample through the
// session source and through a *rand.Rand on the same seed.
func BenchmarkSessionSample(b *testing.B) {
	f, err := New(Config{Sessions: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := f.shards[0].sessions[0]
	seed := sessionSeed(1, 0)
	dst := make([]float64, FeatureDim)
	for _, c := range []struct {
		name string
		rng  affect.Normal
	}{
		{"source", s.src},
		{"rand", rand.New(rand.NewSource(seed))},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f.stream.Sample(dst, s.latent, noise, c.rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
