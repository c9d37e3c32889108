package xrand

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at %d", i)
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestZeroSeedSafe(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced zero stream")
	}
	var z Rand // zero value
	if z.Uint64() == 0 && z.Uint64() == 0 {
		t.Error("zero value produced zero stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / n
	if mean < 0.48 || mean > 0.52 {
		t.Errorf("mean = %v, want ~0.5", mean)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(3)
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
	trues := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.3) {
			trues++
		}
	}
	frac := float64(trues) / 10000
	if frac < 0.27 || frac > 0.33 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}

// refPerm is the permutation generator Shuffle replaced, kept as its
// reference: the identity [0, n) swapped at Intn draws from the top down.
func refPerm(r *Rand, n int) []int {
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

func identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// TestShuffleMatchesPerm: shuffling the identity gives the reference
// permutation and leaves the generator where the reference's draws leave
// it, from seeded and zero-valued generators alike.
func TestShuffleMatchesPerm(t *testing.T) {
	for _, n := range []int{1, 2, 3, 1000, 65536} {
		for _, seed := range []uint64{1, 2, 3, 0xDEADBEEF} {
			got, ref := New(seed), New(seed)
			p := identity(n)
			Shuffle(got, p)
			if want := refPerm(ref, n); !slices.Equal(p, want) {
				t.Fatalf("n=%d seed=%d: Shuffle differs from the reference permutation", n, seed)
			}
			if got.State() != ref.State() {
				t.Fatalf("n=%d seed=%d: state %#x after Shuffle, reference %#x", n, seed, got.State(), ref.State())
			}
		}
		var got, ref Rand // zero state: the first draw reseeds
		p := identity(n)
		Shuffle(&got, p)
		if want := refPerm(&ref, n); !slices.Equal(p, want) || got.State() != ref.State() {
			t.Fatalf("n=%d zero-valued generator: Shuffle differs from the reference", n)
		}
	}
}

// TestShuffleOfValues: shuffling values in place equals indexing them by
// the permutation Shuffle gives the identity, for any element type.
func TestShuffleOfValues(t *testing.T) {
	words := []string{"a", "b", "c", "d", "e", "f", "g"}
	p := identity(len(words))
	Shuffle(New(9), p)
	want := make([]string, len(words))
	for i, k := range p {
		want[i] = words[k]
	}
	Shuffle(New(9), words)
	if !slices.Equal(words, want) {
		t.Fatalf("shuffled values %v, want %v", words, want)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%64) + 1
		p := identity(n)
		Shuffle(New(seed), p)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUint64Uniformity(t *testing.T) {
	// Cheap chi-square-ish sanity check over 16 buckets.
	r := New(123)
	var buckets [16]int
	const n = 160000
	for i := 0; i < n; i++ {
		buckets[r.Uint64()>>60]++
	}
	for i, c := range buckets {
		if c < n/16-n/64 || c > n/16+n/64 {
			t.Errorf("bucket %d count %d far from expected %d", i, c, n/16)
		}
	}
}

// refBool is the float comparison Hit replaced: no draw for the certain
// outcomes, else Float64() < p.
func refBool(r *Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// checkProb draws n times against p with Hit(NewProb(p)), Bool(p) and the
// reference from three generators seeded alike: every result and every
// state after the call must agree.
func checkProb(t *testing.T, seed uint64, p float64, n int) {
	t.Helper()
	hit, b, ref := New(seed), New(seed), New(seed)
	q := NewProb(p)
	for i := 0; i < n; i++ {
		want := refBool(ref, p)
		if got := hit.Hit(q); got != want {
			t.Fatalf("p=%v (bits %#x) draw %d: Hit = %v, reference %v", p, math.Float64bits(p), i, got, want)
		}
		if got := b.Bool(p); got != want {
			t.Fatalf("p=%v (bits %#x) draw %d: Bool = %v, reference %v", p, math.Float64bits(p), i, got, want)
		}
		if hit.State() != ref.State() || b.State() != ref.State() {
			t.Fatalf("p=%v (bits %#x) draw %d: generator state diverged", p, math.Float64bits(p), i)
		}
	}
}

func TestHitMatchesFloatComparison(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -0.5, 1.5, -1, 2,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, 1e-310, 0x1p-1022, 0x1p-53, 0x1p-54,
		math.Nextafter(1, 0), math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		0.5, 0.3, 0.1, 0.9, 0.97, 0.999,
	}
	for _, p := range edges {
		checkProb(t, 5, p, 2000)
	}
	rng := New(99)
	for i := 0; i < 200; i++ {
		checkProb(t, rng.Uint64(), rng.Float64(), 200)
	}
}

// TestHitDrawsAtTheThreshold pins the threshold itself: NewProb(k/2^53) is
// k, so a draw of exactly k fails and k-1 succeeds, as Float64() < p does.
func TestHitDrawsAtTheThreshold(t *testing.T) {
	for _, k := range []uint64{1, 2, 3, 1 << 20, 1<<52 + 1, 1<<53 - 1} {
		q := NewProb(float64(k) / (1 << 53))
		if uint64(q) != k {
			t.Fatalf("NewProb(%d/2^53) threshold %d, want %d", k, uint64(q), k)
		}
	}
	if q := NewProb(math.NaN()); uint64(q) != 0 {
		t.Fatalf("NewProb(NaN) threshold %d, want 0 (draw, never hit)", uint64(q))
	}
}

func FuzzProb(f *testing.F) {
	for _, p := range []float64{0, 1, 0.5, math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64, math.Nextafter(1, 0), -3} {
		f.Add(math.Float64bits(p), uint64(1))
	}
	f.Fuzz(func(t *testing.T, bits, seed uint64) {
		checkProb(t, seed, math.Float64frombits(bits), 64)
	})
}
