package detmath

import (
	"math"
	"math/rand/v2"
	"testing"
)

// repeatCase is one RepeatAdd input.
type repeatCase struct {
	x, d float64
	n    int
}

// repeatSpecialCases are the fixed inputs: the fast loop's clock and the
// parked avionics draw over a pre- plus post-flight hold, ties, subnormal
// grids, the top binade's overflow to +Inf, and the inputs the closed form
// hands to the literal loop.
func repeatSpecialCases() []repeatCase {
	const dt = 1.0 / 400
	const hold = 1_680_000 // (3600 s + 600 s) at 400 Hz
	inf, nan := math.Inf(1), math.NaN()
	return []repeatCase{
		{0, dt, hold},
		{3600.5, dt, 239_480},
		{0, 3.4 * dt, hold},
		{12_345.678, 3.4 * dt, 239_480},
		{1, 0x1p-53, 1000},            // d = u/2: tie on every add
		{1 + 0x1p-52, 0x1p-53, 1000},  // tie from an odd mantissa
		{1, 0x1p-53 + 0x1p-105, 1000}, // just above the tie
		{1, 0x1p-54, 1000},            // rounds back to x
		{1, 3 * 0x1p-53, 1 << 20},     // tie of q+½ with q = 1
		{0, math.SmallestNonzeroFloat64, 5000},
		{0x1p-1060, 0x1p-1070, 5000},
		{math.Float64frombits(0x000ffffffffffff0), 0x1p-1073, 100}, // subnormal into normal
		{math.MaxFloat64, 0x1p970, 3},                              // tie at the top
		{math.MaxFloat64, 0x1p970 + 0x1p918, 3},
		{0x1p1023, 0x1p1020, 20}, // overflows to +Inf
		{-1, dt, 2000},           // negative x crosses zero
		{-0.0, dt, 10},
		{1, -dt, 100}, // d < 0
		{1, 0, 10},
		{-0.0, 0, 10},
		{-0.0, math.Copysign(0, -1), 10},
		{nan, dt, 10},
		{1, nan, 10},
		{inf, dt, 10},
		{-inf, dt, 10},
		{1, inf, 10},
		{inf, -inf, 10},
		{1, dt, 0},
		{1, dt, -5},
	}
}

// randomRepeatCase draws one case from seven classes: random binades with
// d spanning 2⁻⁶⁰..2² of x, tie-constructed d = (q+½)·u, subnormal x and
// d, runs that start just below a power of two and cross it, the same
// with an increment of a few ulps so the last in-binade add lands on the
// boundary, the clock and energy accumulators at random offsets, and raw
// bit patterns (which reach negative, NaN and ±Inf inputs).
func randomRepeatCase(r *rand.Rand) repeatCase {
	n := r.IntN(1 << r.IntN(11))
	switch r.IntN(7) {
	case 0:
		x := math.Ldexp(1+r.Float64(), r.IntN(2000)-1000)
		return repeatCase{x, math.Ldexp(x*(1+r.Float64()), -r.IntN(62)), n}
	case 1:
		e := r.IntN(200) - 100
		u := math.Ldexp(1, e-52)
		x := math.Ldexp(1+r.Float64(), e)
		q := float64(r.IntN(1 << r.IntN(20)))
		return repeatCase{x, (q + 0.5) * u, n}
	case 2:
		x := math.Float64frombits(r.Uint64N(1 << 53))
		d := math.Float64frombits(1 + r.Uint64N(1<<r.IntN(54)))
		return repeatCase{x, d, n}
	case 3:
		e := r.IntN(100) - 50
		d := math.Ldexp(1+r.Float64(), e-1-r.IntN(20))
		x := math.Ldexp(1, e) - d*float64(r.IntN(64))
		return repeatCase{x, d, n}
	case 4:
		e := r.IntN(200) - 100
		u := math.Ldexp(1, e-52)
		q := float64(1 + r.IntN(8))
		x := math.Ldexp(1, e+1) - u*float64(1+r.IntN(32))
		return repeatCase{x, (q + r.Float64() - 0.5) * u, r.IntN(64)}
	case 5:
		if r.IntN(2) == 0 {
			return repeatCase{r.Float64() * 5000, 1.0 / 400, n}
		}
		return repeatCase{r.Float64() * 20_000, (1 + r.Float64()*400) * (1.0 / 400), n}
	default:
		return repeatCase{math.Float64frombits(r.Uint64()), math.Float64frombits(r.Uint64()), n}
	}
}

// checkRepeat reports a RepeatAdd result that differs from the loop.
func checkRepeat(t *testing.T, c repeatCase) bool {
	t.Helper()
	got, want := RepeatAdd(c.x, c.d, c.n), repeatAddLoop(c.x, c.d, c.n)
	if sameFloat(got, want) {
		return true
	}
	t.Errorf("RepeatAdd(%v [%#x], %v [%#x], %d) = %v [%#x], loop gives %v [%#x]",
		c.x, math.Float64bits(c.x), c.d, math.Float64bits(c.d), c.n,
		got, math.Float64bits(got), want, math.Float64bits(want))
	return false
}

// TestRepeatAddMatchesLoop holds RepeatAdd to the literal n-fold add, bit
// for bit, over the special cases and a million seeded random ones.
func TestRepeatAddMatchesLoop(t *testing.T) {
	for _, c := range repeatSpecialCases() {
		checkRepeat(t, c)
	}
	r := rand.New(rand.NewPCG(18, 400))
	fails := 0
	for i := 0; i < 1_000_000; i++ {
		if !checkRepeat(t, randomRepeatCase(r)) {
			if fails++; fails >= 10 {
				t.Fatal("too many mismatches")
			}
		}
	}
}

// TestRepeatAddClosedForm checks that the workload's accumulators take
// the closed form rather than quietly falling back to the loop: the
// 1.68M-add clock crosses a few dozen binades.
func TestRepeatAddClosedForm(t *testing.T) {
	x, d, n := 0.0, 1.0/400, 1_680_000
	runs := 0
	for n > 0 {
		k, next := binadeRun(x, d, n)
		if k == 0 {
			x += d
			n--
		} else {
			x = next
			n -= k
		}
		runs++
	}
	if runs > 64 {
		t.Fatalf("clock replay took %d runs, want O(binades)", runs)
	}
}

// FuzzRepeatAdd explores (x, d, n) bit patterns for a RepeatAdd result
// that differs from the loop. n is a uint16 so each input runs quickly.
func FuzzRepeatAdd(f *testing.F) {
	f.Fuzz(func(t *testing.T, xb, db uint64, n uint16) {
		checkRepeat(t, repeatCase{math.Float64frombits(xb), math.Float64frombits(db), int(n)})
	})
}

// BenchmarkRepeatAdd replays the clock of a pre- plus post-flight hold.
func BenchmarkRepeatAdd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink += RepeatAdd(0, 1.0/400, 1_680_000)
	}
}

// BenchmarkRepeatAddLoop is the loop RepeatAdd replaces.
func BenchmarkRepeatAddLoop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink += repeatAddLoop(0, 1.0/400, 1_680_000)
	}
}
