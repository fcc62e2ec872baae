package detmath

import (
	"math"
	"math/rand/v2"
	"testing"
)

// sameFloat reports whether a and b are the same float64, bit for bit,
// with any NaN matching any NaN: the fused forms hand NaN arguments to
// math, but math.Sincos itself returns math.NaN() rather than the
// argument's payload.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// specialInputs are the edge cases every equality test covers: signed
// zeros, infinities, NaNs, subnormals, the reduction threshold 2²⁹ with
// its neighbours, and the octant boundaries k·π/4 where the reduced
// argument is smallest.
func specialInputs() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
		math.SmallestNonzeroFloat64, 0x1p-1022, math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, 1e-300, 1e-8, 1e-7, 1e9,
	}
	for _, v := range []float64{reduceThreshold, 1e9} {
		xs = append(xs, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	for k := 1; k <= 64; k++ {
		v := float64(k) * math.Pi / 4
		xs = append(xs, v, math.Nextafter(v, 0), math.Nextafter(v, math.Inf(1)))
	}
	n := len(xs)
	for _, v := range xs[:n] {
		xs = append(xs, -v)
	}
	return xs
}

// forEachInput calls fn with the special inputs and then n seeded random
// inputs, in four classes: uniform attitude angles in [−π, π], tiny
// arguments down to the subnormals, uniform values in ±1e9 (across the
// 2²⁹ reduction threshold), and raw random bit patterns.
func forEachInput(n int, fn func(x float64)) {
	for _, x := range specialInputs() {
		fn(x)
	}
	r := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < n; i++ {
		var x float64
		switch i % 8 {
		case 0, 1, 2, 3:
			x = (2*r.Float64() - 1) * math.Pi
		case 4:
			x = math.Copysign(math.Pow(10, -320*r.Float64()), r.Float64()-0.5)
		case 5, 6:
			x = (2*r.Float64() - 1) * 1e9
		case 7:
			x = math.Float64frombits(r.Uint64())
		}
		fn(x)
	}
}

// matchInputs is how many random inputs the equality tests check.
const matchInputs = 10_000_000

// TestSincosTanMatchesMath holds SincosTan to math.Sin, math.Cos and
// math.Tan bit for bit over ten million inputs.
func TestSincosTanMatchesMath(t *testing.T) {
	fails := 0
	forEachInput(matchInputs, func(x float64) {
		s, c, tn := SincosTan(x)
		ws, wc, wt := math.Sin(x), math.Cos(x), math.Tan(x)
		if sameFloat(s, ws) && sameFloat(c, wc) && sameFloat(tn, wt) {
			return
		}
		if fails++; fails <= 10 {
			t.Errorf("SincosTan(%v) [%#x] = (%v, %v, %v), math gives (%v, %v, %v)",
				x, math.Float64bits(x), s, c, tn, ws, wc, wt)
		}
	})
	if fails > 0 {
		t.Fatalf("%d inputs differ from math", fails)
	}
}

// TestSincosMatchesSinCos pins, for this toolchain, the standard library
// equality the fast loop's Cos/Sin pairs rely on: math.Sincos(x) equals
// (math.Sin(x), math.Cos(x)) bit for bit.
func TestSincosMatchesSinCos(t *testing.T) {
	fails := 0
	forEachInput(matchInputs, func(x float64) {
		s, c := math.Sincos(x)
		ws, wc := math.Sin(x), math.Cos(x)
		if sameFloat(s, ws) && sameFloat(c, wc) {
			return
		}
		if fails++; fails <= 10 {
			t.Errorf("math.Sincos(%v) [%#x] = (%v, %v), Sin/Cos give (%v, %v)",
				x, math.Float64bits(x), s, c, ws, wc)
		}
	})
	if fails > 0 {
		t.Fatalf("%d inputs differ between Sincos and Sin/Cos", fails)
	}
}

// FuzzSincosTan explores argument bit patterns for a SincosTan result
// that differs from math.
func FuzzSincosTan(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		s, c, tn := SincosTan(x)
		ws, wc, wt := math.Sin(x), math.Cos(x), math.Tan(x)
		if !sameFloat(s, ws) || !sameFloat(c, wc) || !sameFloat(tn, wt) {
			t.Fatalf("SincosTan(%v) [%#x] = (%v, %v, %v), math gives (%v, %v, %v)",
				x, bits, s, c, tn, ws, wc, wt)
		}
	})
}

var sink float64

func BenchmarkSincosTan(b *testing.B) {
	x := 0.3
	for i := 0; i < b.N; i++ {
		s, c, tn := SincosTan(x)
		sink += s + c + tn
		x += 1e-9
	}
}

// BenchmarkSincosThenTan is the pair SincosTan replaces.
func BenchmarkSincosThenTan(b *testing.B) {
	x := 0.3
	for i := 0; i < b.N; i++ {
		s, c := math.Sincos(x)
		sink += s + c + math.Tan(x)
		x += 1e-9
	}
}
