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
// zeros, infinities, NaNs, subnormals, the small-angle bound and the
// reduction threshold 2²⁹ with their neighbours, and the octant boundaries
// k·π/4 where the reduced argument is smallest.
func specialInputs() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000000),
		math.SmallestNonzeroFloat64, 0x1p-1022, math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, 1e-300, 1e-8, 1e-7, 1e9,
	}
	for _, v := range []float64{smallAngle, reduceThreshold, 1e9} {
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

// TestSincosMatchesMath holds Sincos to math.Sincos bit for bit over ten
// million inputs.
func TestSincosMatchesMath(t *testing.T) {
	fails := 0
	forEachInput(matchInputs, func(x float64) {
		s, c := Sincos(x)
		ws, wc := math.Sincos(x)
		if sameFloat(s, ws) && sameFloat(c, wc) {
			return
		}
		if fails++; fails <= 10 {
			t.Errorf("Sincos(%v) [%#x] = (%v, %v), math gives (%v, %v)",
				x, math.Float64bits(x), s, c, ws, wc)
		}
	})
	if fails > 0 {
		t.Fatalf("%d inputs differ from math", fails)
	}
}

// TestSincosSmallAngles holds both forms to math on the arguments that skip
// the reduction: ±0, the smallest subnormals, the bound 0.785 and its float
// neighbours, π/4 and its neighbours, and four million seeded random
// arguments of both signs with a binade drawn uniformly from the
// subnormals up to the bound's, so every exponent of the small-angle path
// is exercised, not only those of attitude angles.
func TestSincosSmallAngles(t *testing.T) {
	xs := []float64{0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64, 0x1p-1022,
		smallAngle, math.Nextafter(smallAngle, 0), math.Nextafter(smallAngle, 1),
		math.Pi / 4, math.Nextafter(math.Pi/4, 0), math.Nextafter(math.Pi/4, 1), 0.35, 1.2}
	r := rand.New(rand.NewPCG(35, 785))
	for i := 0; i < 4_000_000; i++ {
		x := math.Ldexp(1+r.Float64(), -1-r.IntN(1075)) // [2⁻¹⁰⁷⁵, 1): subnormals round
		if x >= smallAngle {
			x = r.Float64() * smallAngle
		}
		xs = append(xs, x)
	}
	fails := 0
	for _, x := range xs {
		for _, x := range [2]float64{x, -x} {
			s, c := Sincos(x)
			ws, wc := math.Sincos(x)
			s3, c3, tn := SincosTan(x)
			if sameFloat(s, ws) && sameFloat(c, wc) &&
				sameFloat(s3, math.Sin(x)) && sameFloat(c3, math.Cos(x)) && sameFloat(tn, math.Tan(x)) {
				continue
			}
			if fails++; fails <= 10 {
				t.Errorf("x = %v [%#x]: Sincos (%v, %v), SincosTan (%v, %v, %v); math gives (%v, %v, %v)",
					x, math.Float64bits(x), s, c, s3, c3, tn, ws, wc, math.Tan(x))
			}
		}
	}
	if fails > 0 {
		t.Fatalf("%d inputs differ from math", fails)
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

// BenchmarkSincos times Sincos on a small attitude angle.
func BenchmarkSincos(b *testing.B) {
	x := 0.3
	for i := 0; i < b.N; i++ {
		s, c := Sincos(x)
		sink += s + c
		x += 1e-9
	}
}

// BenchmarkMathSincos is the call Sincos replaces.
func BenchmarkMathSincos(b *testing.B) {
	x := 0.3
	for i := 0; i < b.N; i++ {
		s, c := math.Sincos(x)
		sink += s + c
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
