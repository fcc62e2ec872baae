package detmath

import (
	"math"
	"testing"
)

// wrapLoop is the wrap the flight stack ran before WrapPi: one turn per
// iteration, without bound.
func wrapLoop(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a < -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// TestWrapPiMatchesLoopWithinLimit holds WrapPi to the loop it replaces,
// bit for bit, over the angles within ±wrapLimit.
func TestWrapPiMatchesLoopWithinLimit(t *testing.T) {
	check := func(a float64) {
		if got, want := WrapPi(a), wrapLoop(a); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("WrapPi(%v) = %v, loop %v", a, got, want)
		}
	}
	for _, a := range []float64{0, math.Copysign(0, -1), math.Pi, -math.Pi, math.Nextafter(math.Pi, 4),
		3 * math.Pi, -3 * math.Pi, wrapLimit, -wrapLimit, math.Nextafter(wrapLimit, 0), 1e-300} {
		check(a)
	}
	for i := -200000; i <= 200000; i++ {
		check(float64(i) * wrapLimit / 200000)
	}
}

// TestWrapPiBounded checks the far, infinite and NaN angles: each returns
// at once, inside [−π, π] (NaN for NaN and ±Inf), and a finite angle's
// result is the angle less a whole number of turns.
func TestWrapPiBounded(t *testing.T) {
	for _, a := range []float64{math.Nextafter(wrapLimit, 100), 1e12, 1e17, 0x1p56, 1e300, math.MaxFloat64, -1e13,
		-math.MaxFloat64} {
		got := WrapPi(a)
		if !(got >= -math.Pi && got <= math.Pi) {
			t.Fatalf("WrapPi(%v) = %v, outside [-π, π]", a, got)
		}
		if a < 1e15 && a > -1e15 {
			turns := (a - got) / (2 * math.Pi)
			if math.Abs(turns-math.Round(turns)) > 1e-3 {
				t.Fatalf("WrapPi(%v) = %v, %v turns off", a, got, turns)
			}
		}
	}
	for _, a := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if got := WrapPi(a); !math.IsNaN(got) {
			t.Fatalf("WrapPi(%v) = %v, want NaN", a, got)
		}
	}
}
