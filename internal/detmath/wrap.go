package detmath

import "math"

// wrapLimit bounds the angles WrapPi wraps by whole turns: within it the
// loop takes at most eight, and returns what the simulation's loop always
// has, bit for bit.
const wrapLimit = 17 * math.Pi

// WrapPi wraps a into [−π, π]. Within ±wrapLimit it adds or subtracts 2π
// a turn at a time, as the flight stack always has, so every result there
// is unchanged. Beyond it, where that loop would run for billions of turns
// or (from about 2⁵⁶, where a − 2π rounds back to a) forever, it reduces
// a by math.Remainder. NaN and ±Inf give NaN. An angle already in range
// is returned inline; the rest take wrapTurns, out of line.
func WrapPi(a float64) float64 {
	if a >= -math.Pi && a <= math.Pi {
		return a
	}
	return wrapTurns(a)
}

// wrapTurns is WrapPi outside [−π, π].
//
//go:noinline
func wrapTurns(a float64) float64 {
	if !(a >= -wrapLimit && a <= wrapLimit) {
		// The nearest multiple of 2π taken off: |result| ≤ π.
		return math.Remainder(a, 2*math.Pi)
	}
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a < -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
