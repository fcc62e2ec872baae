package detmath

import "math"

// RepeatAdd returns what n sequential float64 additions x += d leave in
// x, bit for bit, in time proportional to the binades x crosses rather
// than to n.
//
// Inside the binade [2ᵉ, 2ᵉ⁺¹) every float64 is an integer multiple of
// u = 2ᵉ⁻⁵². For x on that grid, while the exact sum x+d stays below 2ᵉ⁺¹,
// round-to-nearest returns the grid point nearest to x+d, which is
// x + round(d/u)·u: the increment does not depend on x. So the adds that
// stay inside one binade are a single integer add on the mantissa, and
// the one add that leaves it is done literally. An increment that rounds
// to zero makes x a fixed point for the rest of the run.
//
// The closed form needs that increment to be unambiguous and the grid to
// be the binade's. Every other case takes the literal add: a tie
// (d/u = q+½, where the parity of x's mantissa picks the result), zero
// or subnormal x, a step that overshoots the binade, negative or
// non-finite x, and d that is not positive and finite.
func RepeatAdd(x, d float64, n int) float64 {
	if !(d > 0 && d <= math.MaxFloat64) {
		return repeatAddLoop(x, d, n)
	}
	for n > 0 {
		if !(x >= 0 && x <= math.MaxFloat64) {
			return repeatAddLoop(x, d, n)
		}
		k, next := binadeRun(x, d, n)
		if k == 0 {
			x += d
			n--
			continue
		}
		x = next
		n -= k
	}
	return x
}

// binadeRun returns how many of the next n adds of d to x (x ≥ 0 finite,
// d > 0 finite) follow the binade's constant increment, at most n, and the
// value they leave. k is 0 when the next add must be done literally.
func binadeRun(x, d float64, n int) (k int, next float64) {
	const fracBits = 52
	b := math.Float64bits(x)
	exp := b >> fracBits
	if exp == 0 { // ±0 or subnormal
		return 0, x
	}
	// u = 2^(exp-1075), the spacing of floats in x's binade.
	var u float64
	if exp > fracBits {
		u = math.Float64frombits((exp - fracBits) << fracBits)
	} else {
		u = math.Float64frombits(1 << (exp - 1))
	}
	// d/u is exact, u being a power of two, unless it overflows (to +Inf,
	// caught here) or underflows (far below ½, so q is 0 either way).
	t := d / u
	if t >= 1<<(fracBits+1) {
		return 0, x // one add spans the binade
	}
	whole := math.Floor(t)
	frac := t - whole // exact for t < 2⁵³
	if frac == 0.5 {
		return 0, x // tie: the mantissa's parity decides
	}
	q := uint64(whole)
	if frac > 0.5 {
		q++
	}
	if q == 0 {
		return n, x // every add rounds back to x
	}
	// With mantissa m (x = m·u) and t = q + δ, |δ| < ½: while m + q < 2⁵³
	// the exact sum m + t stays below 2⁵³ − ½ and rounds to m + q. When
	// m + q = 2⁵³ it lies within ½ of 2⁵³, on either side, and rounds to
	// 2⁵³ on either grid (u below, 2u above): the next binade's first float,
	// or +Inf at the top. So the j-th add (j from 1) qualifies while
	// j·q ≤ 2⁵³ − m.
	m := b&(1<<fracBits-1) | 1<<fracBits
	room := uint64(1)<<(fracBits+1) - m
	steps := room / q
	if steps == 0 {
		return 0, x
	}
	if uint64(n) < steps {
		steps = uint64(n)
	}
	return int(steps), float64(m+steps*q) * u
}

// repeatAddLoop is the literal n-fold add.
func repeatAddLoop(x, d float64, n int) float64 {
	for i := 0; i < n; i++ {
		x += d
	}
	return x
}
