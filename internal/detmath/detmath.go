// Package detmath holds faster forms of float computations on the
// simulation's deterministic path: fused forms of math package functions
// for the 400 Hz fast loop, RepeatAdd, the closed form of a repeated
// add that idle leaps replay, and WrapPi, the angle wrap of the flight
// stack and the physics. Each one returns exactly what the code it
// replaces would return, bit for bit (WrapPi within ±17π; beyond it the
// loop it replaces ran for billions of turns or forever), so the
// determinism contract (the pinned trace hashes) does not move when a
// caller switches to it. The saving is shared or skipped work, never a
// different approximation.
//
// The trig forms are ports of the Go standard library's portable
// implementations (math/sin.go, math/sincos.go, math/tan.go, themselves
// from the Cephes library), with the same constants and the same operation
// order. Both skip math's argument reduction for small angles: for
// 0 < |x| < smallAngle (0.785), x·(4/π) < 1, so math's octant is 0 and its
// reduced argument ((x − 0·π/4) − 0) − 0 is x itself, and the polynomials
// run on x directly. Round-to-nearest is sign-symmetric, so evaluating
// them on a negative x equals math's negation of the result for −x. The
// fast loop's roll and pitch stay inside that bound (the tilt limit is
// 0.35 rad); yaw often does not, and every argument outside it takes the
// full path. TestSincosTanMatchesMath and TestSincosMatchesMath hold them
// to the math package on the toolchain that builds them.
package detmath

import "math"

// smallAngle bounds the arguments that skip the reduction: below it,
// x·(4/π) rounds below 1 (0.785·(4/π) ≈ 0.99949), so math's octant is 0.
const smallAngle = 0.785

// reduceThreshold is math's limit for its Pi/4 Cody–Waite reduction;
// larger arguments take the Payne–Hanek path (math/trig_reduce.go).
const reduceThreshold = 1 << 29

// Pi/4 split into three parts, as in math's sin, cos and tan.
const (
	pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000
	pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
	pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170
)

// sin coefficients (math/sin.go).
var _sin = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

// cos coefficients (math/sin.go).
var _cos = [...]float64{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}

// tan coefficients (math/tan.go).
var _tanP = [...]float64{
	-1.30936939181383777646e4, // 0xc0c992d8d24f3f38
	1.15351664838587416140e6,  // 0x413199eca5fc9ddd
	-1.79565251976484877988e7, // 0xc1711fead3299176
}
var _tanQ = [...]float64{
	1.00000000000000000000e0,
	1.36812963470692954678e4,  // 0x40cab8a5eeb36572
	-1.32089234440210967447e6, // 0xc13427bc582abc96
	2.50083801823357915839e7,  // 0x4177d98fc2ead8ef
	-5.38695755929454629881e7, // 0xc189afe03cbe5a31
}

// Sincos returns math.Sincos(x), bit for bit. For 0 < |x| < smallAngle it
// evaluates math's polynomials on x without the reduction; every other
// argument (±0, NaN, ±Inf, |x| ≥ smallAngle) is handed to math.Sincos.
func Sincos(x float64) (sin, cos float64) {
	if !(x != 0 && math.Abs(x) < smallAngle) { // ±0, NaN, ±Inf, large
		return math.Sincos(x)
	}
	zz := x * x
	return sinPoly(x, zz), cosPoly(zz)
}

// sinPoly and cosPoly are math's sin and cos polynomials on a reduced
// argument z with zz = z·z, in math's operation order.
func sinPoly(z, zz float64) float64 {
	return z + z*zz*((((((_sin[0]*zz)+_sin[1])*zz+_sin[2])*zz+_sin[3])*zz+_sin[4])*zz+_sin[5])
}

func cosPoly(zz float64) float64 {
	return 1.0 - 0.5*zz + zz*zz*((((((_cos[0]*zz)+_cos[1])*zz+_cos[2])*zz+_cos[3])*zz+_cos[4])*zz+_cos[5])
}

// tanPoly is math's tan rational function on a reduced argument z.
func tanPoly(z, zz float64) float64 {
	if zz > 1e-14 {
		return z + z*(zz*(((_tanP[0]*zz)+_tanP[1])*zz+_tanP[2])/((((zz+_tanQ[1])*zz+_tanQ[2])*zz+_tanQ[3])*zz+_tanQ[4]))
	}
	return z
}

// SincosTan returns math.Sin(x), math.Cos(x) and math.Tan(x), bit for bit,
// from one argument reduction instead of three, and from none for
// 0 < |x| < smallAngle. ±0 returns (x, 1, x). NaN, ±Inf and |x| ≥ 2²⁹ are
// handed to the math package, so the rare Payne–Hanek reduction and NaN
// payloads are math's own.
func SincosTan(x float64) (sin, cos, tan float64) {
	if x == 0 {
		return x, 1, x
	}
	if math.Abs(x) < smallAngle {
		zz := x * x
		return sinPoly(x, zz), cosPoly(zz), tanPoly(x, zz)
	}
	if !(math.Abs(x) < reduceThreshold) { // NaN, ±Inf, huge
		return math.Sin(x), math.Cos(x), math.Tan(x)
	}

	// make argument positive
	sinSign, cosSign, tanSign := false, false, false
	if x < 0 {
		x = -x
		sinSign, tanSign = true, true
	}

	j := uint64(x * (4 / math.Pi)) // integer part of x/(Pi/4), as integer for tests on the phase angle
	y := float64(j)                // integer part of x/(Pi/4), as float

	if j&1 == 1 { // map zeros (and tan's singularities) to origin
		j++
		y++
	}
	j &= 7                                // octant modulo 2Pi radians (360 degrees)
	z := ((x - y*pi4A) - y*pi4B) - y*pi4C // Extended precision modular arithmetic
	zz := z * z

	// tan: period Pi, so only bit 1 of the octant matters.
	tan = tanPoly(z, zz)
	if j&2 == 2 {
		tan = -1 / tan
	}
	if tanSign {
		tan = -tan
	}

	// sin and cos, as math.Sincos.
	if j > 3 { // reflect in x axis
		j -= 4
		sinSign, cosSign = !sinSign, !cosSign
	}
	if j > 1 {
		cosSign = !cosSign
	}
	cos = cosPoly(zz)
	sin = sinPoly(z, zz)
	if j == 1 || j == 2 {
		sin, cos = cos, sin
	}
	if cosSign {
		cos = -cos
	}
	if sinSign {
		sin = -sin
	}
	return sin, cos, tan
}
