package geo

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// Paper Figure 2 coordinates: the construction-site survey example.
var (
	wp1 = LatLon{Lat: 43.6084298, Lon: -85.8110359}
	wp2 = LatLon{Lat: 43.6076409, Lon: -85.8154457}
)

func TestDistanceKnown(t *testing.T) {
	// The two example waypoints are a few hundred meters apart.
	d := Distance(wp1, wp2)
	if d < 300 || d > 500 {
		t.Fatalf("Distance(wp1, wp2) = %.1f m, want 300-500 m", d)
	}
	// A degree of latitude is ~111.2 km.
	d = Distance(LatLon{0, 0}, LatLon{1, 0})
	if math.Abs(d-111195) > 100 {
		t.Fatalf("1 degree latitude = %.0f m, want ~111195 m", d)
	}
}

func TestDistanceZero(t *testing.T) {
	if d := Distance(wp1, wp1); d != 0 {
		t.Fatalf("Distance(p, p) = %g, want 0", d)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	if err := quick.Check(func(a, b LatLon) bool {
		a, b = clampLL(a), clampLL(b)
		d1, d2 := Distance(a, b), Distance(b, a)
		return math.Abs(d1-d2) < 1e-6*(1+d1)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequality(t *testing.T) {
	if err := quick.Check(func(a, b, c LatLon) bool {
		a, b, c = clampLL(a), clampLL(b), clampLL(c)
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-6
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBearingCardinal(t *testing.T) {
	origin := LatLon{Lat: 43.6, Lon: -85.8}
	cases := []struct {
		name string
		to   LatLon
		want float64
	}{
		{"north", LatLon{Lat: 43.7, Lon: -85.8}, 0},
		{"south", LatLon{Lat: 43.5, Lon: -85.8}, 180},
		{"east", LatLon{Lat: 43.6, Lon: -85.7}, 90},
		{"west", LatLon{Lat: 43.6, Lon: -85.9}, 270},
	}
	for _, tc := range cases {
		got := Bearing(origin, tc.to)
		diff := math.Abs(got - tc.want)
		if diff > 180 {
			diff = 360 - diff
		}
		if diff > 0.2 {
			t.Errorf("%s: Bearing = %.2f, want %.2f", tc.name, got, tc.want)
		}
	}
}

func TestOffsetRoundTrip(t *testing.T) {
	// Offsetting then measuring distance/bearing recovers the inputs.
	if err := quick.Check(func(rawLat, rawLon, rawBrg, rawDist float64) bool {
		p := clampLL(LatLon{rawLat, rawLon})
		// Stay away from the poles where bearings degenerate.
		if math.Abs(p.Lat) > 80 {
			p.Lat = math.Mod(p.Lat, 80)
		}
		brg := math.Mod(math.Abs(rawBrg), 360)
		dist := math.Mod(math.Abs(rawDist), 5000) // drone-scale distances
		if dist < 1 {
			dist += 1
		}
		q := Offset(p, brg, dist)
		dErr := math.Abs(Distance(p, q) - dist)
		return dErr < 0.01*dist+0.5
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOffsetNEInverse(t *testing.T) {
	p := wp1
	for _, d := range [][2]float64{{100, 0}, {0, 100}, {-50, 75}, {300, -300}} {
		q := OffsetNE(p, d[0], d[1])
		n, e := NE(p, q)
		if math.Abs(n-d[0]) > 0.1 || math.Abs(e-d[1]) > 0.1 {
			t.Errorf("NE(OffsetNE(%v)) = (%.2f, %.2f), want (%.1f, %.1f)", d, n, e, d[0], d[1])
		}
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		p    LatLon
		want bool
	}{
		{LatLon{43.6, -85.8}, true},
		{LatLon{90, 180}, true},
		{LatLon{-90, -180}, true},
		{LatLon{91, 0}, false},
		{LatLon{0, 181}, false},
		{LatLon{math.NaN(), 0}, false},
		{LatLon{0, math.NaN()}, false},
	}
	for _, tc := range cases {
		if got := tc.p.Valid(); got != tc.want {
			t.Errorf("Valid(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestWaypointValidate(t *testing.T) {
	good := Waypoint{Position: Position{LatLon: wp1, Alt: 15}, MaxRadius: 30}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid waypoint rejected: %v", err)
	}
	bad := []Waypoint{
		{Position: Position{LatLon: LatLon{99, 0}, Alt: 15}, MaxRadius: 30},
		{Position: Position{LatLon: wp1, Alt: 15}, MaxRadius: 0},
		{Position: Position{LatLon: wp1, Alt: 15}, MaxRadius: -5},
		{Position: Position{LatLon: wp1, Alt: -1}, MaxRadius: 30},
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("bad waypoint %d accepted", i)
		}
	}
}

func TestFenceContains(t *testing.T) {
	w := Waypoint{Position: Position{LatLon: wp1, Alt: 15}, MaxRadius: 30}
	f := FenceFor(w)
	if !f.Contains(w.Position) {
		t.Fatal("fence does not contain its own center")
	}
	near := Position{LatLon: OffsetNE(wp1, 10, 10), Alt: 15}
	if !f.Contains(near) {
		t.Fatal("fence does not contain point 14m from center")
	}
	far := Position{LatLon: OffsetNE(wp1, 100, 0), Alt: 15}
	if f.Contains(far) {
		t.Fatal("fence contains point 100m from center")
	}
	// Altitude counts toward the sphere.
	high := Position{LatLon: wp1, Alt: 15 + 31}
	if f.Contains(high) {
		t.Fatal("fence contains point 31m above center")
	}
	if err := f.Check(far); err == nil {
		t.Fatal("Check(outside) = nil")
	} else if !IsOutsideFence(err) {
		t.Fatalf("Check(outside) = %v, want ErrOutsideFence", err)
	}
	if err := f.Check(near); err != nil {
		t.Fatalf("Check(inside) = %v", err)
	}
}

func TestFenceMargin(t *testing.T) {
	f := Fence{Center: Position{LatLon: wp1, Alt: 15}, Radius: 30}
	if m := f.Margin(f.Center); math.Abs(m-30) > 1e-9 {
		t.Fatalf("Margin(center) = %g, want 30", m)
	}
	out := Position{LatLon: OffsetNE(wp1, 40, 0), Alt: 15}
	if m := f.Margin(out); m >= 0 {
		t.Fatalf("Margin(outside) = %g, want negative", m)
	}
}

func TestClosestInside(t *testing.T) {
	f := Fence{Center: Position{LatLon: wp1, Alt: 15}, Radius: 30}
	inside := Position{LatLon: OffsetNE(wp1, 5, 5), Alt: 16}
	if got := f.ClosestInside(inside); got != inside {
		t.Fatalf("ClosestInside(inside point) moved the point: %v", got)
	}
	out := Position{LatLon: OffsetNE(wp1, 200, 100), Alt: 40}
	rec := f.ClosestInside(out)
	if !f.Contains(rec) {
		t.Fatalf("recovered point %v not inside fence", rec)
	}
	// Recovery should leave margin (90% of radius).
	if d := Distance3D(f.Center, rec); d > 0.95*f.Radius {
		t.Fatalf("recovered point at %.1fm, want <= %.1fm", d, 0.95*f.Radius)
	}
}

func TestClosestInsideProperty(t *testing.T) {
	f := Fence{Center: Position{LatLon: wp1, Alt: 15}, Radius: 30}
	if err := quick.Check(func(n, e, alt float64) bool {
		n = math.Mod(n, 2000)
		e = math.Mod(e, 2000)
		alt = math.Abs(math.Mod(alt, 500))
		p := Position{LatLon: OffsetNE(wp1, n, e), Alt: alt}
		return f.Contains(f.ClosestInside(p))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPolygonContains(t *testing.T) {
	// The Figure 2 survey area around waypoint 1.
	poly := Polygon{
		{43.6087619, -85.8104110},
		{43.6087968, -85.8109877},
		{43.6084570, -85.8110225},
		{43.6084240, -85.8104646},
	}
	if !poly.Contains(poly.Centroid()) {
		t.Fatal("polygon does not contain its centroid")
	}
	if poly.Contains(LatLon{43.7, -85.8}) {
		t.Fatal("polygon contains a point 10km away")
	}
	if (Polygon{}).Contains(LatLon{0, 0}) {
		t.Fatal("empty polygon contains a point")
	}
	if (Polygon{wp1, wp2}).Contains(wp1) {
		t.Fatal("degenerate 2-vertex polygon contains a point")
	}
}

func TestPolygonBounds(t *testing.T) {
	poly := Polygon{
		{43.6087619, -85.8104110},
		{43.6087968, -85.8109877},
		{43.6084570, -85.8110225},
	}
	min, max := poly.Bounds()
	if min.Lat > max.Lat || min.Lon > max.Lon {
		t.Fatalf("inverted bounds: %v %v", min, max)
	}
	for _, v := range poly {
		if v.Lat < min.Lat || v.Lat > max.Lat || v.Lon < min.Lon || v.Lon > max.Lon {
			t.Fatalf("vertex %v outside bounds", v)
		}
	}
}

func TestLawnmower(t *testing.T) {
	poly := Polygon{
		{43.6087619, -85.8104110},
		{43.6087968, -85.8109877},
		{43.6084570, -85.8110225},
		{43.6084240, -85.8104646},
	}
	path := poly.Lawnmower(15, 10)
	if len(path) < 4 {
		t.Fatalf("lawnmower produced %d points, want >= 4", len(path))
	}
	for i, p := range path {
		if p.Alt != 15 {
			t.Fatalf("point %d altitude %g, want 15", i, p.Alt)
		}
	}
	if PathLength(path) <= 0 {
		t.Fatal("lawnmower path has zero length")
	}
	if got := poly.Lawnmower(15, 0); got != nil {
		t.Fatal("zero spacing should produce nil path")
	}
	if got := (Polygon{wp1}).Lawnmower(15, 10); got != nil {
		t.Fatal("degenerate polygon should produce nil path")
	}
}

func TestPathLength(t *testing.T) {
	if l := PathLength(nil); l != 0 {
		t.Fatalf("PathLength(nil) = %g", l)
	}
	p := Position{LatLon: wp1, Alt: 0}
	q := Position{LatLon: wp1, Alt: 10}
	if l := PathLength([]Position{p, q}); math.Abs(l-10) > 1e-9 {
		t.Fatalf("vertical 10m path length = %g", l)
	}
}

// IsOutsideFence reports whether err wraps ErrOutsideFence; re-exported
// via errors.Is in tests to keep the public surface minimal.
func IsOutsideFence(err error) bool {
	for err != nil {
		if err == ErrOutsideFence {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func clampLL(p LatLon) LatLon {
	lat := math.Mod(p.Lat, 90)
	lon := math.Mod(p.Lon, 180)
	if math.IsNaN(lat) {
		lat = 0
	}
	if math.IsNaN(lon) {
		lon = 0
	}
	return LatLon{Lat: lat, Lon: lon}
}

// TestDeg360MatchesMod holds Deg360 to math.Mod(deg+360, 360) bit for bit
// (any NaN matching any NaN): yaw angles in [−π, π] converted to degrees
// as the magnetometer does, the edge values, and wide random inputs.
func TestDeg360MatchesMod(t *testing.T) {
	check := func(deg float64) {
		t.Helper()
		got, want := Deg360(deg), math.Mod(deg+360, 360)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("Deg360(%v) [%#x] = %v, math.Mod gives %v", deg, math.Float64bits(deg), got, want)
		}
	}
	edges := []float64{
		0, math.Copysign(0, -1), 180, -180, 360, -360, 540, 720,
		math.Pi * 180 / math.Pi, -math.Pi * 180 / math.Pi,
		1e-20, -1e-20, 1e-14, -1e-14, 2e-14, -2e-14, // deg+360 rounds to exactly 360
		math.Nextafter(-180, 0), math.Nextafter(-180, -360),
		math.Nextafter(360, 0), math.Nextafter(360, 720),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
	}
	for _, deg := range edges {
		check(deg)
	}
	r := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 1_000_000; i++ {
		yaw := (2*r.Float64() - 1) * math.Pi
		check(yaw * 180 / math.Pi)
		check((2*r.Float64() - 1) * 1e6)
		if i%16 == 0 { // math.Mod is slow on huge exponents
			check(math.Float64frombits(r.Uint64()))
		}
	}
}

// TestDistanceMatchesTwoSineForm holds Distance to the haversine that
// evaluates each half-angle sine twice, bit for bit: taking each sine once
// and squaring it multiplies the same two float64s.
func TestDistanceMatchesTwoSineForm(t *testing.T) {
	ref := func(a, b LatLon) float64 {
		la1, la2 := deg2rad(a.Lat), deg2rad(b.Lat)
		dLat := deg2rad(b.Lat - a.Lat)
		dLon := deg2rad(b.Lon - a.Lon)
		s := math.Sin(dLat/2)*math.Sin(dLat/2) +
			math.Cos(la1)*math.Cos(la2)*math.Sin(dLon/2)*math.Sin(dLon/2)
		return 2 * EarthRadius * math.Asin(math.Min(1, math.Sqrt(s)))
	}
	r := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 200_000; i++ {
		a := LatLon{Lat: r.Float64()*180 - 90, Lon: r.Float64()*360 - 180}
		b := OffsetNE(a, r.Float64()*4000-2000, r.Float64()*4000-2000)
		if i%4 == 0 {
			b = LatLon{Lat: r.Float64()*180 - 90, Lon: r.Float64()*360 - 180}
		}
		if got, want := Distance(a, b), ref(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Distance(%v, %v) = %v, two-sine form %v", a, b, got, want)
		}
	}
}
