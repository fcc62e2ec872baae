// Package geo provides the geodetic primitives AnDrone uses for waypoints,
// flight paths, and geofences: great-circle distance and bearing on the
// WGS-84 mean sphere, local tangent-plane (NED) conversions, and spherical
// geofence volumes centered on waypoints.
//
// Positions are expressed as latitude/longitude in degrees plus altitude in
// meters above the home (takeoff) plane, matching the virtual drone JSON
// specification in the paper (Figure 2).
package geo

import (
	"errors"
	"fmt"
	"math"
)

// EarthRadius is the mean Earth radius in meters (WGS-84 mean sphere).
const EarthRadius = 6371008.8

// LatLon is a geodetic coordinate in degrees.
type LatLon struct {
	Lat float64 `json:"latitude"`
	Lon float64 `json:"longitude"`
}

// Position is a 3D geodetic position: lat/lon plus altitude in meters above
// the home plane.
type Position struct {
	LatLon
	Alt float64 `json:"altitude"`
}

// Valid reports whether the coordinate is a real lat/lon pair.
func (p LatLon) Valid() bool {
	return !math.IsNaN(p.Lat) && !math.IsNaN(p.Lon) &&
		p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180
}

func (p LatLon) String() string {
	return fmt.Sprintf("%.7f,%.7f", p.Lat, p.Lon)
}

func deg2rad(d float64) float64 { return d * math.Pi / 180 }
func rad2deg(r float64) float64 { return r * 180 / math.Pi }

// Distance returns the great-circle distance in meters between two
// coordinates using the haversine formula, which is numerically stable for
// the short distances typical of drone flights.
func Distance(a, b LatLon) float64 {
	return haversine(a, b, CosLat(a), CosLat(b))
}

// CosLat returns the cosine of p's latitude, the per-point factor of the
// haversine that Distance3DCos takes precomputed.
func CosLat(p LatLon) float64 { return math.Cos(deg2rad(p.Lat)) }

// haversine is Distance given both points' CosLat.
func haversine(a, b LatLon, cosA, cosB float64) float64 {
	sLat := math.Sin(deg2rad(b.Lat-a.Lat) / 2)
	sLon := math.Sin(deg2rad(b.Lon-a.Lon) / 2)
	s := sLat*sLat + cosA*cosB*sLon*sLon
	return 2 * EarthRadius * math.Asin(math.Min(1, math.Sqrt(s)))
}

// Distance3D returns the 3D separation in meters between two positions:
// great-circle ground distance combined with the altitude difference.
func Distance3D(a, b Position) float64 {
	return Distance3DCos(a, b, CosLat(a.LatLon), CosLat(b.LatLon))
}

// Distance3DCos is Distance3D for a caller that holds cosA and cosB, the
// CosLat of a and b: it returns the same float64 without computing them,
// for callers that measure many legs between a fixed set of points.
func Distance3DCos(a, b Position, cosA, cosB float64) float64 {
	return math.Hypot(haversine(a.LatLon, b.LatLon, cosA, cosB), b.Alt-a.Alt)
}

// Bearing returns the initial great-circle bearing in degrees [0,360) from a
// to b.
func Bearing(a, b LatLon) float64 {
	la1, la2 := deg2rad(a.Lat), deg2rad(b.Lat)
	dLon := deg2rad(b.Lon - a.Lon)
	y := math.Sin(dLon) * math.Cos(la2)
	x := math.Cos(la1)*math.Sin(la2) - math.Sin(la1)*math.Cos(la2)*math.Cos(dLon)
	return Deg360(rad2deg(math.Atan2(y, x)))
}

// Deg360 wraps an angle in degrees into [0, 360): it returns exactly
// math.Mod(deg+360, 360), bit for bit, for every input. The headings the
// fast loop wraps come from angles in [−180°, 180°], so deg+360 lies in
// [180, 720), where the remainder is deg+360 itself or deg+360−360; that
// subtraction is exact (Sterbenz's lemma: 360 ≤ x < 720 ≤ 2·360), so the
// shortcut skips math.Mod's loop without changing a bit. Other inputs,
// NaN included, go to math.Mod.
func Deg360(deg float64) float64 {
	x := deg + 360
	if x >= 180 && x < 720 {
		if x >= 360 {
			return x - 360
		}
		return x
	}
	return math.Mod(x, 360)
}

// Offset returns the coordinate reached by traveling dist meters from p on
// the given initial bearing in degrees.
func Offset(p LatLon, bearingDeg, dist float64) LatLon {
	if dist == 0 {
		return p
	}
	la1 := deg2rad(p.Lat)
	lo1 := deg2rad(p.Lon)
	brg := deg2rad(bearingDeg)
	ad := dist / EarthRadius
	la2 := math.Asin(math.Sin(la1)*math.Cos(ad) + math.Cos(la1)*math.Sin(ad)*math.Cos(brg))
	lo2 := lo1 + math.Atan2(math.Sin(brg)*math.Sin(ad)*math.Cos(la1),
		math.Cos(ad)-math.Sin(la1)*math.Sin(la2))
	// Normalize longitude to [-180, 180].
	lon := math.Mod(rad2deg(lo2)+540, 360) - 180
	return LatLon{Lat: rad2deg(la2), Lon: lon}
}

// OffsetNE returns the coordinate displaced by north/east meters in the
// local tangent plane at p. This is the flat-earth approximation used by
// flight controllers for short distances.
func OffsetNE(p LatLon, north, east float64) LatLon {
	dLat := north / EarthRadius
	dLon := east / (EarthRadius * math.Cos(deg2rad(p.Lat)))
	return LatLon{Lat: p.Lat + rad2deg(dLat), Lon: p.Lon + rad2deg(dLon)}
}

// NE returns the north/east displacement in meters of b relative to a in
// a's local tangent plane.
func NE(a, b LatLon) (north, east float64) {
	north = deg2rad(b.Lat-a.Lat) * EarthRadius
	east = deg2rad(b.Lon-a.Lon) * EarthRadius * math.Cos(deg2rad(a.Lat))
	return north, east
}

// Waypoint is a location a virtual drone is to visit, with a max-radius in
// meters defining the spherical volume (geofence) around it, per the virtual
// drone JSON specification.
type Waypoint struct {
	Position
	MaxRadius float64 `json:"max-radius"`
}

// Validate checks that the waypoint is physically meaningful.
func (w Waypoint) Validate() error {
	if !w.Valid() {
		return fmt.Errorf("geo: invalid coordinates %v", w.LatLon)
	}
	if w.MaxRadius <= 0 {
		return fmt.Errorf("geo: max-radius must be positive, got %g", w.MaxRadius)
	}
	if w.Alt < 0 {
		return fmt.Errorf("geo: altitude must be non-negative, got %g", w.Alt)
	}
	return nil
}

// ErrOutsideFence is returned by Fence.Check for positions outside the fence.
var ErrOutsideFence = errors.New("geo: position outside geofence")

// Fence is a spherical geofence: a center position and a radius in meters.
// A drone under virtual drone control must remain inside the sphere.
type Fence struct {
	Center Position
	Radius float64
}

// FenceFor builds the geofence a waypoint defines.
func FenceFor(w Waypoint) Fence {
	return Fence{Center: w.Position, Radius: w.MaxRadius}
}

// Contains reports whether p lies inside the fence volume.
func (f Fence) Contains(p Position) bool {
	return Distance3D(f.Center, p) <= f.Radius
}

// Check returns ErrOutsideFence if p is outside the fence.
func (f Fence) Check(p Position) error {
	if !f.Contains(p) {
		return fmt.Errorf("%w: %.1fm from center (radius %.1fm)",
			ErrOutsideFence, Distance3D(f.Center, p), f.Radius)
	}
	return nil
}

// Margin returns the distance in meters from p to the fence boundary;
// positive inside, negative outside.
func (f Fence) Margin(p Position) float64 {
	return f.Radius - Distance3D(f.Center, p)
}

// ClosestInside returns the point inside the fence nearest to p. If p is
// already inside, p is returned unchanged. Otherwise the point is pulled to
// 90% of the radius along the center-to-p direction so that a recovered
// drone re-enters with margin, matching AnDrone's breach recovery which
// guides the drone back inside before returning control.
func (f Fence) ClosestInside(p Position) Position {
	d := Distance3D(f.Center, p)
	if d <= f.Radius {
		return p
	}
	frac := 0.9 * f.Radius / d
	north, east := NE(f.Center.LatLon, p.LatLon)
	ll := OffsetNE(f.Center.LatLon, north*frac, east*frac)
	alt := f.Center.Alt + (p.Alt-f.Center.Alt)*frac
	if alt < 0 {
		alt = 0
	}
	return Position{LatLon: ll, Alt: alt}
}

// Polygon is a closed lat/lon polygon used for survey areas (the app-args
// survey-areas in the virtual drone definition).
type Polygon []LatLon

// Contains reports whether p is inside the polygon using the winding test on
// the local tangent plane of the first vertex. Degenerate polygons (<3
// vertices) contain nothing.
func (poly Polygon) Contains(p LatLon) bool {
	if len(poly) < 3 {
		return false
	}
	ref := poly[0]
	px, py := NE(ref, p)
	inside := false
	j := len(poly) - 1
	for i := 0; i < len(poly); i++ {
		xi, yi := NE(ref, poly[i])
		xj, yj := NE(ref, poly[j])
		if (yi > py) != (yj > py) &&
			px < (xj-xi)*(py-yi)/(yj-yi)+xi {
			inside = !inside
		}
		j = i
	}
	return inside
}

// Centroid returns the arithmetic centroid of the polygon vertices. For the
// small, convex survey areas AnDrone deals in this is an adequate interior
// reference point.
func (poly Polygon) Centroid() LatLon {
	if len(poly) == 0 {
		return LatLon{}
	}
	var lat, lon float64
	for _, v := range poly {
		lat += v.Lat
		lon += v.Lon
	}
	n := float64(len(poly))
	return LatLon{Lat: lat / n, Lon: lon / n}
}

// Bounds returns the axis-aligned lat/lon bounding box of the polygon.
func (poly Polygon) Bounds() (min, max LatLon) {
	if len(poly) == 0 {
		return LatLon{}, LatLon{}
	}
	min, max = poly[0], poly[0]
	for _, v := range poly[1:] {
		min.Lat = math.Min(min.Lat, v.Lat)
		min.Lon = math.Min(min.Lon, v.Lon)
		max.Lat = math.Max(max.Lat, v.Lat)
		max.Lon = math.Max(max.Lon, v.Lon)
	}
	return min, max
}

// Lawnmower generates a boustrophedon ("lawnmower") sweep over the polygon's
// bounding box with the given track spacing in meters, returning the
// waypoint sequence a survey app flies. Tracks run east-west. Points outside
// the polygon are kept so the path remains continuous; callers that need
// strict containment can filter with Contains.
func (poly Polygon) Lawnmower(alt, spacing float64) []Position {
	if len(poly) < 3 || spacing <= 0 {
		return nil
	}
	min, max := poly.Bounds()
	northSpan, _ := NE(min, LatLon{Lat: max.Lat, Lon: min.Lon})
	var out []Position
	west := LatLon{Lat: min.Lat, Lon: min.Lon}
	east := LatLon{Lat: min.Lat, Lon: max.Lon}
	leftToRight := true
	for n := 0.0; n <= northSpan; n += spacing {
		w := OffsetNE(west, n, 0)
		e := OffsetNE(east, n, 0)
		if leftToRight {
			out = append(out, Position{LatLon: w, Alt: alt}, Position{LatLon: e, Alt: alt})
		} else {
			out = append(out, Position{LatLon: e, Alt: alt}, Position{LatLon: w, Alt: alt})
		}
		leftToRight = !leftToRight
	}
	return out
}

// PathLength returns the total length in meters of the polyline through the
// positions.
func PathLength(path []Position) float64 {
	var total float64
	for i := 1; i < len(path); i++ {
		total += Distance3D(path[i-1], path[i])
	}
	return total
}
