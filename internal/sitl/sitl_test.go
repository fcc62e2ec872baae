package sitl

import (
	"math"
	"testing"

	"androne/internal/geo"
)

var home = geo.Position{LatLon: geo.LatLon{Lat: 43.6084298, Lon: -85.8110359}, Alt: 0}

func newSim() *Sim { return New(home, DefaultParams(), "test") }

// run steps the sim at the 400 Hz fast-loop rate for the given seconds.
func run(s *Sim, seconds float64) {
	const dt = 1.0 / 400
	for t := 0.0; t < seconds; t += dt {
		s.Step(dt)
	}
}

func TestAtRest(t *testing.T) {
	s := newSim()
	run(s, 1)
	if !s.OnGround() {
		t.Fatal("drone lifted with motors off")
	}
	p := s.Position()
	if geo.Distance(p.LatLon, home.LatLon) > 0.01 || p.Alt != 0 {
		t.Fatalf("drifted to %v", p)
	}
	// Only avionics draw.
	if pw := s.PowerW(); math.Abs(pw-DefaultParams().AvionicsW) > 0.01 {
		t.Fatalf("idle power = %g W", pw)
	}
}

func TestHoverThrustFrac(t *testing.T) {
	f := DefaultParams().HoverThrustFrac()
	if f < 0.3 || f > 0.7 {
		t.Fatalf("hover fraction = %g, want mid-stick", f)
	}
}

func TestTakeoffAndClimb(t *testing.T) {
	s := newSim()
	f := DefaultParams().HoverThrustFrac()
	s.SetMotors([4]float64{1.2 * f, 1.2 * f, 1.2 * f, 1.2 * f})
	run(s, 3)
	if s.OnGround() {
		t.Fatal("did not take off at 1.2x hover thrust")
	}
	if alt := s.AltitudeAGL(); alt < 3 {
		t.Fatalf("altitude after 3s = %g m", alt)
	}
	// Level attitude: symmetric thrust produces no torque.
	r, p, _ := s.Attitude()
	if math.Abs(r) > 0.01 || math.Abs(p) > 0.01 {
		t.Fatalf("attitude drifted: roll %g pitch %g", r, p)
	}
}

func TestMotorCutFallsToGround(t *testing.T) {
	s := newSim()
	f := DefaultParams().HoverThrustFrac()
	s.SetMotors([4]float64{1.3 * f, 1.3 * f, 1.3 * f, 1.3 * f})
	run(s, 3)
	alt := s.AltitudeAGL()
	if alt < 3 {
		t.Fatalf("setup: altitude %g", alt)
	}
	s.SetMotors([4]float64{})
	run(s, 10)
	if !s.OnGround() {
		t.Fatalf("still airborne at %g m with motors off", s.AltitudeAGL())
	}
	if s.AltitudeAGL() != 0 {
		t.Fatalf("resting below/above ground: %g", s.AltitudeAGL())
	}
}

func TestGroundIsFloor(t *testing.T) {
	s := newSim()
	run(s, 5)
	if alt := s.AltitudeAGL(); alt < 0 {
		t.Fatalf("fell through the ground: %g", alt)
	}
}

func TestRollTorqueSign(t *testing.T) {
	s := newSim()
	f := DefaultParams().HoverThrustFrac()
	// Left motors (1=BL, 2=FL) stronger: roll right (positive).
	s.SetMotors([4]float64{f * 1.2, f * 1.3, f * 1.3, f * 1.2})
	run(s, 0.3)
	roll, _, _ := s.Attitude()
	if roll <= 0 {
		t.Fatalf("roll = %g, want positive (right)", roll)
	}
}

func TestPitchTorqueSign(t *testing.T) {
	s := newSim()
	f := DefaultParams().HoverThrustFrac()
	// Front motors (0=FR, 2=FL) stronger: pitch up (positive).
	s.SetMotors([4]float64{f * 1.3, f * 1.2, f * 1.3, f * 1.2})
	run(s, 0.3)
	_, pitch, _ := s.Attitude()
	if pitch <= 0 {
		t.Fatalf("pitch = %g, want positive (nose up)", pitch)
	}
}

func TestYawTorqueSign(t *testing.T) {
	s := newSim()
	f := DefaultParams().HoverThrustFrac()
	// CCW rotors (0, 1) stronger: body yaws clockwise (positive r, z down).
	s.SetMotors([4]float64{f * 1.4, f * 1.4, f * 1.0, f * 1.0})
	run(s, 0.5)
	_, _, gz := s.GyroBody()
	if gz <= 0 {
		t.Fatalf("yaw rate = %g, want positive", gz)
	}
}

func TestTiltProducesHorizontalMotion(t *testing.T) {
	s := newSim()
	f := DefaultParams().HoverThrustFrac()
	up := [4]float64{1.3 * f, 1.3 * f, 1.3 * f, 1.3 * f}
	s.SetMotors(up)
	run(s, 2)
	// Pitch nose down briefly (back motors stronger), then hold level.
	s.SetMotors([4]float64{1.25 * f, 1.35 * f, 1.25 * f, 1.35 * f})
	run(s, 0.2)
	s.SetMotors(up)
	run(s, 2)
	n, _ := s.NE()
	if n <= 0.5 {
		t.Fatalf("north displacement = %g, want forward motion after nose-down", n)
	}
}

func TestHoverPowerRealistic(t *testing.T) {
	s := newSim()
	f := DefaultParams().HoverThrustFrac()
	s.SetMotors([4]float64{f, f, f, f})
	run(s, 3)
	pw := s.PowerW()
	// F450-class hover draw: roughly 100-250 W.
	if pw < 100 || pw > 250 {
		t.Fatalf("hover power = %g W", pw)
	}
	// Endurance = battery / hover power: consumer drones fly ~15-30 min.
	endurance := DefaultParams().BatteryJ / pw / 60
	if endurance < 12 || endurance > 35 {
		t.Fatalf("hover endurance = %g min", endurance)
	}
}

func TestEnergyMonotonic(t *testing.T) {
	s := newSim()
	f := DefaultParams().HoverThrustFrac()
	s.SetMotors([4]float64{f, f, f, f})
	prev := 0.0
	for i := 0; i < 400; i++ {
		s.Step(1.0 / 400)
		if e := s.EnergyUsedJ(); e < prev {
			t.Fatalf("energy decreased: %g -> %g", prev, e)
		} else {
			prev = e
		}
	}
	if prev <= 0 {
		t.Fatal("no energy consumed while flying")
	}
}

func TestBatteryModel(t *testing.T) {
	s := newSim()
	if v := s.BatteryVoltage(); v < 12.4 || v > 12.7 {
		t.Fatalf("full battery voltage = %g", v)
	}
	if soc := s.BatteryRemaining(); soc != 1 {
		t.Fatalf("initial soc = %g", soc)
	}
	f := DefaultParams().HoverThrustFrac()
	s.SetMotors([4]float64{1.1 * f, 1.1 * f, 1.1 * f, 1.1 * f})
	run(s, 30)
	if soc := s.BatteryRemaining(); soc >= 1 || soc < 0.9 {
		t.Fatalf("soc after 30 s flight = %g", soc)
	}
	if v := s.BatteryVoltage(); v >= 12.6 {
		t.Fatalf("voltage did not sag under load: %g", v)
	}
}

func TestWindDrift(t *testing.T) {
	s := newSim()
	s.SetWind(3, 0, 0) // 3 m/s from the south pushing north
	f := DefaultParams().HoverThrustFrac()
	s.SetMotors([4]float64{1.05 * f, 1.05 * f, 1.05 * f, 1.05 * f})
	run(s, 5)
	n, e := s.NE()
	if n <= 1 {
		t.Fatalf("north drift = %g, want downwind motion", n)
	}
	if math.Abs(e) > math.Abs(n)/2 {
		t.Fatalf("east drift %g exceeds half of north drift %g", e, n)
	}
}

func TestDeterminism(t *testing.T) {
	s1, s2 := New(home, DefaultParams(), "same"), New(home, DefaultParams(), "same")
	f := DefaultParams().HoverThrustFrac()
	for _, s := range []*Sim{s1, s2} {
		s.SetWind(1, -1, 0.5)
		s.SetMotors([4]float64{1.2 * f, 1.2 * f, 1.2 * f, 1.2 * f})
	}
	run(s1, 2)
	run(s2, 2)
	p1, p2 := s1.Position(), s2.Position()
	if p1 != p2 {
		t.Fatalf("same seed diverged: %v vs %v", p1, p2)
	}
	if s1.EnergyUsedJ() != s2.EnergyUsedJ() {
		t.Fatal("energy diverged")
	}
}

func TestAccelBodyAtRest(t *testing.T) {
	s := newSim()
	run(s, 0.5)
	ax, ay, az := s.AccelBody()
	if math.Abs(ax) > 1e-6 || math.Abs(ay) > 1e-6 {
		t.Fatalf("lateral accel at rest: %g %g", ax, ay)
	}
	if math.Abs(az+Gravity) > 1e-6 {
		t.Fatalf("accelZ at rest = %g, want %g", az, -Gravity)
	}
}

func TestNowAdvances(t *testing.T) {
	s := newSim()
	t0 := s.Now()
	run(s, 1)
	dt := s.Now().Sub(t0)
	if dt.Seconds() < 0.99 || dt.Seconds() > 1.01 {
		t.Fatalf("sim clock advanced %v for 1s of steps", dt)
	}
}

func TestZeroStepIgnored(t *testing.T) {
	s := newSim()
	before := s.Now()
	s.Step(0)
	s.Step(-1)
	if !s.Now().Equal(before) {
		t.Fatal("non-positive dt advanced the clock")
	}
}

func TestPositionGeodesy(t *testing.T) {
	s := newSim()
	f := DefaultParams().HoverThrustFrac()
	up := [4]float64{1.3 * f, 1.3 * f, 1.3 * f, 1.3 * f}
	s.SetMotors(up)
	run(s, 2)
	s.SetWind(5, 0, 0)
	run(s, 5)
	p := s.Position()
	if p.Lat <= home.Lat {
		t.Fatalf("northward drift did not increase latitude: %v", p)
	}
	n, _ := s.NE()
	if d := geo.Distance(home.LatLon, p.LatLon); math.Abs(d-n) > 0.1*n+0.5 {
		t.Fatalf("geodesy inconsistent: NE north %g m vs distance %g m", n, d)
	}
}

func TestSetWindForExpires(t *testing.T) {
	s := newSim()
	f := DefaultParams().HoverThrustFrac()
	s.SetMotors([4]float64{1.05 * f, 1.05 * f, 1.05 * f, 1.05 * f})
	s.SetWindFor(5, 0, 0, 3) // 3 s squall
	run(s, 3.5)
	n1, _ := s.NE()
	if n1 < 1 {
		t.Fatalf("squall had no effect: drift %.2f m", n1)
	}
	// After expiry the air is calm: drift stops growing (drag decays the
	// velocity the squall imparted).
	run(s, 6)
	vn, _, _ := s.VelocityNED()
	if math.Abs(vn) > 1.5 {
		t.Fatalf("wind still pushing after expiry: vn = %.2f", vn)
	}
	// SetWind cancels any pending expiry.
	s.SetWind(3, 0, 0)
	run(s, 10)
	vn, _, _ = s.VelocityNED()
	if vn < 1 {
		t.Fatalf("unbounded wind expired: vn = %.2f", vn)
	}
}

func TestBatteryDepletion(t *testing.T) {
	p := DefaultParams()
	p.BatteryJ = 2000 // tiny pack
	s := New(home, p, "deplete")
	f := p.HoverThrustFrac()
	s.SetMotors([4]float64{1.1 * f, 1.1 * f, 1.1 * f, 1.1 * f})
	run(s, 30)
	if soc := s.BatteryRemaining(); soc != 0 {
		t.Fatalf("soc = %g, want clamped 0", soc)
	}
	if v := s.BatteryVoltage(); v < 8 || v > 10.5 {
		t.Fatalf("depleted voltage = %g", v)
	}
	if s.Params().BatteryJ != 2000 {
		t.Fatal("Params accessor")
	}
	if s.Home() != home {
		t.Fatal("Home accessor")
	}
}

func TestMotorHealthBounds(t *testing.T) {
	s := newSim()
	s.SetMotorHealth(-1, 0.5) // out of range: ignored
	s.SetMotorHealth(7, 0.5)
	f := DefaultParams().HoverThrustFrac()
	s.SetMotors([4]float64{1.2 * f, 1.2 * f, 1.2 * f, 1.2 * f})
	run(s, 2)
	if s.OnGround() {
		t.Fatal("out-of-range health injection affected motors")
	}
	// Clamped health: eff > 1 behaves as 1.
	s2 := newSim()
	s2.SetMotorHealth(0, 5)
	s2.SetMotors([4]float64{1.2 * f, 1.2 * f, 1.2 * f, 1.2 * f})
	run(s2, 2)
	r, p, _ := s2.Attitude()
	if math.Abs(r) > 0.05 || math.Abs(p) > 0.05 {
		t.Fatalf("health clamp broken: roll %g pitch %g", r, p)
	}
}

// accelBodyFromScratch is AccelBody with every rotation term computed from
// the attitude itself, the form the cached trig must reproduce bit for bit.
func accelBodyFromScratch(s *Sim) (float64, float64, float64) {
	axw, ayw, azw := s.an, s.ae, s.ad-Gravity
	cr, sr := math.Cos(s.roll), math.Sin(s.roll)
	cp, sp := math.Cos(s.pitch), math.Sin(s.pitch)
	cy, sy := math.Cos(s.yaw), math.Sin(s.yaw)
	bx := cy*cp*axw + sy*cp*ayw - sp*azw
	by := (cy*sp*sr-sy*cr)*axw + (sy*sp*sr+cy*cr)*ayw + cp*sr*azw
	bz := (cy*sp*cr+sy*sr)*axw + (sy*sp*cr-cy*sr)*ayw + cp*cr*azw
	return bx, by, bz
}

// TestAttitudeTrigCacheExact checks the shared attitude trig after every
// Step of two scripted flights: AccelBody must equal the from-scratch
// rotation bit for bit, and the cache must equal math.Cos, math.Sin and
// math.Tan of the attitude. The tumble climbs while rolling, pitching and
// yawing, then cuts the motors; the survey takes off, transits tilted,
// rides a gusting squall, and lands under a differential thrust. Both end
// with the ground-contact clamp levelling a tilted airframe, the one
// writer of the attitude besides the kinematics.
func TestAttitudeTrigCacheExact(t *testing.T) {
	const dt = 1.0 / 400
	f := DefaultParams().HoverThrustFrac()
	scripts := []struct {
		name  string
		steps int
		gusts bool
		at    func(s *Sim, i int)
	}{
		{"tumble", 8 * 400, false, func(s *Sim, i int) {
			switch i {
			case 0: // climb while rolling, pitching and yawing
				s.SetMotors([4]float64{1.25 * f, 1.35 * f, 1.4 * f, 1.2 * f})
			case 400: // cut the motors and fall back
				s.SetMotors([4]float64{})
			}
		}},
		{"survey", 12 * 400, true, func(s *Sim, i int) {
			switch i {
			case 0: // take off level
				s.SetMotors([4]float64{1.2 * f, 1.2 * f, 1.2 * f, 1.2 * f})
			case 2 * 400: // nose down into a transit
				s.SetMotors([4]float64{1.02 * f, 1.08 * f, 1.02 * f, 1.08 * f})
			case 2*400 + 80: // hold the tilt
				s.SetMotors([4]float64{1.05 * f, 1.05 * f, 1.05 * f, 1.05 * f})
			case 3 * 400: // a gusting squall
				s.SetWindFor(4, -3, 1.5, 3)
			case 5 * 400: // descend, still banked, onto the ground
				s.SetMotors([4]float64{0.85 * f, 0.9 * f, 0.9 * f, 0.85 * f})
			}
		}},
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			s := newSim()
			check := func(i int) {
				t.Helper()
				bx, by, bz := s.AccelBody()
				wx, wy, wz := accelBodyFromScratch(s)
				for j, pair := range [3][2]float64{{bx, wx}, {by, wy}, {bz, wz}} {
					if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
						t.Fatalf("step %d: AccelBody[%d] = %v, from scratch %v", i, j, pair[0], pair[1])
					}
				}
				for j, pair := range [7][2]float64{
					{s.cr, math.Cos(s.roll)}, {s.sr, math.Sin(s.roll)},
					{s.cp, math.Cos(s.pitch)}, {s.sp, math.Sin(s.pitch)},
					{s.cy, math.Cos(s.yaw)}, {s.sy, math.Sin(s.yaw)},
					{s.tp, math.Tan(s.pitch)},
				} {
					if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
						t.Fatalf("step %d: cached trig term %d = %v, want %v", i, j, pair[0], pair[1])
					}
				}
			}
			check(-1)
			flew, gusted, clampedTilt := false, false, false
			for i := 0; i < sc.steps; i++ {
				sc.at(s, i)
				tilted := s.roll != 0 || s.pitch != 0
				s.Step(dt)
				flew = flew || s.AltitudeAGL() > 1
				gusted = gusted || s.gustN != 0
				if tilted && s.OnGround() && s.roll == 0 && s.pitch == 0 {
					clampedTilt = true
				}
				check(i)
			}
			if !flew {
				t.Fatal("the flight never left the ground; the test missed its case")
			}
			if !clampedTilt {
				t.Fatal("the ground-contact clamp never levelled a tilted airframe; the test missed its case")
			}
			if sc.gusts && !gusted {
				t.Fatal("the squall never gusted; the test missed its case")
			}
		})
	}
}

// TestStoppedMotorThrustReachesZero checks that a stopped motor's lagged
// thrust goes to exactly zero instead of decaying into subnormal floats.
func TestStoppedMotorThrustReachesZero(t *testing.T) {
	s := newSim()
	f := DefaultParams().HoverThrustFrac()
	s.SetMotors([4]float64{1.2 * f, 1.2 * f, 1.2 * f, 1.2 * f})
	run(s, 2)
	s.SetMotors([4]float64{})
	for i := 0; i < 2*400; i++ {
		s.Step(1.0 / 400)
		for m, th := range s.motorThrust {
			if th != 0 && th < 0x1p-1022 {
				t.Fatalf("step %d: motor %d thrust %v is subnormal", i, m, th)
			}
		}
	}
	if s.motorThrust != [4]float64{} {
		t.Fatalf("thrust %v two seconds after the cut, want exactly zero", s.motorThrust)
	}
	if pw := s.PowerW(); pw != DefaultParams().AvionicsW {
		t.Fatalf("stopped power = %v, want the avionics draw %v", pw, DefaultParams().AvionicsW)
	}
}
