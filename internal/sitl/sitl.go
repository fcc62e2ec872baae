// Package sitl is AnDrone's software-in-the-loop quadcopter physics
// simulation, standing in for the paper's prototype hardware (DJI Flame
// Wheel F450 frame, four T-Motor MN2213 950Kv motors with 9.5" propellers,
// Turnigy 5000 mAh 3S battery) and for the ArduPilot SITL simulator used in
// the paper's §6.6 experiment.
//
// The model is a 6-DOF rigid body driven by four first-order-lag motors in
// an X configuration, with linear drag, an Ornstein-Uhlenbeck wind gust
// model, a momentum-theory power model (the same physics underlying the
// Dorling et al. energy model the flight planner uses), and a LiPo battery
// with voltage sag. It implements devices.WorldSource, so the device
// container's sensors read from it exactly as drivers read from hardware.
package sitl

import (
	"hash/fnv"
	"math"
	"time"

	"androne/internal/geo"
)

// Gravity is standard gravity in m/s^2.
const Gravity = 9.80665

// AirDensity is sea-level air density in kg/m^3.
const AirDensity = 1.225

// motorStopN is the thrust, in newtons, below which a motor whose target
// is zero counts as stopped and its thrust is set to exactly zero.
const motorStopN = 1e-9

// Params are the physical constants of the simulated quadcopter.
type Params struct {
	MassKg         float64 // all-up weight
	ArmLenM        float64 // motor arm length
	MaxMotorThrust float64 // newtons per motor at full command
	Ixx, Iyy, Izz  float64 // moments of inertia, kg m^2
	LinDrag        float64 // linear drag coefficient, N per (m/s)
	AngDrag        float64 // angular drag, N m per (rad/s)
	MotorTau       float64 // motor first-order lag time constant, s
	PropRadiusM    float64 // propeller radius
	YawTorqueCoef  float64 // N m of yaw torque per N of thrust
	Eta            float64 // overall powertrain efficiency (0..1)
	BatteryJ       float64 // usable battery energy, joules
	AvionicsW      float64 // constant avionics draw (SBC etc.), watts
}

// DefaultParams returns constants matching the paper's prototype: ~1.6 kg
// AUW, 0.225 m arms, ~8.5 N max thrust per motor, 9.5" props, and a
// 5000 mAh 3S battery (~200 kJ). Hover draw lands near 150 W, giving the
// ~20 minute flight time the paper cites for consumer drones.
func DefaultParams() Params {
	return Params{
		MassKg:         1.6,
		ArmLenM:        0.225,
		MaxMotorThrust: 8.5,
		Ixx:            0.02,
		Iyy:            0.02,
		Izz:            0.04,
		LinDrag:        0.35,
		AngDrag:        0.02,
		MotorTau:       0.05,
		PropRadiusM:    0.12,
		YawTorqueCoef:  0.016,
		Eta:            0.60,
		BatteryJ:       199800,
		AvionicsW:      3.4, // the fully stressed SBC draw measured in §6.4
	}
}

// HoverThrustFrac returns the per-motor command that balances gravity.
func (p Params) HoverThrustFrac() float64 {
	return p.MassKg * Gravity / 4 / p.MaxMotorThrust
}

// Sim is the quadcopter simulation. It has one owner: the goroutine that
// steps the drone also runs the flight controller and the device models
// that read from it, so no method takes a lock (DESIGN.md "Fleet scaling &
// hot-path concurrency").
type Sim struct {
	p    Params
	home geo.Position

	// State. NED frame relative to home; body frame x-forward y-right
	// z-down; attitude as roll/pitch/yaw Euler angles.
	n, e, d          float64 // position, meters (d negative above ground)
	vn, ve, vd       float64 // velocity, m/s
	roll, pitch, yaw float64
	p_, q_, r_       float64 // body rates, rad/s

	// Cosines and sines of roll, pitch and yaw, kept equal to math.Cos
	// and math.Sin of the current attitude: the end of Step refreshes
	// them, and the next Step's kinematics and AccelBody reuse them.
	cr, sr, cp, sp, cy, sy float64

	motorCmd    [4]float64 // commanded thrust fraction 0..1
	motorThrust [4]float64 // actual thrust, N (first-order lag)
	motorEff    [4]float64 // health factor 0..1 (failure injection), 0 value = 1

	// accelWorld is the most recent world-frame acceleration, for the
	// accelerometer model.
	an, ae, ad float64

	// Wind.
	windMeanN, windMeanE float64
	gustStd              float64
	gustN, gustE         float64
	windUntil            time.Time // if set, wind reverts to calm at this sim time

	// Battery.
	energyUsedJ float64
	powerW      float64

	// Clock.
	simTime  time.Time
	onGround bool

	rng *rng
}

// New creates a simulation at rest on the ground at home. seed makes wind
// and any stochastic behaviour reproducible.
func New(home geo.Position, p Params, seed string) *Sim {
	return &Sim{
		p:        p,
		home:     home,
		d:        0,
		cr:       1,
		cp:       1,
		cy:       1,
		onGround: true,
		simTime:  time.Unix(1700000000, 0),
		rng:      newRNG(seed),
	}
}

// SetMotors sets the four motor thrust commands, clamped to [0, 1]. Motor
// order is X configuration: 0 front-right, 1 back-left, 2 front-left,
// 3 back-right (ArduPilot numbering, zero-based).
func (s *Sim) SetMotors(cmd [4]float64) {
	for i, c := range cmd {
		s.motorCmd[i] = clamp(c, 0, 1)
	}
}

// SetMotorHealth injects a motor fault: eff is the motor's remaining thrust
// capability in (0, 1]; pass eff <= 0 for a complete failure. The failsafe
// reaction to such faults is the flight controller's job (on the prototype,
// the Navio2's on-board microcontroller failsafe).
func (s *Sim) SetMotorHealth(motor int, eff float64) {
	if motor < 0 || motor >= 4 {
		return
	}
	if eff <= 0 {
		s.motorEff[motor] = -1
	} else {
		s.motorEff[motor] = clamp(eff, 0.01, 1)
	}
}

// SetWind configures mean wind (north/east, m/s) and gust intensity.
func (s *Sim) SetWind(meanN, meanE, gustStd float64) {
	s.windMeanN, s.windMeanE, s.gustStd = meanN, meanE, gustStd
	s.windUntil = time.Time{}
}

// SetWindFor applies wind for a bounded sim-time duration, after which the
// air calms — a deterministic gust or squall, independent of how fast the
// simulation runs relative to wall clock.
func (s *Sim) SetWindFor(meanN, meanE, gustStd, seconds float64) {
	s.windMeanN, s.windMeanE, s.gustStd = meanN, meanE, gustStd
	s.windUntil = s.simTime.Add(time.Duration(seconds * float64(time.Second)))
}

// Step advances the simulation by dt seconds.
func (s *Sim) Step(dt float64) {
	if dt <= 0 {
		return
	}
	p := s.p

	// Motor lag toward command, derated by injected motor health.
	for i := range s.motorThrust {
		eff := s.motorEff[i]
		if eff == 0 {
			eff = 1 // zero value means healthy
		} else if eff < 0 {
			eff = 0 // fully failed
		}
		target := s.motorCmd[i] * p.MaxMotorThrust * eff
		alpha := dt / (p.MotorTau + dt)
		s.motorThrust[i] += alpha * (target - s.motorThrust[i])
		// A stopped motor's lag would otherwise decay into subnormal
		// floats, which every later step pays for in slow arithmetic.
		if target == 0 && s.motorThrust[i] < motorStopN {
			s.motorThrust[i] = 0
		}
	}
	f0, f1, f2, f3 := s.motorThrust[0], s.motorThrust[1], s.motorThrust[2], s.motorThrust[3]
	thrust := f0 + f1 + f2 + f3

	// Torques. Motor positions (x fwd, y right), a = arm/sqrt(2):
	//   0 FR (+a,+a) CCW, 1 BL (-a,-a) CCW, 2 FL (+a,-a) CW, 3 BR (-a,+a) CW.
	a := p.ArmLenM / math.Sqrt2
	tauX := a * (f1 + f2 - f0 - f3)               // roll: left motors up rolls right
	tauY := a * (f0 + f2 - f1 - f3)               // pitch: front motors up pitches up
	tauZ := p.YawTorqueCoef * (f0 + f1 - f2 - f3) // yaw reaction: CCW rotors yaw body CW

	// Angular dynamics with damping.
	s.p_ += dt * (tauX - p.AngDrag*s.p_*math.Abs(s.p_)*10 - 0.2*s.p_) / p.Ixx
	s.q_ += dt * (tauY - p.AngDrag*s.q_*math.Abs(s.q_)*10 - 0.2*s.q_) / p.Iyy
	s.r_ += dt * (tauZ - p.AngDrag*s.r_*math.Abs(s.r_)*10 - 0.2*s.r_) / p.Izz

	// Euler kinematics (well-conditioned away from ±90° pitch, which the
	// controller's tilt limits guarantee).
	cr, sr, cp := s.cr, s.sr, s.cp
	tp := math.Tan(s.pitch)
	s.roll += dt * (s.p_ + s.q_*sr*tp + s.r_*cr*tp)
	s.pitch += dt * (s.q_*cr - s.r_*sr)
	s.yaw += dt * (s.q_*sr/cp + s.r_*cr/cp)
	s.yaw = wrapPi(s.yaw)

	// A bounded squall expires on sim time.
	if !s.windUntil.IsZero() && s.simTime.After(s.windUntil) {
		s.windMeanN, s.windMeanE, s.gustStd = 0, 0, 0
		s.gustN, s.gustE = 0, 0
		s.windUntil = time.Time{}
	}

	// Wind gusts: Ornstein-Uhlenbeck with 2 s correlation time.
	if s.gustStd > 0 {
		tau := 2.0
		s.gustN += -s.gustN/tau*dt + s.gustStd*math.Sqrt(dt/tau)*s.rng.gauss()
		s.gustE += -s.gustE/tau*dt + s.gustStd*math.Sqrt(dt/tau)*s.rng.gauss()
	}
	windN := s.windMeanN + s.gustN
	windE := s.windMeanE + s.gustE

	// Linear dynamics. Body thrust is -z (up); rotate to world NED.
	cy, sy := math.Cos(s.yaw), math.Sin(s.yaw)
	cr, sr = math.Cos(s.roll), math.Sin(s.roll)
	cp, sp := math.Cos(s.pitch), math.Sin(s.pitch)
	s.cr, s.sr, s.cp, s.sp, s.cy, s.sy = cr, sr, cp, sp, cy, sy
	// Third column of the body-to-world rotation (ZYX Euler), times -T.
	fx := -(cy*sp*cr + sy*sr) * thrust
	fy := -(sy*sp*cr - cy*sr) * thrust
	fz := -(cp * cr) * thrust

	relVn, relVe := s.vn-windN, s.ve-windE
	s.an = (fx - p.LinDrag*relVn) / p.MassKg
	s.ae = (fy - p.LinDrag*relVe) / p.MassKg
	s.ad = (fz-p.LinDrag*s.vd)/p.MassKg + Gravity

	s.vn += dt * s.an
	s.ve += dt * s.ae
	s.vd += dt * s.ad
	s.n += dt * s.vn
	s.e += dt * s.ve
	s.d += dt * s.vd

	// Ground contact: the drone rests at d=0 and cannot descend below it.
	if s.d >= 0 {
		s.d = 0
		if s.vd > 0 {
			s.vd = 0
		}
		s.onGround = s.vd >= -1e-9 && thrust < p.MassKg*Gravity
		if s.onGround {
			// Friction kills horizontal motion and attitude settles level.
			s.vn, s.ve = 0, 0
			s.p_, s.q_, s.r_ = 0, 0, 0
			s.roll, s.pitch = 0, 0
			s.cr, s.sr, s.cp, s.sp = 1, 0, 1, 0
			s.an, s.ae, s.ad = 0, 0, 0
		}
	} else {
		s.onGround = false
	}

	// Power: momentum-theory induced power per rotor, f^(3/2)/sqrt(2 rho A),
	// divided by powertrain efficiency, plus constant avionics draw.
	area := math.Pi * p.PropRadiusM * p.PropRadiusM
	denom := math.Sqrt(2 * AirDensity * area)
	var pw float64
	for _, f := range s.motorThrust {
		if f > 0 {
			pw += f * math.Sqrt(f) / denom
		}
	}
	s.powerW = pw/p.Eta + p.AvionicsW
	s.energyUsedJ += s.powerW * dt

	s.simTime = s.simTime.Add(time.Duration(dt * float64(time.Second)))
}

// --------------------------------------------------------------------------
// devices.WorldSource

// Position returns the drone's geodetic position.
func (s *Sim) Position() geo.Position {
	ll := geo.OffsetNE(s.home.LatLon, s.n, s.e)
	return geo.Position{LatLon: ll, Alt: s.home.Alt - s.d}
}

// VelocityNED returns velocity in north/east/down m/s.
func (s *Sim) VelocityNED() (float64, float64, float64) { return s.vn, s.ve, s.vd }

// Attitude returns roll, pitch, yaw in radians.
func (s *Sim) Attitude() (float64, float64, float64) { return s.roll, s.pitch, s.yaw }

// AccelBody returns the accelerometer reading: body-frame specific force.
func (s *Sim) AccelBody() (float64, float64, float64) {
	// Specific force f = R^T (a - g) in NED (g = +Gravity down).
	axw, ayw, azw := s.an, s.ae, s.ad-Gravity
	cr, sr, cp, sp, cy, sy := s.cr, s.sr, s.cp, s.sp, s.cy, s.sy
	// R^T rows are R's columns (ZYX Euler body-to-world).
	bx := cy*cp*axw + sy*cp*ayw - sp*azw
	by := (cy*sp*sr-sy*cr)*axw + (sy*sp*sr+cy*cr)*ayw + cp*sr*azw
	bz := (cy*sp*cr+sy*sr)*axw + (sy*sp*cr-cy*sr)*ayw + cp*cr*azw
	return bx, by, bz
}

// GyroBody returns body angular rates in rad/s.
func (s *Sim) GyroBody() (float64, float64, float64) { return s.p_, s.q_, s.r_ }

// Now returns simulation time.
func (s *Sim) Now() time.Time { return s.simTime }

// --------------------------------------------------------------------------
// Additional state accessors

// Home returns the home (takeoff) position.
func (s *Sim) Home() geo.Position { return s.home }

// OnGround reports whether the drone is resting on the ground.
func (s *Sim) OnGround() bool { return s.onGround }

// AltitudeAGL returns altitude above the home plane in meters.
func (s *Sim) AltitudeAGL() float64 { return -s.d }

// PowerW returns instantaneous electrical power draw in watts.
func (s *Sim) PowerW() float64 { return s.powerW }

// EnergyUsedJ returns cumulative energy drawn from the battery in joules.
func (s *Sim) EnergyUsedJ() float64 { return s.energyUsedJ }

// BatteryRemaining returns the battery state of charge in [0, 1].
func (s *Sim) BatteryRemaining() float64 {
	soc := 1 - s.energyUsedJ/s.p.BatteryJ
	return clamp(soc, 0, 1)
}

// BatteryVoltage models 3S LiPo sag: 12.6 V full, dropping with state of
// charge and with instantaneous current.
func (s *Sim) BatteryVoltage() float64 {
	soc := clamp(1-s.energyUsedJ/s.p.BatteryJ, 0, 1)
	v := 9.9 + 2.7*soc
	current := s.powerW / math.Max(v, 9)
	return v - 0.02*current
}

// Params returns the simulation's physical constants.
func (s *Sim) Params() Params { return s.p }

// NE returns the drone's north/east offset from home in meters.
func (s *Sim) NE() (north, east float64) { return s.n, s.e }

// --------------------------------------------------------------------------

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func wrapPi(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a < -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// rng is a deterministic Gaussian source.
type rng struct {
	state uint64
}

func newRNG(seed string) *rng {
	h := fnv.New64a()
	h.Write([]byte(seed))
	s := h.Sum64()
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &rng{state: s}
}

func (r *rng) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

func (r *rng) uniform() float64 { return (float64(r.next()>>11) + 0.5) / (1 << 53) }

func (r *rng) gauss() float64 {
	u1, u2 := r.uniform(), r.uniform()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
