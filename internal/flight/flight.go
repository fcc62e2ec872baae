// Package flight implements the real-time flight controller AnDrone runs in
// its flight container — the role ArduPilot Copter plays on the prototype.
// The controller runs a 400 Hz fast loop ("ArduPilot's most demanding
// real-time requirement"): it reads inertial sensors, updates a
// complementary-filter attitude estimate, and closes a rate → attitude →
// velocity → position PID cascade onto a four-motor mixer. It speaks
// MAVLink: commands in (arm, takeoff, mode changes, guided position
// targets), telemetry and acks out.
//
// Flight modes follow ArduPilot Copter: STABILIZE, GUIDED, LOITER, RTL,
// LAND, AUTO. Geofence support is pluggable: the stock behaviour on breach
// is a failsafe landing; AnDrone's flight container overrides it with the
// recover-and-loiter sequence described in the paper (see package mavproxy).
package flight

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"androne/internal/devices"
	"androne/internal/geo"
	"androne/internal/mavlink"
	"androne/internal/telemetry"
)

// FastLoopHz is the controller's fast loop rate.
const FastLoopHz = 400

// FastLoopDT is the fast loop period in seconds.
const FastLoopDT = 1.0 / FastLoopHz

// Sensors is the controller's view of the drone's sensors. On AnDrone
// hardware this is the HAL bridge into the device container's services; in
// tests it can wrap devices directly.
type Sensors interface {
	// Fix returns the current GPS reading.
	Fix() devices.Fix
	// IMU returns the current inertial sample.
	IMU() devices.IMUSample
	// Pressure returns barometric pressure in Pa.
	Pressure() float64
	// Heading returns magnetic heading in degrees.
	Heading() float64
	// Battery returns state of charge [0,1] and voltage.
	Battery() (soc float64, voltage float64)
}

// MotorSink receives motor thrust-fraction commands from the mixer.
type MotorSink interface {
	SetMotors(cmd [4]float64)
}

// Errors.
var (
	ErrNotArmed    = errors.New("flight: not armed")
	ErrWrongMode   = errors.New("flight: operation invalid in current mode")
	ErrUnsafe      = errors.New("flight: arming check failed")
	ErrBadArgument = errors.New("flight: bad argument")
)

// BreachAction is invoked when the geofence is breached. The stock action
// lands; AnDrone's flight container installs the recover-and-loiter
// sequence.
type BreachAction func(c *Controller)

// FailsafeLand is the stock geofence breach action: switch to LAND. It is
// the last resort — there is no safer state to fall back to if the mode
// switch itself is refused.
func FailsafeLand(c *Controller) {
	_ = c.SetModeNum(mavlink.ModeLand) //vet:allow errflow last-resort failsafe; no safer fallback exists
}

// Limits bound what the controller will do regardless of commands.
type Limits struct {
	MaxTiltRad   float64 // attitude command limit
	MaxClimbMS   float64 // max climb rate
	MaxDescentMS float64 // max descent rate
	MaxSpeedMS   float64 // max horizontal speed
}

// DefaultLimits returns conservative Copter-like limits.
func DefaultLimits() Limits {
	return Limits{MaxTiltRad: 0.35, MaxClimbMS: 2.5, MaxDescentMS: 1.5, MaxSpeedMS: 8}
}

// Controller is the flight controller.
type Controller struct {
	mu sync.Mutex

	sensors Sensors
	motors  MotorSink
	home    geo.Position
	limits  Limits

	hoverFrac float64 // feed-forward collective for hover

	// State machine.
	armed bool
	mode  uint32

	// Attitude estimate (complementary filter).
	estRoll, estPitch, estYaw float64

	// Position/velocity estimate from GPS.
	posN, posE, alt  float64
	velN, velE, velD float64
	haveFix          bool

	// Targets.
	tgtN, tgtE, tgtAlt float64
	tgtYaw             float64
	speedLimit         float64 // guided speed override, 0 = limits.MaxSpeedMS
	takeoffAlt         float64
	landing            bool

	// Mission for AUTO mode.
	mission    []geo.Position
	missionIdx int
	// Mission upload transaction (MAVLink mission protocol).
	uploadTotal int
	uploadNext  int
	uploadItems []geo.Position
	uploading   bool

	// Integrators.
	iRateP, iRateQ, iRateR float64
	iVelZ                  float64

	// Geofence.
	fence    *geo.Fence
	breach   BreachAction
	breached bool

	// Battery failsafe: below this state of charge the controller forces
	// RTL (0 disables).
	battFailsafeFrac float64
	battFailsafed    bool

	// rtlAltM is the minimum altitude for the return leg (RTL_ALT).
	rtlAltM float64

	// Diagnostics.
	timeS     float64
	loopCount uint64
	log       *Log
	aed       *AEDMonitor

	// Telemetry. stepCount is atomic (not under c.mu) so the latency
	// sampling decision can be made before the step's sensor reads; tel is
	// set at construction time and may be nil.
	stepCount atomic.Uint64
	tel       *telemetry.Recorder

	// MAVLink reply scratch. HandleMessage is a serial endpoint (one
	// in-flight message per controller, as on a real telemetry link), so
	// the scratch is single-writer without c.mu; the returned slice and
	// the ack it points at are valid until the next HandleMessage call.
	// This is what keeps the accepted-command path at 0 allocs/op.
	ackScratch   mavlink.CommandAck
	replyScratch [1]mavlink.Message
}

// Option configures a Controller.
type Option func(*Controller)

// WithLimits overrides the default limits.
func WithLimits(l Limits) Option { return func(c *Controller) { c.limits = l } }

// WithHoverFraction sets the hover feed-forward (per-motor thrust fraction
// that balances gravity). Defaults to 0.46, the prototype's value.
func WithHoverFraction(f float64) Option { return func(c *Controller) { c.hoverFrac = f } }

// WithLog attaches a flight log that records estimate-vs-truth attitude for
// the AED analyzer.
func WithLog(l *Log) Option { return func(c *Controller) { c.log = l } }

// WithAEDMonitor attaches a streaming AED monitor, which computes the
// verdict AnalyzeAED would give without keeping the samples.
func WithAEDMonitor(m *AEDMonitor) Option { return func(c *Controller) { c.aed = m } }

// WithBatteryFailsafe forces RTL when the battery state of charge drops
// below frac (e.g. 0.2). Zero disables the failsafe.
func WithBatteryFailsafe(frac float64) Option {
	return func(c *Controller) { c.battFailsafeFrac = frac }
}

// NewController creates a controller for a vehicle at home.
func NewController(s Sensors, m MotorSink, home geo.Position, opts ...Option) *Controller {
	c := &Controller{
		sensors:   s,
		motors:    m,
		home:      home,
		limits:    DefaultLimits(),
		hoverFrac: 0.46,
		mode:      mavlink.ModeStabilize,
		breach:    FailsafeLand,
		rtlAltM:   15,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// --------------------------------------------------------------------------
// Mode and arming API

// Armed reports the arming state.
func (c *Controller) Armed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.armed
}

// Mode returns the current flight mode number.
func (c *Controller) Mode() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mode
}

// Arm arms the motors. Arming requires a position fix.
func (c *Controller) Arm() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.haveFix {
		return fmt.Errorf("%w: no position estimate", ErrUnsafe) //vet:allow hotpath cold error path (arm without a fix)
	}
	c.armed = true
	return nil
}

// Disarm stops the motors immediately. The armed flag drops under the
// lock; the motor write — an interface call into the device backend —
// happens after release so the lock is never held across foreign code.
func (c *Controller) Disarm() {
	c.mu.Lock()
	c.armed = false
	c.mu.Unlock()
	c.motors.SetMotors([4]float64{})
}

// SetModeNum switches flight mode.
func (c *Controller) SetModeNum(mode uint32) error {
	c.mu.Lock()
	err := c.setModeLocked(mode)
	c.mu.Unlock()
	if err == nil {
		mModeChanges.Inc()
		c.tel.Emit(0, kModeChange, int64(mode), 0, "")
	}
	return err
}

func (c *Controller) setModeLocked(mode uint32) error {
	switch mode {
	case mavlink.ModeStabilize, mavlink.ModeAltHold:
		c.mode = mode
	case mavlink.ModeGuided, mavlink.ModeLoiter:
		// Hold current position until told otherwise.
		c.tgtN, c.tgtE, c.tgtAlt = c.posN, c.posE, c.alt
		c.tgtYaw = c.estYaw
		c.landing = false
		c.mode = mode
	case mavlink.ModeLand:
		c.tgtN, c.tgtE = c.posN, c.posE
		c.landing = true
		c.mode = mode
	case mavlink.ModeRTL:
		c.tgtN, c.tgtE = 0, 0
		c.tgtAlt = math.Max(c.alt, c.rtlAltM)
		c.landing = false
		c.mode = mode
	case mavlink.ModeAuto:
		if len(c.mission) == 0 {
			return fmt.Errorf("%w: empty mission", ErrBadArgument) //vet:allow hotpath cold error path (mode rejection)
		}
		c.missionIdx = 0
		c.setGuidedTargetLocked(c.mission[0])
		c.landing = false
		c.mode = mode
	default:
		return fmt.Errorf("%w: mode %d", ErrBadArgument, mode) //vet:allow hotpath cold error path (mode rejection)
	}
	return nil
}

// Takeoff climbs to alt meters above home. Requires GUIDED mode and armed.
func (c *Controller) Takeoff(alt float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.armed {
		return ErrNotArmed
	}
	if c.mode != mavlink.ModeGuided {
		return fmt.Errorf("%w: takeoff requires GUIDED", ErrWrongMode) //vet:allow hotpath cold error path (takeoff precondition)
	}
	if alt <= 0 {
		return fmt.Errorf("%w: altitude %g", ErrBadArgument, alt) //vet:allow hotpath cold error path (takeoff precondition)
	}
	c.tgtN, c.tgtE = c.posN, c.posE
	c.tgtAlt = alt
	c.landing = false
	return nil
}

// GotoPosition commands a guided-mode target with an optional speed limit
// (0 uses the default).
func (c *Controller) GotoPosition(p geo.Position, speed float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.armed {
		return ErrNotArmed
	}
	if c.mode != mavlink.ModeGuided {
		return fmt.Errorf("%w: goto requires GUIDED", ErrWrongMode) //vet:allow hotpath cold error path (goto precondition)
	}
	if speed < 0 {
		return fmt.Errorf("%w: speed %g", ErrBadArgument, speed) //vet:allow hotpath cold error path (goto precondition)
	}
	c.speedLimit = speed
	c.setGuidedTargetLocked(p)
	return nil
}

func (c *Controller) setGuidedTargetLocked(p geo.Position) {
	n, e := geo.NE(c.home.LatLon, p.LatLon)
	c.tgtN, c.tgtE, c.tgtAlt = n, e, p.Alt
	c.landing = false
}

// SetYaw sets the yaw target in radians.
func (c *Controller) SetYaw(yaw float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tgtYaw = wrapPi(yaw)
}

// SetMission loads an AUTO-mode waypoint list.
func (c *Controller) SetMission(wps []geo.Position) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mission = append([]geo.Position(nil), wps...)
	c.missionIdx = 0
}

// SetFence installs a geofence and breach action (nil action keeps the
// current one; the zero-value default is FailsafeLand).
func (c *Controller) SetFence(f *geo.Fence, action BreachAction) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fence = f
	c.breached = false
	if action != nil {
		c.breach = action
	}
}

// Fence returns the current geofence, or nil.
func (c *Controller) Fence() *geo.Fence {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fence
}

// Estimate returns the controller's position estimate.
func (c *Controller) Estimate() geo.Position {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.estimateLocked()
}

func (c *Controller) estimateLocked() geo.Position {
	ll := geo.OffsetNE(c.home.LatLon, c.posN, c.posE)
	return geo.Position{LatLon: ll, Alt: c.alt}
}

// EstimatedAttitude returns the attitude estimate in radians.
func (c *Controller) EstimatedAttitude() (roll, pitch, yaw float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.estRoll, c.estPitch, c.estYaw
}

// MissionIndex returns the current AUTO waypoint index.
func (c *Controller) MissionIndex() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.missionIdx
}

// --------------------------------------------------------------------------
// Fast loop

// Step runs one fast-loop iteration of dt seconds (normally FastLoopDT).
//
// Sensor reads and the motor write are interface calls into device
// backends that hold their own locks, so they happen outside c.mu: the
// sensor sample is taken first, the control math runs under the lock, and
// the motor command is published after release. A concurrent reader thus
// observes a command at most one fast-loop period (2.5 ms) stale — the
// same guarantee an ESC bus gives — and the lock can never participate in
// a cycle through a device implementation.
//
//vet:hotpath the 400 Hz fast loop: one step must stay allocation-free
func (c *Controller) Step(dt float64) {
	if dt <= 0 {
		return
	}
	var t0 time.Time
	sampled := telemetry.Enabled() && c.stepCount.Add(1)%stepSampleEvery == 0
	if sampled {
		t0 = time.Now() //vet:allow detguard wall clock feeds only the sampled latency histogram
	}
	imu := c.sensors.IMU()
	hdg := c.sensors.Heading()

	c.mu.Lock()
	c.timeS += dt
	c.loopCount++
	// Position/velocity update at 50 Hz (GPS-rate) to mirror the real
	// sensor pipeline.
	gpsTick := c.loopCount%8 == 1
	c.mu.Unlock()

	var fix devices.Fix
	var soc float64
	if gpsTick {
		fix = c.sensors.Fix()
		soc, _ = c.sensors.Battery()
	}

	c.mu.Lock()
	cmd := c.stepLocked(imu, hdg, fix, soc, gpsTick, dt)
	c.mu.Unlock()
	c.motors.SetMotors(cmd)
	if sampled {
		mStepNS.Observe(float64(time.Since(t0).Nanoseconds())) //vet:allow detguard wall clock feeds only the sampled latency histogram
	}
}

// stepLocked runs the estimator and control math and returns the motor
// command to publish. All sensor samples arrive as arguments; the only
// foreign code it may reach is the breach action, which checkFenceLocked
// already invokes with the lock released.
func (c *Controller) stepLocked(imu devices.IMUSample, hdg float64, fix devices.Fix, soc float64, gpsTick bool, dt float64) [4]float64 {
	c.updateAttitudeEstimate(imu, hdg, dt)

	if gpsTick {
		n, e := geo.NE(c.home.LatLon, fix.Position.LatLon)
		c.posN, c.posE, c.alt = n, e, fix.Position.Alt
		c.velN, c.velE, c.velD = fix.VelN, fix.VelE, fix.VelD
		c.haveFix = true
		c.checkFenceLocked()
		c.checkBatteryLocked(soc)
	}

	if !c.armed {
		c.logSample()
		return [4]float64{}
	}

	// Mode logic chooses position/climb targets.
	desN, desE, desAlt := c.tgtN, c.tgtE, c.tgtAlt
	climbOverride := math.NaN()
	switch c.mode {
	case mavlink.ModeStabilize, mavlink.ModeAltHold:
		// Hold level attitude at hover throttle; drift is the pilot's
		// problem, as on the real vehicle.
		desN, desE, desAlt = c.posN, c.posE, c.alt
	case mavlink.ModeLand:
		climbOverride = -0.7
	case mavlink.ModeRTL:
		// Reach home horizontally, then land.
		if math.Hypot(c.posN-c.tgtN, c.posE-c.tgtE) < 1.5 {
			c.landing = true
		}
		if c.landing {
			climbOverride = -0.7
		}
	case mavlink.ModeAuto:
		if math.Hypot(c.posN-c.tgtN, c.posE-c.tgtE) < 1.5 && math.Abs(c.alt-c.tgtAlt) < 1 {
			if c.missionIdx < len(c.mission)-1 {
				c.missionIdx++
				c.setGuidedTargetLocked(c.mission[c.missionIdx])
			}
		}
		desN, desE, desAlt = c.tgtN, c.tgtE, c.tgtAlt
	}

	// Landing completion: on the ground with no commanded climb.
	if (c.mode == mavlink.ModeLand || (c.mode == mavlink.ModeRTL && c.landing)) &&
		c.alt < 0.08 && math.Abs(c.velD) < 0.2 {
		c.armed = false
		c.logSample()
		return [4]float64{}
	}

	// Position -> velocity.
	vmax := c.limits.MaxSpeedMS
	if c.speedLimit > 0 && c.speedLimit < vmax {
		vmax = c.speedLimit
	}
	dvN := 1.0 * (desN - c.posN)
	dvE := 1.0 * (desE - c.posE)
	if sp := math.Hypot(dvN, dvE); sp > vmax {
		dvN, dvE = dvN/sp*vmax, dvE/sp*vmax
	}

	// Velocity -> tilt. Desired acceleration maps to lean angles.
	accN := 1.2 * (dvN - c.velN)
	accE := 1.2 * (dvE - c.velE)
	cy, sy := math.Cos(c.estYaw), math.Sin(c.estYaw)
	accX := cy*accN + sy*accE  // body forward
	accY := -sy*accN + cy*accE // body right
	// Forward acceleration needs nose-down (negative) pitch.
	desPitch := clamp(-accX/9.81, -c.limits.MaxTiltRad, c.limits.MaxTiltRad)
	desRoll := clamp(accY/9.81, -c.limits.MaxTiltRad, c.limits.MaxTiltRad)

	// Altitude -> climb rate -> collective.
	var climb float64
	if !math.IsNaN(climbOverride) {
		climb = climbOverride
	} else {
		climb = clamp(1.0*(desAlt-c.alt), -c.limits.MaxDescentMS, c.limits.MaxClimbMS)
	}
	climbErr := climb - (-c.velD) // velD is down-positive
	c.iVelZ = clamp(c.iVelZ+0.02*climbErr*dt, -0.08, 0.08)
	collective := c.hoverFrac + 0.10*climbErr + c.iVelZ

	// Attitude -> rates.
	desP := 6 * wrapPi(desRoll-c.estRoll)
	desQ := 6 * wrapPi(desPitch-c.estPitch)
	desR := clamp(3*wrapPi(c.tgtYaw-c.estYaw), -1.5, 1.5)

	// Rates -> torque demands (normalized motor units).
	errP := desP - imu.GyroX
	errQ := desQ - imu.GyroY
	errR := desR - imu.GyroZ
	c.iRateP = clamp(c.iRateP+0.02*errP*dt, -0.05, 0.05)
	c.iRateQ = clamp(c.iRateQ+0.02*errQ*dt, -0.05, 0.05)
	c.iRateR = clamp(c.iRateR+0.05*errR*dt, -0.05, 0.05)
	rOut := clamp(0.05*errP+c.iRateP, -0.25, 0.25)
	pOut := clamp(0.05*errQ+c.iRateQ, -0.25, 0.25)
	yOut := clamp(0.10*errR+c.iRateR, -0.15, 0.15)

	// Mixer (matches the X-configuration torque model):
	//   f0 FR = col - R + P + Y     f1 BL = col + R - P + Y
	//   f2 FL = col + R + P - Y     f3 BR = col - R - P - Y
	var m [4]float64
	m[0] = collective - rOut + pOut + yOut
	m[1] = collective + rOut - pOut + yOut
	m[2] = collective + rOut + pOut - yOut
	m[3] = collective - rOut - pOut - yOut
	for i := range m {
		m[i] = clamp(m[i], 0, 1)
	}
	c.logSample()
	return m
}

// updateAttitudeEstimate runs the complementary filter. hdgDeg is the
// magnetometer heading in degrees, sampled by the caller before locking.
func (c *Controller) updateAttitudeEstimate(imu devices.IMUSample, hdgDeg, dt float64) {
	// Gyro integration.
	cr, sr := math.Cos(c.estRoll), math.Sin(c.estRoll)
	tp := math.Tan(c.estPitch)
	cp := math.Cos(c.estPitch)
	c.estRoll += dt * (imu.GyroX + imu.GyroY*sr*tp + imu.GyroZ*cr*tp)
	c.estPitch += dt * (imu.GyroY*cr - imu.GyroZ*sr)
	c.estYaw += dt * (imu.GyroY*sr/cp + imu.GyroZ*cr/cp)

	// Accelerometer tilt correction. Only trust the accelerometer when the
	// specific force magnitude is close to 1 g AND rotation is slow —
	// during coordinated acceleration the specific force aligns with body-z
	// regardless of tilt and would pull the estimate toward level.
	g := math.Sqrt(imu.AccelX*imu.AccelX + imu.AccelY*imu.AccelY + imu.AccelZ*imu.AccelZ)
	rate := math.Abs(imu.GyroX) + math.Abs(imu.GyroY) + math.Abs(imu.GyroZ)
	if g > 9.6 && g < 10.0 && rate < 0.1 {
		rollAcc := math.Atan2(-imu.AccelY, -imu.AccelZ)
		pitchAcc := math.Atan2(imu.AccelX, math.Hypot(imu.AccelY, imu.AccelZ))
		// A slow correction (tau ~ 5 s at 400 Hz) removes gyro drift without
		// letting small coordinated tilts drag the estimate toward level.
		const k = 0.0005
		c.estRoll += k * wrapPi(rollAcc-c.estRoll)
		c.estPitch += k * wrapPi(pitchAcc-c.estPitch)
	}

	// Magnetometer yaw correction.
	hdg := hdgDeg * math.Pi / 180
	c.estYaw += 0.02 * wrapPi(hdg-c.estYaw)
	c.estYaw = wrapPi(c.estYaw)
	c.estRoll = wrapPi(c.estRoll)
	c.estPitch = clamp(c.estPitch, -1.2, 1.2)
}

// checkFenceLocked runs the geofence check against the position estimate.
func (c *Controller) checkFenceLocked() {
	if c.fence == nil || !c.armed {
		return
	}
	pos := c.estimateLocked()
	if c.fence.Contains(pos) {
		c.breached = false
		return
	}
	if c.breached {
		return // act once per breach
	}
	c.breached = true
	if c.breach != nil {
		action := c.breach
		// Run outside the lock: breach actions call back into the
		// controller (mode changes, target updates).
		c.mu.Unlock()
		action(c)
		c.mu.Lock()
	}
}

// checkBatteryLocked forces RTL when the state of charge drops below the
// failsafe threshold, once per discharge. soc is the state of charge
// sampled by the caller before locking.
func (c *Controller) checkBatteryLocked(soc float64) {
	if c.battFailsafeFrac <= 0 || c.battFailsafed || !c.armed {
		return
	}
	if soc >= c.battFailsafeFrac {
		return
	}
	if c.mode == mavlink.ModeRTL || c.mode == mavlink.ModeLand {
		c.battFailsafed = true
		return
	}
	c.battFailsafed = true
	_ = c.setModeLocked(mavlink.ModeRTL)
}

// BatteryFailsafed reports whether the low-battery failsafe has fired.
func (c *Controller) BatteryFailsafed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.battFailsafed
}

// Breached reports whether the fence is currently breached.
func (c *Controller) Breached() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.breached
}

func (c *Controller) logSample() {
	if c.log == nil && c.aed == nil {
		return
	}
	s := Sample{
		T:        c.timeS,
		EstRoll:  c.estRoll,
		EstPitch: c.estPitch,
		EstYaw:   c.estYaw,
	}
	if c.log != nil {
		c.log.add(s)
	}
	if c.aed != nil {
		c.aed.add(s)
	}
}

// RecordTruth lets the harness attach ground-truth attitude to the most
// recent log sample (on hardware, the "canonical" attitude comes from log
// post-processing; in simulation it is the sim state).
func (c *Controller) RecordTruth(roll, pitch, yaw float64) {
	if c.log != nil {
		c.log.setTruth(roll, pitch, yaw)
	}
	if c.aed != nil {
		c.aed.setTruth(roll, pitch, yaw)
	}
}

// --------------------------------------------------------------------------
// MAVLink server

// HandleMessage processes one inbound MAVLink message and returns any
// immediate replies (acks). Telemetry is produced separately by Telemetry.
func (c *Controller) HandleMessage(msg mavlink.Message) []mavlink.Message {
	switch m := msg.(type) {
	case *mavlink.CommandLong:
		return c.handleCommand(m)
	case *mavlink.SetMode:
		res := uint8(mavlink.ResultAccepted)
		if err := c.SetModeNum(m.CustomMode); err != nil {
			res = mavlink.ResultDenied
		}
		return c.ackReply(mavlink.CmdDoSetMode, res)
	case *mavlink.SetPositionTargetGlobalInt:
		p := geo.Position{
			LatLon: geo.LatLon{Lat: mavlink.E7ToLatLon(m.LatE7), Lon: mavlink.E7ToLatLon(m.LonE7)},
			Alt:    float64(m.Alt),
		}
		if err := c.GotoPosition(p, 0); err != nil {
			return c.ackReply(mavlink.MsgIDSetPositionTargetGlobal, mavlink.ResultDenied)
		}
		return nil // position targets are not acked in MAVLink
	case *mavlink.ParamRequestList, *mavlink.ParamRequestRead, *mavlink.ParamSet:
		return c.handleParam(msg)
	case *mavlink.MissionCount:
		return c.handleMissionCount(m)
	case *mavlink.MissionItemInt:
		return c.handleMissionItem(m)
	case *mavlink.MissionClearAll:
		c.mu.Lock()
		c.mission = nil
		c.missionIdx = 0
		c.uploading = false
		c.mu.Unlock()
		return []mavlink.Message{&mavlink.MissionAck{Type: mavlink.MissionAccepted}} //vet:allow hotpath mission-protocol reply; not the steady-state stream
	case *mavlink.Heartbeat:
		return nil
	}
	return nil
}

// handleMissionCount opens a mission upload (the MAVLink mission protocol:
// the vehicle requests each item in turn).
func (c *Controller) handleMissionCount(m *mavlink.MissionCount) []mavlink.Message {
	const maxItems = 512
	if m.Count == 0 || m.Count > maxItems {
		return []mavlink.Message{&mavlink.MissionAck{Type: mavlink.MissionInvalidParam}} //vet:allow hotpath mission-protocol reply; not the steady-state stream
	}
	c.mu.Lock()
	c.uploading = true
	c.uploadTotal = int(m.Count)
	c.uploadNext = 0
	c.uploadItems = c.uploadItems[:0]
	c.mu.Unlock()
	return []mavlink.Message{&mavlink.MissionRequestInt{Seq: 0}} //vet:allow hotpath mission-protocol reply; not the steady-state stream
}

// handleMissionItem accepts the next mission item, requesting the following
// one or closing the transaction with an ack.
func (c *Controller) handleMissionItem(m *mavlink.MissionItemInt) []mavlink.Message {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.uploading {
		return []mavlink.Message{&mavlink.MissionAck{Type: mavlink.MissionError}} //vet:allow hotpath mission-protocol reply; not the steady-state stream
	}
	if int(m.Seq) != c.uploadNext {
		c.uploading = false
		return []mavlink.Message{&mavlink.MissionAck{Type: mavlink.MissionInvalidSeq}} //vet:allow hotpath mission-protocol reply; not the steady-state stream
	}
	if m.Command != mavlink.CmdNavWaypoint {
		c.uploading = false
		return []mavlink.Message{&mavlink.MissionAck{Type: mavlink.MissionUnsupported}} //vet:allow hotpath mission-protocol reply; not the steady-state stream
	}
	c.uploadItems = append(c.uploadItems, geo.Position{
		LatLon: geo.LatLon{Lat: mavlink.E7ToLatLon(m.LatE7), Lon: mavlink.E7ToLatLon(m.LonE7)},
		Alt:    float64(m.Alt),
	})
	c.uploadNext++
	if c.uploadNext < c.uploadTotal {
		return []mavlink.Message{&mavlink.MissionRequestInt{Seq: uint16(c.uploadNext)}} //vet:allow hotpath mission-protocol reply; not the steady-state stream
	}
	c.mission = append([]geo.Position(nil), c.uploadItems...)
	c.missionIdx = 0
	c.uploading = false
	return []mavlink.Message{&mavlink.MissionAck{Type: mavlink.MissionAccepted}} //vet:allow hotpath mission-protocol reply; not the steady-state stream
}

// ackReply fills the reply scratch with a command ack — the allocation-free
// reply for the hot accepted/denied command paths (see the scratch fields'
// serial-endpoint contract).
func (c *Controller) ackReply(cmd uint16, res uint8) []mavlink.Message {
	c.ackScratch = mavlink.CommandAck{Command: cmd, Result: res}
	c.replyScratch[0] = &c.ackScratch
	return c.replyScratch[:]
}

func (c *Controller) handleCommand(m *mavlink.CommandLong) []mavlink.Message {
	ack := func(res uint8) []mavlink.Message { //vet:allow hotpath non-escaping closure; conservative FuncLit rule
		return c.ackReply(m.Command, res)
	}
	fail := func(err error) []mavlink.Message { //vet:allow hotpath non-escaping closure; conservative FuncLit rule
		if err == nil {
			return ack(mavlink.ResultAccepted)
		}
		return ack(mavlink.ResultDenied)
	}
	switch m.Command {
	case mavlink.CmdComponentArmDisarm:
		if m.Param1 >= 0.5 {
			return fail(c.Arm())
		}
		c.Disarm()
		return ack(mavlink.ResultAccepted)
	case mavlink.CmdNavTakeoff:
		return fail(c.Takeoff(float64(m.Param7)))
	case mavlink.CmdNavLand:
		return fail(c.SetModeNum(mavlink.ModeLand))
	case mavlink.CmdNavReturnToLaunch:
		return fail(c.SetModeNum(mavlink.ModeRTL))
	case mavlink.CmdNavLoiterUnlim:
		return fail(c.SetModeNum(mavlink.ModeLoiter))
	case mavlink.CmdDoSetMode:
		return fail(c.SetModeNum(uint32(m.Param2)))
	case mavlink.CmdConditionYaw:
		c.SetYaw(float64(m.Param1) * math.Pi / 180)
		return ack(mavlink.ResultAccepted)
	case mavlink.CmdDoChangeSpeed:
		c.mu.Lock()
		c.speedLimit = float64(m.Param2)
		c.mu.Unlock()
		return ack(mavlink.ResultAccepted)
	}
	return ack(mavlink.ResultUnsupported)
}

// Telemetry returns the controller's current telemetry set: heartbeat,
// attitude, global position, and system status.
func (c *Controller) Telemetry() []mavlink.Message {
	// Battery is an interface call into the device backend; sample it
	// before taking the controller lock.
	soc, volt := c.sensors.Battery()
	c.mu.Lock()
	defer c.mu.Unlock()
	base := uint8(mavlink.ModeFlagCustomModeEnabled)
	if c.armed {
		base |= mavlink.ModeFlagSafetyArmed
	}
	pos := c.estimateLocked()
	hdg := math.Mod(c.estYaw*180/math.Pi+360, 360)
	return []mavlink.Message{
		&mavlink.Heartbeat{CustomMode: c.mode, Type: 2, Autopilot: 3, BaseMode: base, SystemStatus: 4, MavlinkVersion: 3},
		&mavlink.Attitude{
			TimeBootMs: uint32(c.timeS * 1000),
			Roll:       float32(c.estRoll), Pitch: float32(c.estPitch), Yaw: float32(c.estYaw),
		},
		&mavlink.GlobalPositionInt{
			TimeBootMs:    uint32(c.timeS * 1000),
			LatE7:         mavlink.LatLonToE7(pos.Lat),
			LonE7:         mavlink.LatLonToE7(pos.Lon),
			AltMM:         int32((pos.Alt + c.home.Alt) * 1000),
			RelativeAltMM: int32(pos.Alt * 1000),
			Vx:            int16(c.velN * 100), Vy: int16(c.velE * 100), Vz: int16(c.velD * 100),
			HdgCdeg: uint16(hdg * 100),
		},
		&mavlink.SysStatus{
			VoltageBatteryMV: uint16(volt * 1000),
			BatteryRemaining: int8(soc * 100),
			Load:             450,
		},
	}
}

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
