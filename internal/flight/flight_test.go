package flight

import (
	"errors"
	"math"
	"testing"

	"androne/internal/geo"
	"androne/internal/mavlink"
)

var home = geo.Position{LatLon: geo.LatLon{Lat: 43.6084298, Lon: -85.8110359}, Alt: 0}

// prepare builds a vehicle, waits for a position fix, and returns it.
func prepare(t *testing.T, opts ...Option) *Vehicle {
	t.Helper()
	v := NewVehicle(home, t.Name(), opts...)
	v.StepSeconds(0.1) // let the estimator get a fix
	return v
}

// flier is a vehicle and the loop that steps it: a *Vehicle, or a
// loggedVehicle, whose loop also feeds the oracle Log.
type flier interface {
	vehicle() *Vehicle
	StepSeconds(seconds float64)
	RunUntil(cond func() bool, timeoutS float64) bool
}

func (v *Vehicle) vehicle() *Vehicle { return v }

// takeoffTo arms, switches to GUIDED, and climbs to alt.
func takeoffTo(t *testing.T, f flier, alt float64) {
	t.Helper()
	v := f.vehicle()
	c := v.Controller
	if err := c.SetModeNum(mavlink.ModeGuided); err != nil {
		t.Fatal(err)
	}
	if err := c.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := c.Takeoff(alt); err != nil {
		t.Fatal(err)
	}
	ok := f.RunUntil(func() bool {
		return math.Abs(v.Sim.AltitudeAGL()-alt) < 0.5
	}, 30)
	if !ok {
		t.Fatalf("takeoff to %gm failed; at %.2fm", alt, v.Sim.AltitudeAGL())
	}
}

func TestArmRequiresFix(t *testing.T) {
	v := NewVehicle(home, "nofix")
	if err := v.Controller.Arm(); !errors.Is(err, ErrUnsafe) {
		t.Fatalf("arm without fix: %v", err)
	}
	v.StepSeconds(0.1)
	if err := v.Controller.Arm(); err != nil {
		t.Fatalf("arm with fix: %v", err)
	}
}

func TestTakeoffAndHold(t *testing.T) {
	v := prepare(t)
	takeoffTo(t, v, 15)
	// Hold for 10 s; altitude stays near target, position near home.
	v.StepSeconds(10)
	if alt := v.Sim.AltitudeAGL(); math.Abs(alt-15) > 1 {
		t.Fatalf("altitude hold = %.2f m", alt)
	}
	n, e := v.Sim.NE()
	if math.Hypot(n, e) > 2 {
		t.Fatalf("horizontal drift = %.2f m", math.Hypot(n, e))
	}
}

func TestTakeoffRequiresGuidedAndArmed(t *testing.T) {
	v := prepare(t)
	c := v.Controller
	if err := c.Takeoff(10); !errors.Is(err, ErrNotArmed) {
		t.Fatalf("takeoff disarmed: %v", err)
	}
	if err := c.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := c.Takeoff(10); !errors.Is(err, ErrWrongMode) {
		t.Fatalf("takeoff in STABILIZE: %v", err)
	}
	if err := c.SetModeNum(mavlink.ModeGuided); err != nil {
		t.Fatal(err)
	}
	if err := c.Takeoff(-3); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("negative takeoff alt: %v", err)
	}
}

func TestGuidedGoto(t *testing.T) {
	v := prepare(t)
	takeoffTo(t, v, 15)
	target := geo.Position{LatLon: geo.OffsetNE(home.LatLon, 60, 40), Alt: 15}
	if err := v.Controller.GotoPosition(target, 0); err != nil {
		t.Fatal(err)
	}
	ok := v.RunUntil(func() bool {
		return geo.Distance3D(v.Sim.Position(), target) < 1.5
	}, 60)
	if !ok {
		t.Fatalf("did not reach target; at %v, %.1f m away",
			v.Sim.Position(), geo.Distance3D(v.Sim.Position(), target))
	}
	// Speed respected the limit during transit (terminal check).
	vn, ve, _ := v.Sim.VelocityNED()
	if sp := math.Hypot(vn, ve); sp > DefaultLimits().MaxSpeedMS+1 {
		t.Fatalf("speed = %.1f m/s", sp)
	}
}

func TestGuidedSpeedLimit(t *testing.T) {
	v := prepare(t)
	takeoffTo(t, v, 15)
	target := geo.Position{LatLon: geo.OffsetNE(home.LatLon, 120, 0), Alt: 15}
	if err := v.Controller.GotoPosition(target, 2.0); err != nil {
		t.Fatal(err)
	}
	// Measure peak speed over the transit.
	peak := 0.0
	for i := 0; i < 20*FastLoopHz; i++ {
		v.Sim.Step(FastLoopDT)
		v.Controller.Step(FastLoopDT)
		vn, ve, _ := v.Sim.VelocityNED()
		if sp := math.Hypot(vn, ve); sp > peak {
			peak = sp
		}
	}
	if peak > 3.0 {
		t.Fatalf("peak speed %.2f m/s with 2 m/s limit", peak)
	}
	if peak < 1.0 {
		t.Fatalf("peak speed %.2f m/s; vehicle did not move", peak)
	}
}

func TestLoiterHolds(t *testing.T) {
	v := prepare(t)
	takeoffTo(t, v, 12)
	if err := v.Controller.SetModeNum(mavlink.ModeLoiter); err != nil {
		t.Fatal(err)
	}
	p0 := v.Sim.Position()
	v.StepSeconds(8)
	if d := geo.Distance3D(p0, v.Sim.Position()); d > 2 {
		t.Fatalf("loiter drifted %.2f m", d)
	}
}

func TestLoiterHoldsInWind(t *testing.T) {
	v := prepare(t)
	takeoffTo(t, v, 12)
	v.Sim.SetWind(4, -2, 0.5)
	if err := v.Controller.SetModeNum(mavlink.ModeLoiter); err != nil {
		t.Fatal(err)
	}
	p0 := v.Sim.Position()
	v.StepSeconds(10)
	if d := geo.Distance3D(p0, v.Sim.Position()); d > 4 {
		t.Fatalf("loiter in wind drifted %.2f m", d)
	}
}

func TestLand(t *testing.T) {
	v := prepare(t)
	takeoffTo(t, v, 10)
	if err := v.Controller.SetModeNum(mavlink.ModeLand); err != nil {
		t.Fatal(err)
	}
	ok := v.RunUntil(func() bool { return v.Sim.OnGround() && !v.Controller.Armed() }, 40)
	if !ok {
		t.Fatalf("landing incomplete: alt %.2f armed %v", v.Sim.AltitudeAGL(), v.Controller.Armed())
	}
}

func TestRTL(t *testing.T) {
	v := prepare(t)
	takeoffTo(t, v, 15)
	target := geo.Position{LatLon: geo.OffsetNE(home.LatLon, 50, 0), Alt: 15}
	if err := v.Controller.GotoPosition(target, 0); err != nil {
		t.Fatal(err)
	}
	v.RunUntil(func() bool { return geo.Distance3D(v.Sim.Position(), target) < 2 }, 60)

	if err := v.Controller.SetModeNum(mavlink.ModeRTL); err != nil {
		t.Fatal(err)
	}
	ok := v.RunUntil(func() bool { return v.Sim.OnGround() && !v.Controller.Armed() }, 90)
	if !ok {
		t.Fatal("RTL did not complete")
	}
	n, e := v.Sim.NE()
	if math.Hypot(n, e) > 3 {
		t.Fatalf("RTL landed %.1f m from home", math.Hypot(n, e))
	}
}

func TestAutoMission(t *testing.T) {
	v := prepare(t)
	takeoffTo(t, v, 15)
	wps := []geo.Position{
		{LatLon: geo.OffsetNE(home.LatLon, 30, 0), Alt: 15},
		{LatLon: geo.OffsetNE(home.LatLon, 30, 30), Alt: 20},
		{LatLon: geo.OffsetNE(home.LatLon, 0, 30), Alt: 15},
	}
	v.Controller.SetMission(wps)
	if err := v.Controller.SetModeNum(mavlink.ModeAuto); err != nil {
		t.Fatal(err)
	}
	ok := v.RunUntil(func() bool {
		return v.Controller.MissionIndex() == 2 &&
			geo.Distance3D(v.Sim.Position(), wps[2]) < 2
	}, 120)
	if !ok {
		t.Fatalf("mission incomplete: idx %d pos %v", v.Controller.MissionIndex(), v.Sim.Position())
	}
}

func TestAutoRequiresMission(t *testing.T) {
	v := prepare(t)
	if err := v.Controller.SetModeNum(mavlink.ModeAuto); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("AUTO without mission: %v", err)
	}
}

func TestBadMode(t *testing.T) {
	v := prepare(t)
	if err := v.Controller.SetModeNum(77); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("err = %v", err)
	}
}

func TestDisarmCutsMotors(t *testing.T) {
	v := prepare(t)
	takeoffTo(t, v, 10)
	v.Controller.Disarm()
	ok := v.RunUntil(func() bool { return v.Sim.OnGround() }, 20)
	if !ok {
		t.Fatal("did not fall after disarm")
	}
}

func TestGeofenceStockFailsafeLands(t *testing.T) {
	v := prepare(t)
	takeoffTo(t, v, 15)
	fence := geo.Fence{Center: geo.Position{LatLon: home.LatLon, Alt: 15}, Radius: 30}
	v.Controller.SetFence(&fence, nil) // stock action: FailsafeLand

	// Command a target outside the fence.
	target := geo.Position{LatLon: geo.OffsetNE(home.LatLon, 100, 0), Alt: 15}
	if err := v.Controller.GotoPosition(target, 0); err != nil {
		t.Fatal(err)
	}
	ok := v.RunUntil(func() bool { return v.Controller.Mode() == mavlink.ModeLand }, 60)
	if !ok {
		t.Fatal("stock breach action did not trigger LAND")
	}
	if !v.Controller.Breached() {
		t.Fatal("breach flag not set")
	}
}

func TestGeofenceCustomAction(t *testing.T) {
	v := prepare(t)
	takeoffTo(t, v, 15)
	fence := geo.Fence{Center: geo.Position{LatLon: home.LatLon, Alt: 15}, Radius: 30}
	calls := 0
	v.Controller.SetFence(&fence, func(c *Controller) {
		calls++
		_ = c.SetModeNum(mavlink.ModeLoiter)
	})
	target := geo.Position{LatLon: geo.OffsetNE(home.LatLon, 100, 0), Alt: 15}
	if err := v.Controller.GotoPosition(target, 0); err != nil {
		t.Fatal(err)
	}
	ok := v.RunUntil(func() bool { return calls > 0 }, 60)
	if !ok {
		t.Fatal("custom breach action not invoked")
	}
	v.StepSeconds(5)
	if calls != 1 {
		t.Fatalf("breach action called %d times for one breach", calls)
	}
	if v.Controller.Mode() != mavlink.ModeLoiter {
		t.Fatalf("mode = %s", mavlink.ModeName(v.Controller.Mode()))
	}
}

func TestAttitudeEstimateTracksTruth(t *testing.T) {
	log := &Log{}
	v := loggedVehicle{NewVehicle(home, "aed"), log}
	v.StepSeconds(0.1)
	takeoffTo(t, v, 12)
	target := geo.Position{LatLon: geo.OffsetNE(home.LatLon, 40, 40), Alt: 15}
	if err := v.Controller.GotoPosition(target, 0); err != nil {
		t.Fatal(err)
	}
	v.StepSeconds(20)

	res := AnalyzeAED(log)
	if !res.Pass {
		t.Fatalf("AED failed: max divergence %.1f deg, excursion %.2f s",
			res.MaxDivergenceDeg, res.LongestExcursionS)
	}
	if len(log.samples) == 0 {
		t.Fatal("log empty")
	}
}

func TestMavlinkArmTakeoffLand(t *testing.T) {
	v := prepare(t)
	c := v.Controller

	// GUIDED via DO_SET_MODE.
	replies := c.HandleMessage(&mavlink.CommandLong{Command: mavlink.CmdDoSetMode, Param2: mavlink.ModeGuided})
	checkAck(t, replies, mavlink.CmdDoSetMode, mavlink.ResultAccepted)

	// Arm.
	replies = c.HandleMessage(&mavlink.CommandLong{Command: mavlink.CmdComponentArmDisarm, Param1: 1})
	checkAck(t, replies, mavlink.CmdComponentArmDisarm, mavlink.ResultAccepted)
	if !c.Armed() {
		t.Fatal("not armed")
	}

	// Takeoff to 10 m.
	replies = c.HandleMessage(&mavlink.CommandLong{Command: mavlink.CmdNavTakeoff, Param7: 10})
	checkAck(t, replies, mavlink.CmdNavTakeoff, mavlink.ResultAccepted)
	ok := v.RunUntil(func() bool { return math.Abs(v.Sim.AltitudeAGL()-10) < 0.5 }, 30)
	if !ok {
		t.Fatalf("takeoff failed: %.2f", v.Sim.AltitudeAGL())
	}

	// Position target.
	tgt := geo.OffsetNE(home.LatLon, 20, 0)
	c.HandleMessage(&mavlink.SetPositionTargetGlobalInt{
		LatE7: mavlink.LatLonToE7(tgt.Lat), LonE7: mavlink.LatLonToE7(tgt.Lon), Alt: 10,
	})
	ok = v.RunUntil(func() bool {
		n, _ := v.Sim.NE()
		return n > 18
	}, 40)
	if !ok {
		t.Fatal("position target not honored")
	}

	// Land.
	replies = c.HandleMessage(&mavlink.CommandLong{Command: mavlink.CmdNavLand})
	checkAck(t, replies, mavlink.CmdNavLand, mavlink.ResultAccepted)
	ok = v.RunUntil(func() bool { return v.Sim.OnGround() }, 40)
	if !ok {
		t.Fatal("did not land")
	}
}

func TestMavlinkDeniedCommands(t *testing.T) {
	v := prepare(t)
	c := v.Controller
	// Takeoff while disarmed is denied.
	replies := c.HandleMessage(&mavlink.CommandLong{Command: mavlink.CmdNavTakeoff, Param7: 10})
	checkAck(t, replies, mavlink.CmdNavTakeoff, mavlink.ResultDenied)
	// Unknown command is unsupported.
	replies = c.HandleMessage(&mavlink.CommandLong{Command: 9999})
	checkAck(t, replies, 9999, mavlink.ResultUnsupported)
}

func TestTelemetry(t *testing.T) {
	v := prepare(t)
	takeoffTo(t, v, 10)
	tele := v.Controller.Telemetry()
	if len(tele) != 4 {
		t.Fatalf("telemetry count = %d", len(tele))
	}
	hb := tele[0].(*mavlink.Heartbeat)
	if !hb.Armed() || hb.CustomMode != mavlink.ModeGuided {
		t.Fatalf("heartbeat = %+v", hb)
	}
	gp := tele[2].(*mavlink.GlobalPositionInt)
	if alt := float64(gp.RelativeAltMM) / 1000; math.Abs(alt-10) > 1 {
		t.Fatalf("telemetry altitude = %.2f", alt)
	}
	ss := tele[3].(*mavlink.SysStatus)
	if ss.BatteryRemaining < 50 || ss.VoltageBatteryMV < 9000 {
		t.Fatalf("sysstatus = %+v", ss)
	}
}

func TestConditionYawAndChangeSpeed(t *testing.T) {
	v := prepare(t)
	takeoffTo(t, v, 10)
	c := v.Controller
	replies := c.HandleMessage(&mavlink.CommandLong{Command: mavlink.CmdConditionYaw, Param1: 90})
	checkAck(t, replies, mavlink.CmdConditionYaw, mavlink.ResultAccepted)
	v.StepSeconds(6)
	_, _, yaw := v.Sim.Attitude()
	if math.Abs(yaw-math.Pi/2) > 0.2 {
		t.Fatalf("yaw = %.2f rad, want ~1.57", yaw)
	}
	replies = c.HandleMessage(&mavlink.CommandLong{Command: mavlink.CmdDoChangeSpeed, Param2: 3})
	checkAck(t, replies, mavlink.CmdDoChangeSpeed, mavlink.ResultAccepted)
}

func checkAck(t *testing.T, replies []mavlink.Message, cmd uint16, want uint8) {
	t.Helper()
	if len(replies) != 1 {
		t.Fatalf("replies = %d, want 1", len(replies))
	}
	ack, ok := replies[0].(*mavlink.CommandAck)
	if !ok {
		t.Fatalf("reply type %T", replies[0])
	}
	if ack.Command != cmd || ack.Result != want {
		t.Fatalf("ack = %+v, want cmd %d result %d", ack, cmd, want)
	}
}

func TestMissionUploadProtocol(t *testing.T) {
	v := prepare(t)
	takeoffTo(t, v, 15)
	c := v.Controller

	items := [][2]float64{{30, 0}, {30, 30}, {0, 30}}
	replies := c.HandleMessage(&mavlink.MissionCount{Count: uint16(len(items))})
	req, ok := replies[0].(*mavlink.MissionRequestInt)
	if !ok || req.Seq != 0 {
		t.Fatalf("reply = %v", replies)
	}
	for i, ne := range items {
		ll := geo.OffsetNE(home.LatLon, ne[0], ne[1])
		replies = c.HandleMessage(&mavlink.MissionItemInt{
			Seq: uint16(i), Command: mavlink.CmdNavWaypoint,
			LatE7: mavlink.LatLonToE7(ll.Lat), LonE7: mavlink.LatLonToE7(ll.Lon), Alt: 15,
		})
		if i < len(items)-1 {
			req, ok := replies[0].(*mavlink.MissionRequestInt)
			if !ok || int(req.Seq) != i+1 {
				t.Fatalf("item %d reply = %v", i, replies)
			}
		}
	}
	ack, ok := replies[0].(*mavlink.MissionAck)
	if !ok || ack.Type != mavlink.MissionAccepted {
		t.Fatalf("final reply = %v", replies)
	}

	// Fly the mission.
	if err := c.SetModeNum(mavlink.ModeAuto); err != nil {
		t.Fatal(err)
	}
	last := geo.Position{LatLon: geo.OffsetNE(home.LatLon, 0, 30), Alt: 15}
	ok2 := v.RunUntil(func() bool {
		return c.MissionIndex() == 2 && geo.Distance3D(v.Sim.Position(), last) < 2
	}, 120)
	if !ok2 {
		t.Fatalf("mission incomplete: idx %d", c.MissionIndex())
	}
}

func TestMissionUploadErrors(t *testing.T) {
	v := prepare(t)
	c := v.Controller
	// Item without an open transaction.
	replies := c.HandleMessage(&mavlink.MissionItemInt{Seq: 0, Command: mavlink.CmdNavWaypoint})
	if ack := replies[0].(*mavlink.MissionAck); ack.Type != mavlink.MissionError {
		t.Fatalf("ack = %d", ack.Type)
	}
	// Zero and oversized counts.
	for _, n := range []uint16{0, 4096} {
		replies = c.HandleMessage(&mavlink.MissionCount{Count: n})
		if ack := replies[0].(*mavlink.MissionAck); ack.Type != mavlink.MissionInvalidParam {
			t.Fatalf("count %d ack = %d", n, ack.Type)
		}
	}
	// Out-of-order sequence aborts the transaction.
	c.HandleMessage(&mavlink.MissionCount{Count: 2})
	replies = c.HandleMessage(&mavlink.MissionItemInt{Seq: 1, Command: mavlink.CmdNavWaypoint})
	if ack := replies[0].(*mavlink.MissionAck); ack.Type != mavlink.MissionInvalidSeq {
		t.Fatalf("ack = %d", ack.Type)
	}
	// Unsupported command type.
	c.HandleMessage(&mavlink.MissionCount{Count: 1})
	replies = c.HandleMessage(&mavlink.MissionItemInt{Seq: 0, Command: mavlink.CmdNavTakeoff})
	if ack := replies[0].(*mavlink.MissionAck); ack.Type != mavlink.MissionUnsupported {
		t.Fatalf("ack = %d", ack.Type)
	}
	// Clear-all wipes any loaded mission.
	c.SetMission([]geo.Position{{LatLon: home.LatLon, Alt: 10}})
	replies = c.HandleMessage(&mavlink.MissionClearAll{})
	if ack := replies[0].(*mavlink.MissionAck); ack.Type != mavlink.MissionAccepted {
		t.Fatalf("clear ack = %d", ack.Type)
	}
	if err := c.SetModeNum(mavlink.ModeAuto); err == nil {
		t.Fatal("AUTO with cleared mission accepted")
	}
}

func TestParamProtocol(t *testing.T) {
	v := prepare(t)
	c := v.Controller

	// Full table.
	replies := c.HandleMessage(&mavlink.ParamRequestList{})
	if len(replies) != 6 {
		t.Fatalf("param count = %d", len(replies))
	}
	byName := map[string]float32{}
	for _, m := range replies {
		pv := m.(*mavlink.ParamValue)
		byName[pv.ParamID] = pv.Value
	}
	if byName[ParamWPNavSpeed] != 800 { // 8 m/s default in cm/s
		t.Fatalf("WPNAV_SPEED = %g", byName[ParamWPNavSpeed])
	}
	if byName[ParamRTLAlt] != 1500 {
		t.Fatalf("RTL_ALT = %g", byName[ParamRTLAlt])
	}

	// Single read.
	replies = c.HandleMessage(&mavlink.ParamRequestRead{ParamID: ParamAngleMax})
	if len(replies) != 1 {
		t.Fatalf("read replies = %v", replies)
	}
	angle := replies[0].(*mavlink.ParamValue).Value
	if angle < 1900 || angle > 2100 { // 0.35 rad ~ 2005 cdeg
		t.Fatalf("ANGLE_MAX = %g", angle)
	}
	// Unknown parameter: silence.
	if replies = c.HandleMessage(&mavlink.ParamRequestRead{ParamID: "NOPE"}); len(replies) != 0 {
		t.Fatalf("unknown read = %v", replies)
	}

	// Set within bounds: echoed.
	replies = c.HandleMessage(&mavlink.ParamSet{ParamID: ParamWPNavSpeed, Value: 500})
	if got := replies[0].(*mavlink.ParamValue).Value; got != 500 {
		t.Fatalf("set echo = %g", got)
	}
	// Set beyond the hard bound: clamped.
	replies = c.HandleMessage(&mavlink.ParamSet{ParamID: ParamWPNavSpeed, Value: 99999})
	if got := replies[0].(*mavlink.ParamValue).Value; got != 1200 {
		t.Fatalf("clamped echo = %g, want 1200 (12 m/s)", got)
	}
}

func TestParamSetAffectsFlight(t *testing.T) {
	v := prepare(t)
	c := v.Controller
	c.HandleMessage(&mavlink.ParamSet{ParamID: ParamWPNavSpeed, Value: 200}) // 2 m/s
	takeoffTo(t, v, 15)
	if err := c.GotoPosition(geo.Position{LatLon: geo.OffsetNE(home.LatLon, 120, 0), Alt: 15}, 0); err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	for i := 0; i < 15*FastLoopHz; i++ {
		v.Sim.Step(FastLoopDT)
		c.Step(FastLoopDT)
		vn, ve, _ := v.Sim.VelocityNED()
		if sp := math.Hypot(vn, ve); sp > peak {
			peak = sp
		}
	}
	if peak > 3.0 {
		t.Fatalf("peak %.2f m/s with WPNAV_SPEED=200", peak)
	}
	// RTL altitude parameter is honored.
	c.HandleMessage(&mavlink.ParamSet{ParamID: ParamRTLAlt, Value: 3000}) // 30 m
	if err := c.SetModeNum(mavlink.ModeRTL); err != nil {
		t.Fatal(err)
	}
	climbed := v.RunUntil(func() bool { return v.Sim.AltitudeAGL() > 28 }, 60)
	if !climbed {
		t.Fatalf("RTL did not climb to RTL_ALT: %.1f m", v.Sim.AltitudeAGL())
	}
}
