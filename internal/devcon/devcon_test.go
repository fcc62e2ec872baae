package devcon

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"
	"time"

	"androne/internal/android"
	"androne/internal/binder"
	"androne/internal/devices"
	"androne/internal/geo"
)

type fakeWorld struct {
	pos geo.Position
}

func (w *fakeWorld) Position() geo.Position                   { return w.pos }
func (w *fakeWorld) VelocityNED() (float64, float64, float64) { return 0, 0, 0 }
func (w *fakeWorld) Attitude() (float64, float64, float64)    { return 0, 0, 0 }
func (w *fakeWorld) AccelBody() (float64, float64, float64)   { return 0, 0, -9.81 }
func (w *fakeWorld) GyroBody() (float64, float64, float64)    { return 0, 0, 0 }
func (w *fakeWorld) Now() time.Time                           { return time.Unix(1700000000, 0) }

func newRegistry(w devices.WorldSource) *devices.Registry {
	r := devices.NewRegistry()
	r.Add(devices.NewCamera("camera0", w, 32, 24))
	r.Add(devices.NewGPS("gps0", w, 0))
	r.Add(devices.NewIMU("imu0", w, 0, 0))
	r.Add(devices.NewBarometer("baro0", w, 250, 0))
	r.Add(devices.NewMagnetometer("mag0", w))
	r.Add(devices.NewMicrophone("mic0", w, 8000))
	return r
}

// env is a full device-container test environment with n virtual drones.
type env struct {
	driver *binder.Driver
	dc     *DeviceContainer
	vds    []*android.Instance
}

func newEnv(t *testing.T, nDrones int, policy Policy) *env {
	t.Helper()
	w := &fakeWorld{pos: geo.Position{LatLon: geo.LatLon{Lat: 43.6084298, Lon: -85.8110359}, Alt: 15}}
	d := binder.NewDriver()
	dc, err := New(d, newRegistry(w), policy)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{driver: d, dc: dc}
	for i := 0; i < nDrones; i++ {
		ns, err := d.CreateNamespace(vdName(i))
		if err != nil {
			t.Fatal(err)
		}
		in, err := BootBridged(ns)
		if err != nil {
			t.Fatal(err)
		}
		e.vds = append(e.vds, in)
	}
	return e
}

func vdName(i int) string { return string(rune('a'+i)) + "-vdrone" }

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("Table1 rows = %d, want 4", len(rows))
	}
	want := map[string][]devices.Kind{
		SvcAudioFlinger:    {devices.KindMicrophone, devices.KindSpeaker},
		SvcCamera:          {devices.KindCamera},
		SvcLocationManager: {devices.KindGPS},
		SvcSensorService:   {devices.KindIMU, devices.KindBarometer, devices.KindMagnetometer},
	}
	for _, row := range rows {
		kinds, ok := want[row.Service]
		if !ok {
			t.Fatalf("unexpected service %q", row.Service)
		}
		if len(kinds) != len(row.Devices) {
			t.Fatalf("%s devices = %v, want %v", row.Service, row.Devices, kinds)
		}
	}
}

func TestSharedServicesVisibleInVirtualDrones(t *testing.T) {
	e := newEnv(t, 2, nil)
	for i, vd := range e.vds {
		svcs := vd.ServiceManager().Services()
		got := make(map[string]bool, len(svcs))
		for _, s := range svcs {
			got[s] = true
		}
		for _, want := range SharedServices {
			if !got[want] {
				t.Errorf("vdrone %d missing shared service %q (has %v)", i, want, svcs)
			}
		}
	}
}

func TestFutureVirtualDroneReceivesServices(t *testing.T) {
	e := newEnv(t, 0, nil)
	ns, err := e.driver.CreateNamespace("late-vdrone")
	if err != nil {
		t.Fatal(err)
	}
	in, err := BootBridged(ns)
	if err != nil {
		t.Fatal(err)
	}
	svcs := in.ServiceManager().Services()
	found := false
	for _, s := range svcs {
		if s == SvcCamera {
			found = true
		}
	}
	if !found {
		t.Fatalf("late vdrone services = %v, missing %s", svcs, SvcCamera)
	}
}

func TestDeviceContainerHoldsHardwareExclusively(t *testing.T) {
	w := &fakeWorld{}
	reg := newRegistry(w)
	d := binder.NewDriver()
	if _, err := New(d, reg, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Open("camera0", "vd1"); !errors.Is(err, devices.ErrBusy) {
		t.Fatalf("direct hardware open: %v, want ErrBusy", err)
	}
}

func TestAppCaptureWithPermission(t *testing.T) {
	e := newEnv(t, 1, nil)
	vd := e.vds[0]
	const uid = 10001
	vd.ActivityManager().Grant(uid, android.PermCamera)

	app := android.NewClient(vd.Namespace(), uid)
	h, err := app.GetService(SvcCamera)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := app.Call(h, CmdCapture, nil)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := devices.DecodeFrame(out)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Width != 32 || frame.Height != 24 || len(frame.Pixels) != 32*24 {
		t.Fatalf("frame = %dx%d, %d pixels", frame.Width, frame.Height, len(frame.Pixels))
	}
	if frame.Position.Lat == 0 {
		t.Fatal("frame missing position")
	}
}

// TestCaptureAllocs bounds one permitted CmdCapture round trip through
// binder — the cross-container permission check, the capture and the
// decode — to the frame's pixel buffer plus a small fixed count. Frames
// cross as raw bytes; a serialising reply path (JSON with base64 pixels)
// allocates many times this.
func TestCaptureAllocs(t *testing.T) {
	e := newEnv(t, 1, nil)
	vd := e.vds[0]
	const uid = 10001
	vd.ActivityManager().Grant(uid, android.PermCamera)
	app := android.NewClient(vd.Namespace(), uid)
	h, err := app.GetService(SvcCamera)
	if err != nil {
		t.Fatal(err)
	}
	capture := func() {
		out, _, err := app.Call(h, CmdCapture, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := devices.DecodeFrame(out); err != nil {
			t.Fatal(err)
		}
	}
	capture() // the first capture books the caller as a service user
	const pixelBuffers, fixed = 1, 10
	allocs := testing.AllocsPerRun(200, capture)
	t.Logf("capture round trip: %.0f allocs", allocs)
	if allocs > pixelBuffers+fixed {
		t.Fatalf("capture round trip allocated %.0f/op, want <= %d (the pixel buffer plus %d)",
			allocs, pixelBuffers+fixed, fixed)
	}
}

func TestAppDeniedWithoutPermission(t *testing.T) {
	e := newEnv(t, 1, nil)
	vd := e.vds[0]
	app := android.NewClient(vd.Namespace(), 10002) // no grant
	h, err := app.GetService(SvcCamera)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := app.Call(h, CmdCapture, nil); !errors.Is(err, ErrPermissionDenied) {
		t.Fatalf("err = %v, want ErrPermissionDenied", err)
	}
}

func TestPermissionIsPerContainer(t *testing.T) {
	// The same uid granted in vd a must not be granted in vd b: the check
	// goes to the calling container's ActivityManager.
	e := newEnv(t, 2, nil)
	const uid = 10001
	e.vds[0].ActivityManager().Grant(uid, android.PermCamera)

	for i, wantOK := range []bool{true, false} {
		app := android.NewClient(e.vds[i].Namespace(), uid)
		h, err := app.GetService(SvcCamera)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = app.Call(h, CmdCapture, nil)
		if wantOK && err != nil {
			t.Errorf("vd %d: %v", i, err)
		}
		if !wantOK && !errors.Is(err, ErrPermissionDenied) {
			t.Errorf("vd %d: err = %v, want ErrPermissionDenied", i, err)
		}
	}
}

func TestVDCPolicyDenies(t *testing.T) {
	blocked := PolicyFunc(func(c string, k devices.Kind) bool {
		return k != devices.KindCamera // camera suspended (e.g. at another party's waypoint)
	})
	e := newEnv(t, 1, blocked)
	vd := e.vds[0]
	const uid = 10001
	vd.ActivityManager().Grant(uid, android.PermCamera)
	vd.ActivityManager().Grant(uid, android.PermLocation)

	app := android.NewClient(vd.Namespace(), uid)
	ch, _ := app.GetService(SvcCamera)
	if _, _, err := app.Call(ch, CmdCapture, nil); !errors.Is(err, ErrPolicyDenied) {
		t.Fatalf("camera: %v, want ErrPolicyDenied", err)
	}
	// GPS still allowed: policy is per device kind.
	lh, _ := app.GetService(SvcLocationManager)
	if _, _, err := app.Call(lh, CmdGetFix, nil); err != nil {
		t.Fatalf("gps: %v", err)
	}
}

func TestPolicySwapRevokesImmediately(t *testing.T) {
	e := newEnv(t, 1, nil)
	vd := e.vds[0]
	const uid = 10001
	vd.ActivityManager().Grant(uid, android.PermCamera)
	app := android.NewClient(vd.Namespace(), uid)
	h, _ := app.GetService(SvcCamera)
	if _, _, err := app.Call(h, CmdCapture, nil); err != nil {
		t.Fatal(err)
	}
	// VDC revokes camera (drone left the waypoint).
	e.dc.SetPolicy(PolicyFunc(func(string, devices.Kind) bool { return false }))
	if _, _, err := app.Call(h, CmdCapture, nil); !errors.Is(err, ErrPolicyDenied) {
		t.Fatalf("after revoke: %v, want ErrPolicyDenied", err)
	}
}

func TestSensorAndLocationReads(t *testing.T) {
	e := newEnv(t, 1, nil)
	vd := e.vds[0]
	const uid = 10001
	am := vd.ActivityManager()
	am.Grant(uid, android.PermSensors)
	am.Grant(uid, android.PermLocation)
	am.Grant(uid, android.PermAudio)
	app := android.NewClient(vd.Namespace(), uid)

	// GPS fix.
	lh, _ := app.GetService(SvcLocationManager)
	out, _, err := app.Call(lh, CmdGetFix, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fix devices.Fix
	if err := json.Unmarshal(out, &fix); err != nil {
		t.Fatal(err)
	}
	if fix.Position.Lat != 43.6084298 {
		t.Fatalf("fix = %+v", fix)
	}

	// IMU.
	sh, _ := app.GetService(SvcSensorService)
	out, _, err = app.Call(sh, CmdReadIMU, nil)
	if err != nil {
		t.Fatal(err)
	}
	var imu devices.IMUSample
	if err := json.Unmarshal(out, &imu); err != nil {
		t.Fatal(err)
	}
	if imu.AccelZ != -9.81 {
		t.Fatalf("imu = %+v", imu)
	}

	// Barometer.
	out, _, err = app.Call(sh, CmdReadBaro, nil)
	if err != nil {
		t.Fatal(err)
	}
	var baro map[string]float64
	if err := json.Unmarshal(out, &baro); err != nil {
		t.Fatal(err)
	}
	if baro["pressure"] < 90000 || baro["pressure"] > 102000 {
		t.Fatalf("pressure = %v", baro)
	}

	// Magnetometer.
	out, _, err = app.Call(sh, CmdReadMag, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mag map[string]float64
	if err := json.Unmarshal(out, &mag); err != nil {
		t.Fatal(err)
	}
	if mag["heading"] != 0 {
		t.Fatalf("heading = %v", mag)
	}

	// Audio.
	ah, _ := app.GetService(SvcAudioFlinger)
	req, _ := json.Marshal(map[string]int{"Samples": 256})
	out, _, err = app.Call(ah, CmdReadAudio, req)
	if err != nil {
		t.Fatal(err)
	}
	var audio map[string][]byte
	if err := json.Unmarshal(out, &audio); err != nil {
		t.Fatal(err)
	}
	if len(audio["pcm"]) != 512 {
		t.Fatalf("pcm bytes = %d", len(audio["pcm"]))
	}
}

func TestAudioBadRequests(t *testing.T) {
	e := newEnv(t, 1, nil)
	vd := e.vds[0]
	const uid = 10001
	vd.ActivityManager().Grant(uid, android.PermAudio)
	app := android.NewClient(vd.Namespace(), uid)
	ah, _ := app.GetService(SvcAudioFlinger)
	if _, _, err := app.Call(ah, CmdReadAudio, []byte("not json")); err == nil {
		t.Fatal("malformed request accepted")
	}
	req, _ := json.Marshal(map[string]int{"Samples": -5})
	if _, _, err := app.Call(ah, CmdReadAudio, req); err == nil {
		t.Fatal("negative sample count accepted")
	}
	req, _ = json.Marshal(map[string]int{"Samples": 1 << 21})
	if _, _, err := app.Call(ah, CmdReadAudio, req); err == nil {
		t.Fatal("oversized sample count accepted")
	}
}

func TestUsageTrackingAndRelease(t *testing.T) {
	e := newEnv(t, 1, nil)
	vd := e.vds[0]
	const uid = 10001
	vd.ActivityManager().Grant(uid, android.PermCamera)
	app := android.NewClient(vd.Namespace(), uid)
	h, _ := app.GetService(SvcCamera)
	if _, _, err := app.Call(h, CmdCapture, nil); err != nil {
		t.Fatal(err)
	}

	container := vd.Namespace().Name()
	users := e.dc.ActiveUsers(SvcCamera, container)
	if len(users) != 1 || users[0] != app.Proc().PID() {
		t.Fatalf("ActiveUsers = %v, want [%d]", users, app.Proc().PID())
	}
	// Voluntary release (the AnDrone SDK path).
	if _, _, err := app.Call(h, CmdRelease, nil); err != nil {
		t.Fatal(err)
	}
	if users := e.dc.ActiveUsers(SvcCamera, container); len(users) != 0 {
		t.Fatalf("after release: %v", users)
	}

	// Re-acquire, then container-level teardown.
	if _, _, err := app.Call(h, CmdCapture, nil); err != nil {
		t.Fatal(err)
	}
	e.dc.ReleaseContainer(container)
	if users := e.dc.ActiveUsers(SvcCamera, container); len(users) != 0 {
		t.Fatalf("after container release: %v", users)
	}
}

// TestActivityManagerHandleLifetime: a device service holds one handle to
// a container's ActivityManager however many checks it makes, gives it up
// at ReleaseContainer (the next check takes a new one), and gives it up
// when the container's namespace goes away without ReleaseContainer.
func TestActivityManagerHandleLifetime(t *testing.T) {
	e := newEnv(t, 0, nil)
	sm := e.dc.Instance().ServiceManager()
	services, before := sm.Services(), e.driver.Footprint()
	ns, err := e.driver.CreateNamespace("vd")
	if err != nil {
		t.Fatal(err)
	}
	vd, err := BootBridged(ns)
	if err != nil {
		t.Fatal(err)
	}
	const uid = 10001
	vd.ActivityManager().Grant(uid, android.PermCamera)
	app := android.NewClient(ns, uid)
	h, err := app.GetService(SvcCamera)
	if err != nil {
		t.Fatal(err)
	}
	capture := func() {
		t.Helper()
		if _, _, err := app.Call(h, CmdCapture, nil); err != nil {
			t.Fatal(err)
		}
	}
	capture()
	first := e.driver.Footprint()
	capture()
	if got := e.driver.Footprint(); got != first {
		t.Fatalf("a second check changed the footprint: %+v, want %+v", got, first)
	}
	e.dc.ReleaseContainer("vd")
	if got := e.driver.Footprint(); got.Handles != first.Handles-1 || got.HeldLinks != first.HeldLinks-1 {
		t.Fatalf("ReleaseContainer left footprint %+v (was %+v)", got, first)
	}
	capture()
	if got := e.driver.Footprint(); got != first {
		t.Fatalf("re-acquired footprint %+v, want %+v", got, first)
	}
	e.driver.RemoveNamespace("vd")
	if got := sm.Services(); !slices.Equal(got, services) {
		t.Fatalf("registry after removal = %v, want %v", got, services)
	}
	if got := e.driver.Footprint(); got != before {
		t.Fatalf("footprint after removal %+v, want %+v", got, before)
	}
}

func TestDeniedAccessNotTracked(t *testing.T) {
	e := newEnv(t, 1, nil)
	vd := e.vds[0]
	app := android.NewClient(vd.Namespace(), 10001) // no permission
	h, _ := app.GetService(SvcCamera)
	_, _, _ = app.Call(h, CmdCapture, nil)
	if users := e.dc.ActiveUsers(SvcCamera, vd.Namespace().Name()); len(users) != 0 {
		t.Fatalf("denied access tracked: %v", users)
	}
}

func TestLocalFlightBridgeAccess(t *testing.T) {
	// The flight container's HAL bridge runs as a native daemon. Booted via
	// BootBridged in its own namespace, with system uid, it reaches GPS and
	// sensors through the shared services.
	e := newEnv(t, 0, nil)
	ns, err := e.driver.CreateNamespace("flightcon")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BootBridged(ns); err != nil {
		t.Fatal(err)
	}
	bridge := android.NewClient(ns, 0) // native root daemon
	lh, err := bridge.GetService(SvcLocationManager)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := bridge.Call(lh, CmdGetFix, nil)
	if err != nil {
		t.Fatal(err)
	}
	var fix devices.Fix
	if err := json.Unmarshal(out, &fix); err != nil {
		t.Fatal(err)
	}
	if fix.Satellites < 4 {
		t.Fatalf("fix = %+v", fix)
	}
}

func TestMissingHardwareFailsBoot(t *testing.T) {
	w := &fakeWorld{}
	reg := devices.NewRegistry()
	reg.Add(devices.NewCamera("camera0", w, 8, 8)) // only a camera
	d := binder.NewDriver()
	if _, err := New(d, reg, nil); err == nil {
		t.Fatal("boot succeeded without required devices")
	}
}

func TestUnsupportedCode(t *testing.T) {
	e := newEnv(t, 1, nil)
	vd := e.vds[0]
	const uid = 10001
	vd.ActivityManager().Grant(uid, android.PermCamera)
	app := android.NewClient(vd.Namespace(), uid)
	h, _ := app.GetService(SvcCamera)
	// GPS command sent to the camera service.
	if _, _, err := app.Call(h, CmdGetFix, nil); err == nil {
		t.Fatal("camera service answered a GPS command")
	}
}

func TestSpeakerPlayback(t *testing.T) {
	w := &fakeWorld{}
	reg := newRegistry(w)
	spk := devices.NewSpeaker("spk0", 8000)
	reg.Add(spk)
	d := binder.NewDriver()
	dc, err := New(d, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ns, _ := d.CreateNamespace("vd-audio")
	vd, err := BootBridged(ns)
	if err != nil {
		t.Fatal(err)
	}
	const uid = 10001
	vd.ActivityManager().Grant(uid, android.PermAudio)
	app := android.NewClient(ns, uid)
	h, err := app.GetService(SvcAudioFlinger)
	if err != nil {
		t.Fatal(err)
	}
	pcm := make([]byte, 256)
	req, _ := json.Marshal(map[string][]byte{"PCM": pcm})
	out, _, err := app.Call(h, CmdPlayAudio, req)
	if err != nil {
		t.Fatal(err)
	}
	var res map[string]int
	if err := json.Unmarshal(out, &res); err != nil {
		t.Fatal(err)
	}
	if res["played"] != 128 {
		t.Fatalf("played = %d", res["played"])
	}
	if spk.SamplesPlayed() != 128 {
		t.Fatalf("speaker consumed %d", spk.SamplesPlayed())
	}
	// Oversized and empty payloads rejected.
	big, _ := json.Marshal(map[string][]byte{"PCM": make([]byte, 3<<20)})
	if _, _, err := app.Call(h, CmdPlayAudio, big); err == nil {
		t.Fatal("oversized playback accepted")
	}
	empty, _ := json.Marshal(map[string][]byte{"PCM": nil})
	if _, _, err := app.Call(h, CmdPlayAudio, empty); err == nil {
		t.Fatal("empty playback accepted")
	}
	_ = dc
}

func TestSpeakerAbsent(t *testing.T) {
	// Without speaker hardware, playback fails cleanly; everything else
	// works (the prototype drone has no speaker).
	e := newEnv(t, 1, nil)
	vd := e.vds[0]
	const uid = 10001
	vd.ActivityManager().Grant(uid, android.PermAudio)
	app := android.NewClient(vd.Namespace(), uid)
	h, _ := app.GetService(SvcAudioFlinger)
	req, _ := json.Marshal(map[string][]byte{"PCM": make([]byte, 16)})
	if _, _, err := app.Call(h, CmdPlayAudio, req); err == nil {
		t.Fatal("playback succeeded without hardware")
	}
}
