package devices

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"androne/internal/geo"
)

// fakeWorld is a static WorldSource for device tests.
type fakeWorld struct {
	pos        geo.Position
	vn, ve, vd float64
	r, p, y    float64
	ax, ay, az float64
	gx, gy, gz float64
	now        time.Time
}

func (w *fakeWorld) Position() geo.Position                   { return w.pos }
func (w *fakeWorld) VelocityNED() (float64, float64, float64) { return w.vn, w.ve, w.vd }
func (w *fakeWorld) Attitude() (float64, float64, float64)    { return w.r, w.p, w.y }
func (w *fakeWorld) AccelBody() (float64, float64, float64)   { return w.ax, w.ay, w.az }
func (w *fakeWorld) GyroBody() (float64, float64, float64)    { return w.gx, w.gy, w.gz }
func (w *fakeWorld) Now() time.Time                           { return w.now }

func testWorld() *fakeWorld {
	return &fakeWorld{
		pos: geo.Position{LatLon: geo.LatLon{Lat: 43.6084298, Lon: -85.8110359}, Alt: 15},
		vn:  1, ve: 2, vd: -0.5,
		az:  -9.81,
		now: time.Unix(1700000000, 0),
	}
}

func TestRegistryExclusiveOpen(t *testing.T) {
	w := testWorld()
	r := NewRegistry()
	r.Add(NewCamera("camera0", w, 64, 48))

	d, err := r.Open("camera0", "devcon")
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind() != KindCamera {
		t.Fatalf("kind = %v", d.Kind())
	}
	if _, err := r.Open("camera0", "vd1"); !errors.Is(err, ErrBusy) {
		t.Fatalf("second open: %v, want ErrBusy", err)
	}
	h, ok := r.Holder("camera0")
	if !ok || h != "devcon" {
		t.Fatalf("holder = %q, %v", h, ok)
	}
	if err := r.Close("camera0", "vd1"); err == nil {
		t.Fatal("close by non-holder succeeded")
	}
	if err := r.Close("camera0", "devcon"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open("camera0", "vd1"); err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
}

func TestRegistryUnknownDevice(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Open("nope", "x"); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("err = %v, want ErrNoDevice", err)
	}
}

func TestRegistryListAndByKind(t *testing.T) {
	w := testWorld()
	r := NewRegistry()
	r.Add(NewCamera("camera0", w, 64, 48))
	r.Add(NewGPS("gps0", w, 0))
	r.Add(NewIMU("imu0", w, 0, 0))
	r.Add(NewIMU("imu1", w, 0, 0))

	if got := r.List(); len(got) != 4 || got[0] != "camera0" {
		t.Fatalf("List = %v", got)
	}
	if got := r.ByKind(KindIMU); len(got) != 2 || got[0] != "imu0" || got[1] != "imu1" {
		t.Fatalf("ByKind(imu) = %v", got)
	}
	if got := r.ByKind(KindGPS); len(got) != 1 {
		t.Fatalf("ByKind(gps) = %v", got)
	}
}

func TestGPSPerfect(t *testing.T) {
	w := testWorld()
	g := NewGPS("gps0", w, 0)
	fix := g.Read()
	if fix.Position != w.pos {
		t.Fatalf("fix position = %v, want %v", fix.Position, w.pos)
	}
	if fix.VelN != 1 || fix.VelE != 2 || fix.VelD != -0.5 {
		t.Fatalf("fix velocity = %v %v %v", fix.VelN, fix.VelE, fix.VelD)
	}
	if fix.Satellites < 4 {
		t.Fatalf("satellites = %d", fix.Satellites)
	}
	if !fix.Time.Equal(w.now) {
		t.Fatalf("fix time = %v", fix.Time)
	}
}

func TestGPSNoiseBounded(t *testing.T) {
	w := testWorld()
	g := NewGPS("gps0", w, 1.5)
	var sumSq float64
	const n = 2000
	for i := 0; i < n; i++ {
		fix := g.Read()
		d := geo.Distance(w.pos.LatLon, fix.Position.LatLon)
		sumSq += d * d
		if d > 15 {
			t.Fatalf("sample %d: %g m error with 1.5 m sigma", i, d)
		}
	}
	// RMS horizontal error for 2D gaussian with sigma=1.5 each axis is
	// sigma*sqrt(2) ~ 2.12.
	rms := math.Sqrt(sumSq / n)
	if rms < 1.5 || rms > 3.0 {
		t.Fatalf("RMS error = %g, want ~2.1", rms)
	}
}

func TestGPSNoiseDeterministic(t *testing.T) {
	w := testWorld()
	g1 := NewGPS("gps0", w, 1.5)
	g2 := NewGPS("gps0", w, 1.5)
	for i := 0; i < 10; i++ {
		f1, f2 := g1.Read(), g2.Read()
		if f1.Position != f2.Position {
			t.Fatalf("same-named GPS diverged at sample %d", i)
		}
	}
}

func TestIMU(t *testing.T) {
	w := testWorld()
	m := NewIMU("imu0", w, 0, 0)
	s := m.Read()
	if s.AccelZ != -9.81 {
		t.Fatalf("accelZ = %g", s.AccelZ)
	}
	if s.GyroX != 0 || s.GyroY != 0 || s.GyroZ != 0 {
		t.Fatalf("gyro = %v %v %v", s.GyroX, s.GyroY, s.GyroZ)
	}
	// With noise, the mean converges to truth.
	mn := NewIMU("imu-noisy", w, 0.05, 0.002)
	var sum float64
	const n = 5000
	for i := 0; i < n; i++ {
		sum += mn.Read().AccelZ
	}
	if mean := sum / n; math.Abs(mean+9.81) > 0.01 {
		t.Fatalf("noisy accelZ mean = %g, want ~-9.81", mean)
	}
}

func TestBarometerAtmosphere(t *testing.T) {
	if p := PressureAt(0); math.Abs(p-SeaLevelPressure) > 1 {
		t.Fatalf("sea level pressure = %g", p)
	}
	// Standard atmosphere: ~89875 Pa at 1000 m.
	if p := PressureAt(1000); math.Abs(p-89875) > 200 {
		t.Fatalf("pressure at 1000m = %g, want ~89875", p)
	}
	// Round trip.
	for _, alt := range []float64{0, 15, 120, 1000, 4000} {
		got := AltitudeFor(PressureAt(alt))
		if math.Abs(got-alt) > 0.01 {
			t.Fatalf("AltitudeFor(PressureAt(%g)) = %g", alt, got)
		}
	}
}

func TestBarometerRead(t *testing.T) {
	w := testWorld() // 15 m above home
	b := NewBarometer("baro0", w, 250, 0)
	got := b.Read()
	want := PressureAt(265)
	if math.Abs(got-want) > 0.5 {
		t.Fatalf("baro = %g, want %g", got, want)
	}
}

// TestNoiselessSensorsSkipPRNG pins the noiseless fast path: a σ=0 IMU
// and barometer return exactly the world values and leave their PRNG
// untouched, while a noisy twin does draw.
func TestNoiselessSensorsSkipPRNG(t *testing.T) {
	w := testWorld()
	w.ax, w.ay, w.az = 0.125, -0.25, -9.81
	w.gx, w.gy, w.gz = 0.01, -0.02, 0.03
	m := NewIMU("imu0", w, 0, 0)
	b := NewBarometer("baro0", w, 250, 0)
	imuState, baroState := m.rng.state, b.rng.state
	for i := 0; i < 3; i++ {
		got := m.Read()
		want := IMUSample{AccelX: w.ax, AccelY: w.ay, AccelZ: w.az, GyroX: w.gx, GyroY: w.gy, GyroZ: w.gz, Time: w.now}
		if got != want {
			t.Fatalf("noiseless IMU read %+v, want %+v", got, want)
		}
		if got, want := b.Read(), PressureAt(265); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("noiseless baro read %v, want %v", got, want)
		}
	}
	if m.rng.state != imuState || m.rng.has || b.rng.state != baroState || b.rng.has {
		t.Fatal("a noiseless sensor advanced its PRNG")
	}

	noisy := NewIMU("imu-noisy", w, 0, 0.002)
	before := noisy.rng.state
	noisy.Read()
	if noisy.rng.state == before {
		t.Fatal("a noisy IMU did not draw from its PRNG")
	}
}

func TestMagnetometer(t *testing.T) {
	w := testWorld()
	m := NewMagnetometer("mag0", w)
	w.y = 0
	if h := m.HeadingDeg(); math.Abs(h) > 1e-9 {
		t.Fatalf("heading at yaw 0 = %g", h)
	}
	w.y = math.Pi / 2
	if h := m.HeadingDeg(); math.Abs(h-90) > 1e-9 {
		t.Fatalf("heading at yaw pi/2 = %g", h)
	}
	w.y = -math.Pi / 2
	if h := m.HeadingDeg(); math.Abs(h-270) > 1e-9 {
		t.Fatalf("heading at yaw -pi/2 = %g", h)
	}
}

func TestCameraFrames(t *testing.T) {
	w := testWorld()
	c := NewCamera("camera0", w, 64, 48)
	f1 := c.Capture()
	f2 := c.Capture()
	if f1.Seq != 1 || f2.Seq != 2 {
		t.Fatalf("sequence = %d, %d", f1.Seq, f2.Seq)
	}
	if len(f1.Pixels) != 64*48 {
		t.Fatalf("pixel count = %d", len(f1.Pixels))
	}
	if bytes.Equal(f1.Pixels, f2.Pixels) {
		t.Fatal("consecutive frames identical")
	}
	if f1.Position != w.pos {
		t.Fatalf("frame position = %v", f1.Position)
	}
	// Frames are deterministic given identical world state and sequence.
	c2 := NewCamera("camera1", w, 64, 48)
	g1 := c2.Capture()
	if !bytes.Equal(f1.Pixels, g1.Pixels) {
		t.Fatal("same state produced different frames")
	}
	// Moving the drone changes the frame.
	w.pos.Alt = 30
	f3 := c.Capture()
	w.pos.Alt = 15
	f4 := c.Capture()
	if bytes.Equal(f3.Pixels, f4.Pixels) {
		t.Fatal("different positions produced identical frames")
	}
}

func TestMicrophone(t *testing.T) {
	w := testWorld()
	m := NewMicrophone("mic0", w, 44100)
	buf := make([]byte, 44100*2) // one second
	n := m.Read(buf)
	if n != 44100 {
		t.Fatalf("samples = %d", n)
	}
	// Verify non-silence and bounded amplitude.
	var maxAmp int16
	for i := 0; i < n; i++ {
		s := int16(uint16(buf[2*i]) | uint16(buf[2*i+1])<<8)
		if s > maxAmp {
			maxAmp = s
		}
	}
	if maxAmp < 10000 || maxAmp > 16001 {
		t.Fatalf("max amplitude = %d", maxAmp)
	}
}

func TestFramebuffer(t *testing.T) {
	f := NewFramebuffer("fb0", 4, 4)
	if f.Kind() != KindFramebuffer {
		t.Fatal("kind")
	}
	// An untouched framebuffer reads as zeros, clamped like a written one.
	dirty := []byte{7, 7, 7, 7, 7}
	if n := f.Read(4*4*4-3, dirty); n != 3 || !bytes.Equal(dirty, []byte{0, 0, 0, 7, 7}) {
		t.Fatalf("untouched read = %d %v", n, dirty)
	}
	if n := f.Read(4*4*4, dirty); n != 0 {
		t.Fatalf("past-end read = %d", n)
	}
	n := f.Write(0, []byte{1, 2, 3, 4})
	if n != 4 {
		t.Fatalf("wrote %d", n)
	}
	out := make([]byte, 4)
	f.Read(0, out)
	if !bytes.Equal(out, []byte{1, 2, 3, 4}) {
		t.Fatalf("read back %v", out)
	}
	// Out-of-range handling.
	if n := f.Write(-1, []byte{1}); n != 0 {
		t.Fatalf("negative offset wrote %d", n)
	}
	if n := f.Write(4*4*4, []byte{1}); n != 0 {
		t.Fatalf("past-end offset wrote %d", n)
	}
	if n := f.Write(4*4*4-2, []byte{9, 9, 9, 9}); n != 2 {
		t.Fatalf("clamped write = %d, want 2", n)
	}
}

func TestPRNGGaussMoments(t *testing.T) {
	p := newPRNG("moments")
	var sum, sumSq float64
	const n = 50000
	for i := 0; i < n; i++ {
		v := p.gauss()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("gauss mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("gauss variance = %g", variance)
	}
}

// TestFramebufferCommitsOnWrite pins the lazy commit: building and
// reading a framebuffer allocates far less than its region, and the
// region appears on the first write.
func TestFramebufferCommitsOnWrite(t *testing.T) {
	const w, h = 320, 240
	fbs := make([]*Framebuffer, 8)
	out := make([]byte, 4)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range fbs {
		fbs[i] = NewFramebuffer("fb", w, h)
		fbs[i].Read(0, out)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > w*h*4/8 {
		t.Fatalf("%d untouched framebuffers allocated %d bytes", len(fbs), got)
	}
	f := fbs[0]
	f.Write(w*h*4-1, []byte{5})
	if n := f.Read(w*h*4-2, out); n != 2 || out[0] != 0 || out[1] != 5 {
		t.Fatalf("read after write = %d %v", n, out[:2])
	}
}
