// Package devices models the physical drone hardware AnDrone multiplexes:
// camera, GPS, inertial and environmental sensors, microphone, and the
// virtual framebuffer. Devices read from a WorldSource — implemented by the
// SITL physics simulation — exactly as real drivers read from hardware, and
// are collected in a Registry that enforces the paper's invariant that each
// physical device believes it is used by one task at a time: only the device
// container opens devices; everything else goes through its services.
package devices

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"androne/internal/geo"
)

// Kind classifies a device.
type Kind string

// Device kinds present on the prototype drone.
const (
	KindCamera        Kind = "camera"
	KindGPS           Kind = "gps"
	KindIMU           Kind = "imu"
	KindBarometer     Kind = "barometer"
	KindMagnetometer  Kind = "magnetometer"
	KindMicrophone    Kind = "microphone"
	KindSpeaker       Kind = "speaker"
	KindFramebuffer   Kind = "framebuffer"
	KindFlightControl Kind = "flight-control"
)

// Device is a piece of drone hardware.
type Device interface {
	// Name is the device's registry name, e.g. "camera0".
	Name() string
	// Kind classifies the device.
	Kind() Kind
}

// WorldSource supplies ground-truth physical state to device models, the
// role drone hardware buses play for real drivers. The SITL simulation
// implements it.
type WorldSource interface {
	// Position is the drone's current geodetic position.
	Position() geo.Position
	// VelocityNED is the drone's velocity in north/east/down m/s.
	VelocityNED() (n, e, d float64)
	// Attitude is roll/pitch/yaw in radians.
	Attitude() (roll, pitch, yaw float64)
	// AccelBody is body-frame specific force in m/s^2.
	AccelBody() (x, y, z float64)
	// GyroBody is body-frame angular rate in rad/s.
	GyroBody() (x, y, z float64)
	// Now is the current simulation time.
	Now() time.Time
}

// Errors returned by the registry.
var (
	ErrNoDevice = errors.New("devices: no such device")
	ErrBusy     = errors.New("devices: device busy")
)

// Registry holds the physical devices and enforces exclusive opens: the
// drone-specific hardware/software stack is not designed for multiplexing,
// so only one holder — in AnDrone, always the device container — may have a
// device open.
//
// The device set is populated at bring-up and then read on every sensor
// and service path, so it lives in a copy-on-write snapshot behind an
// atomic pointer: lookups (Open's resolution, Lookup, List, ByKind) load
// the snapshot with no lock, and Add clones-then-swaps under r.mu. The
// open/close book-keeping is genuinely mutable state and stays under r.mu.
type Registry struct {
	// devices is the COW snapshot of name → device; never mutated in
	// place (see the locksafe COW rule).
	devices atomic.Pointer[map[string]Device]

	mu     sync.Mutex
	opened map[string]string // device name -> holder
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{opened: make(map[string]string)}
	empty := make(map[string]Device)
	r.devices.Store(&empty)
	return r
}

// Add registers a device under its name. The device's identity methods are
// consulted before taking the lock: Device is an interface, and the
// registry must never call out through one while holding r.mu. The
// snapshot is cloned, extended, and republished so concurrent readers keep
// a frozen view.
func (r *Registry) Add(d Device) {
	name := d.Name()
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.devices.Load()
	next := make(map[string]Device, len(cur)+1)
	for k, v := range cur { //vet:allow detguard copy-on-write map clone; order-independent
		next[k] = v
	}
	next[name] = d
	r.devices.Store(&next)
}

// Lookup returns a registered device without opening it. Lock-free.
func (r *Registry) Lookup(name string) (Device, bool) {
	d, ok := (*r.devices.Load())[name]
	return d, ok
}

// Open acquires exclusive access to a device for holder. Device resolution
// reads the snapshot; only the exclusivity book-keeping takes r.mu.
func (r *Registry) Open(name, holder string) (Device, error) {
	d, ok := (*r.devices.Load())[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoDevice, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, busy := r.opened[name]; busy {
		return nil, fmt.Errorf("%w: %q held by %q", ErrBusy, name, cur)
	}
	r.opened[name] = holder
	return d, nil
}

// Close releases a device held by holder.
func (r *Registry) Close(name, holder string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.opened[name]
	if !ok || cur != holder {
		return fmt.Errorf("%w: %q not held by %q", ErrNoDevice, name, holder)
	}
	delete(r.opened, name)
	return nil
}

// Holder returns who has the device open, if anyone.
func (r *Registry) Holder(name string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.opened[name]
	return h, ok
}

// List returns the registered device names, sorted. Lock-free.
func (r *Registry) List() []string {
	cur := *r.devices.Load()
	out := make([]string, 0, len(cur))
	for n := range cur {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ByKind returns the names of devices of the given kind, sorted. The Kind
// calls — arbitrary interface code — run against the frozen snapshot with
// no registry lock held.
func (r *Registry) ByKind(k Kind) []string {
	var out []string
	for n, d := range *r.devices.Load() {
		if d.Kind() == k {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// GPS

// Fix is a GPS reading.
type Fix struct {
	Position   geo.Position
	VelN, VelE float64 // m/s
	VelD       float64 // m/s, positive down
	Satellites int
	Time       time.Time
}

// GPS is a GNSS receiver model with configurable horizontal noise.
type GPS struct {
	name     string
	world    WorldSource
	NoiseStd float64 // meters, 1-sigma horizontal
	rng      *prng
}

// NewGPS creates a GPS named name reading from world, with noiseStd meters
// of 1-sigma horizontal noise (0 for a perfect receiver).
func NewGPS(name string, world WorldSource, noiseStd float64) *GPS {
	return &GPS{name: name, world: world, NoiseStd: noiseStd, rng: newPRNG(name)}
}

// Name implements Device.
func (g *GPS) Name() string { return g.name }

// Kind implements Device.
func (g *GPS) Kind() Kind { return KindGPS }

// Read returns the current fix.
func (g *GPS) Read() Fix {
	p := g.world.Position()
	if g.NoiseStd > 0 {
		p.LatLon = geo.OffsetNE(p.LatLon, g.rng.gauss()*g.NoiseStd, g.rng.gauss()*g.NoiseStd)
		p.Alt += g.rng.gauss() * g.NoiseStd * 1.5
	}
	n, e, d := g.world.VelocityNED()
	return Fix{Position: p, VelN: n, VelE: e, VelD: d, Satellites: 12, Time: g.world.Now()}
}

// ---------------------------------------------------------------------------
// IMU

// IMUSample is one inertial reading.
type IMUSample struct {
	AccelX, AccelY, AccelZ float64 // m/s^2, body frame
	GyroX, GyroY, GyroZ    float64 // rad/s, body frame
	Time                   time.Time
}

// IMU is an inertial measurement unit model with white noise.
type IMU struct {
	name          string
	world         WorldSource
	AccelNoiseStd float64 // m/s^2
	GyroNoiseStd  float64 // rad/s
	rng           *prng
}

// NewIMU creates an IMU reading from world. Noise levels of zero give a
// perfect sensor.
func NewIMU(name string, world WorldSource, accelStd, gyroStd float64) *IMU {
	return &IMU{name: name, world: world, AccelNoiseStd: accelStd, GyroNoiseStd: gyroStd, rng: newPRNG(name)}
}

// Name implements Device.
func (m *IMU) Name() string { return m.name }

// Kind implements Device.
func (m *IMU) Kind() Kind { return KindIMU }

// Read returns one sample. A noiseless IMU returns the world values and
// draws nothing from its PRNG.
func (m *IMU) Read() IMUSample {
	ax, ay, az := m.world.AccelBody()
	gx, gy, gz := m.world.GyroBody()
	if m.AccelNoiseStd == 0 && m.GyroNoiseStd == 0 {
		return IMUSample{AccelX: ax, AccelY: ay, AccelZ: az, GyroX: gx, GyroY: gy, GyroZ: gz, Time: m.world.Now()}
	}
	return IMUSample{
		AccelX: ax + m.rng.gauss()*m.AccelNoiseStd,
		AccelY: ay + m.rng.gauss()*m.AccelNoiseStd,
		AccelZ: az + m.rng.gauss()*m.AccelNoiseStd,
		GyroX:  gx + m.rng.gauss()*m.GyroNoiseStd,
		GyroY:  gy + m.rng.gauss()*m.GyroNoiseStd,
		GyroZ:  gz + m.rng.gauss()*m.GyroNoiseStd,
		Time:   m.world.Now(),
	}
}

// ---------------------------------------------------------------------------
// Barometer

// SeaLevelPressure is standard sea-level pressure in Pa.
const SeaLevelPressure = 101325.0

// Barometer converts altitude to pressure with the standard atmosphere.
type Barometer struct {
	name     string
	world    WorldSource
	BaseAlt  float64 // field elevation of the home plane, meters MSL
	NoiseStd float64 // Pa
	rng      *prng
}

// NewBarometer creates a barometer for a home plane at baseAlt meters MSL.
func NewBarometer(name string, world WorldSource, baseAlt, noiseStd float64) *Barometer {
	return &Barometer{name: name, world: world, BaseAlt: baseAlt, NoiseStd: noiseStd, rng: newPRNG(name)}
}

// Name implements Device.
func (b *Barometer) Name() string { return b.name }

// Kind implements Device.
func (b *Barometer) Kind() Kind { return KindBarometer }

// PressureAt returns standard-atmosphere pressure in Pa at altMSL meters.
func PressureAt(altMSL float64) float64 {
	return SeaLevelPressure * math.Pow(1-2.25577e-5*altMSL, 5.25588)
}

// AltitudeFor inverts PressureAt, returning altitude MSL in meters.
func AltitudeFor(pressure float64) float64 {
	return (1 - math.Pow(pressure/SeaLevelPressure, 1/5.25588)) / 2.25577e-5
}

// Read returns the current pressure in Pa. A noiseless barometer draws
// nothing from its PRNG.
func (b *Barometer) Read() float64 {
	alt := b.BaseAlt + b.world.Position().Alt
	if b.NoiseStd == 0 {
		return PressureAt(alt)
	}
	return PressureAt(alt) + b.rng.gauss()*b.NoiseStd
}

// ---------------------------------------------------------------------------
// Magnetometer

// Magnetometer reads heading from yaw, modeling a compass.
type Magnetometer struct {
	name  string
	world WorldSource
}

// NewMagnetometer creates a magnetometer reading from world.
func NewMagnetometer(name string, world WorldSource) *Magnetometer {
	return &Magnetometer{name: name, world: world}
}

// Name implements Device.
func (m *Magnetometer) Name() string { return m.name }

// Kind implements Device.
func (m *Magnetometer) Kind() Kind { return KindMagnetometer }

// HeadingDeg returns magnetic heading in degrees [0, 360).
func (m *Magnetometer) HeadingDeg() float64 {
	_, _, yaw := m.world.Attitude()
	deg := yaw * 180 / math.Pi
	return math.Mod(deg+360, 360)
}

// ---------------------------------------------------------------------------
// Camera

// Frame is a captured camera frame. Pixels are synthetic but deterministic:
// a hash of position, attitude, and sequence, so tests can verify capture
// plumbing end to end.
type Frame struct {
	Seq      uint64
	Width    int
	Height   int
	Position geo.Position
	Time     time.Time
	Pixels   []byte
}

// Camera is the drone camera model (Raspberry Pi Camera Module v2 class).
// Like the rest of a drone's stack it has one owner, the goroutine that
// steps the drone, so Capture takes no lock.
type Camera struct {
	name          string
	world         WorldSource
	Width, Height int

	seq uint64
}

// NewCamera creates a camera producing width x height frames.
func NewCamera(name string, world WorldSource, width, height int) *Camera {
	return &Camera{name: name, world: world, Width: width, Height: height}
}

// Name implements Device.
func (c *Camera) Name() string { return c.name }

// Kind implements Device.
func (c *Camera) Kind() Kind { return KindCamera }

// Capture grabs one frame. Frames carry the position they were taken at,
// which survey apps embed in their outputs.
func (c *Camera) Capture() Frame {
	c.seq++
	seq := c.seq
	p := c.world.Position()
	roll, pitch, yaw := c.world.Attitude()

	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []float64{p.Lat, p.Lon, p.Alt, roll, pitch, yaw, float64(seq)} {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	seed := h.Sum64()
	pixels := make([]byte, c.Width*c.Height)
	state := seed
	for i := range pixels {
		// xorshift64 keeps frame generation cheap and deterministic.
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		pixels[i] = byte(state)
	}
	return Frame{Seq: seq, Width: c.Width, Height: c.Height, Position: p, Time: c.world.Now(), Pixels: pixels}
}

// frameHeaderLen is the size of a frame's wire header: seq, width,
// height, the float64 bits of lat, lon and alt, and the capture time in
// unix nanoseconds, each eight little-endian bytes.
const frameHeaderLen = 7 * 8

// ErrBadFrame reports frame bytes that DecodeFrame cannot accept.
var ErrBadFrame = errors.New("devices: malformed frame")

// AppendFrame appends f's wire form — the fixed header, then the raw
// pixels — to dst. This is how the camera service hands a frame across
// Binder: the pixels are copied once, never serialised.
func AppendFrame(dst []byte, f Frame) []byte {
	dst = slices.Grow(dst, frameHeaderLen+len(f.Pixels))
	le := binary.LittleEndian
	dst = le.AppendUint64(dst, f.Seq)
	dst = le.AppendUint64(dst, uint64(int64(f.Width)))
	dst = le.AppendUint64(dst, uint64(int64(f.Height)))
	dst = le.AppendUint64(dst, math.Float64bits(f.Position.Lat))
	dst = le.AppendUint64(dst, math.Float64bits(f.Position.Lon))
	dst = le.AppendUint64(dst, math.Float64bits(f.Position.Alt))
	dst = le.AppendUint64(dst, uint64(f.Time.UnixNano()))
	return append(dst, f.Pixels...)
}

// DecodeFrame parses the wire form AppendFrame writes. The bytes come
// from another container, so every field is checked: a short header,
// negative dimensions, dimensions whose product overflows int, and a
// pixel payload of any length but width×height are all ErrBadFrame. The
// returned frame's Pixels alias b.
func DecodeFrame(b []byte) (Frame, error) {
	if len(b) < frameHeaderLen {
		return Frame{}, fmt.Errorf("%w: %d bytes, header needs %d", ErrBadFrame, len(b), frameHeaderLen)
	}
	le := binary.LittleEndian
	w, h := int64(le.Uint64(b[8:])), int64(le.Uint64(b[16:]))
	if w < 0 || h < 0 {
		return Frame{}, fmt.Errorf("%w: negative size %dx%d", ErrBadFrame, w, h)
	}
	if w > math.MaxInt || h > math.MaxInt || (w > 0 && h > math.MaxInt/w) {
		return Frame{}, fmt.Errorf("%w: size %dx%d overflows int", ErrBadFrame, w, h)
	}
	pixels := b[frameHeaderLen:]
	if n := int(w) * int(h); n != len(pixels) {
		return Frame{}, fmt.Errorf("%w: %dx%d needs %d pixel bytes, got %d", ErrBadFrame, w, h, n, len(pixels))
	}
	return Frame{
		Seq:    le.Uint64(b),
		Width:  int(w),
		Height: int(h),
		Position: geo.Position{
			LatLon: geo.LatLon{Lat: math.Float64frombits(le.Uint64(b[24:])), Lon: math.Float64frombits(le.Uint64(b[32:]))},
			Alt:    math.Float64frombits(le.Uint64(b[40:])),
		},
		Time:   time.Unix(0, int64(le.Uint64(b[48:]))),
		Pixels: pixels,
	}, nil
}

// ---------------------------------------------------------------------------
// Microphone

// Microphone generates synthetic PCM audio (a 440 Hz tone) so the
// AudioFlinger path can be exercised.
type Microphone struct {
	name       string
	world      WorldSource
	SampleRate int

	mu    sync.Mutex
	phase float64
}

// NewMicrophone creates a microphone with the given sample rate.
func NewMicrophone(name string, world WorldSource, sampleRate int) *Microphone {
	return &Microphone{name: name, world: world, SampleRate: sampleRate}
}

// Name implements Device.
func (m *Microphone) Name() string { return m.name }

// Kind implements Device.
func (m *Microphone) Kind() Kind { return KindMicrophone }

// Read fills out with 16-bit little-endian PCM samples and returns the
// number of samples written.
func (m *Microphone) Read(out []byte) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(out) / 2
	step := 2 * math.Pi * 440 / float64(m.SampleRate)
	for i := 0; i < n; i++ {
		s := int16(math.Sin(m.phase) * 16000)
		binary.LittleEndian.PutUint16(out[2*i:], uint16(s))
		m.phase += step
	}
	if m.phase > 2*math.Pi {
		m.phase -= 2 * math.Pi * math.Floor(m.phase/(2*math.Pi))
	}
	return n
}

// ---------------------------------------------------------------------------
// Speaker

// Speaker is the audio output device: PCM written to it is accumulated (and
// would drive a physical transducer). AudioFlinger multiplexes playback from
// multiple containers onto it.
type Speaker struct {
	name       string
	SampleRate int

	mu            sync.Mutex
	samplesPlayed int64
	lastAmplitude int16
}

// NewSpeaker creates a speaker with the given sample rate.
func NewSpeaker(name string, sampleRate int) *Speaker {
	return &Speaker{name: name, SampleRate: sampleRate}
}

// Name implements Device.
func (s *Speaker) Name() string { return s.name }

// Kind implements Device.
func (s *Speaker) Kind() Kind { return KindSpeaker }

// Play consumes 16-bit little-endian PCM and returns the number of samples
// played.
func (s *Speaker) Play(pcm []byte) int {
	n := len(pcm) / 2
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samplesPlayed += int64(n)
	if n > 0 {
		s.lastAmplitude = int16(uint16(pcm[2*(n-1)]) | uint16(pcm[2*(n-1)+1])<<8)
	}
	return n
}

// SamplesPlayed returns the total samples consumed.
func (s *Speaker) SamplesPlayed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samplesPlayed
}

// ---------------------------------------------------------------------------
// Framebuffer

// Framebuffer is the virtual framebuffer each virtual drone container gets:
// drones are headless, so the framebuffer is just a memory region that
// contents can be written to, with no hardware behind it. The region is
// committed on first write, as an OS maps a zero page until a store
// touches it: until then reads return zeros, so a virtual drone that
// never draws (every one today) does not carry its width x height x 4
// bytes for its whole life.
type Framebuffer struct {
	name          string
	Width, Height int

	mu  sync.Mutex
	mem []byte // nil until the first in-range Write
}

// NewFramebuffer returns a width x height x 4 (RGBA) virtual framebuffer
// whose memory is allocated on first write.
func NewFramebuffer(name string, width, height int) *Framebuffer {
	return &Framebuffer{name: name, Width: width, Height: height}
}

// Name implements Device.
func (f *Framebuffer) Name() string { return f.name }

// Kind implements Device.
func (f *Framebuffer) Kind() Kind { return KindFramebuffer }

// size is the region's length in bytes.
func (f *Framebuffer) size() int { return f.Width * f.Height * 4 }

// Write copies data into the framebuffer at offset, clamping to the region.
func (f *Framebuffer) Write(offset int, data []byte) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if offset < 0 || offset >= f.size() {
		return 0
	}
	if f.mem == nil {
		f.mem = make([]byte, f.size())
	}
	return copy(f.mem[offset:], data)
}

// Read copies framebuffer contents from offset into out.
func (f *Framebuffer) Read(offset int, out []byte) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if offset < 0 || offset >= f.size() {
		return 0
	}
	if f.mem == nil {
		n := min(len(out), f.size()-offset)
		clear(out[:n])
		return n
	}
	return copy(out, f.mem[offset:])
}

// ---------------------------------------------------------------------------
// Deterministic noise

// prng is a small deterministic Gaussian generator seeded from a name, so
// device noise is reproducible per device without global state.
type prng struct {
	mu    sync.Mutex
	state uint64
	spare float64
	has   bool
}

func newPRNG(seed string) *prng {
	h := fnv.New64a()
	h.Write([]byte(seed))
	s := h.Sum64()
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &prng{state: s}
}

func (p *prng) next() uint64 {
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	return p.state
}

// uniform returns a float64 in (0, 1).
func (p *prng) uniform() float64 {
	return (float64(p.next()>>11) + 0.5) / (1 << 53)
}

// gauss returns a standard normal variate (Box-Muller).
func (p *prng) gauss() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.has {
		p.has = false
		return p.spare
	}
	u1, u2 := p.uniform(), p.uniform()
	r := math.Sqrt(-2 * math.Log(u1))
	p.spare = r * math.Sin(2*math.Pi*u2)
	p.has = true
	return r * math.Cos(2*math.Pi*u2)
}
