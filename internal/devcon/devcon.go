// Package devcon implements AnDrone's device container: a special container
// running a minimal Android instance with direct access to hardware devices,
// hosting the single set of Android device services and multiplexing them to
// every virtual drone container.
//
// The device container's ServiceManager publishes the services in the shared
// list (paper Table 1) to all namespaces via the PUBLISH_TO_ALL_NS ioctl.
// Virtual drone ServiceManagers publish their ActivityManager to the device
// container via PUBLISH_TO_DEV_CON so device services can route
// checkPermission() calls back to the *calling* container's ActivityManager
// — identified by the container id Binder stamps on each transaction — and
// additionally query the VDC's device-access policy.
package devcon

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"androne/internal/android"
	"androne/internal/binder"
	"androne/internal/devices"
	"androne/internal/telemetry"
)

// NamespaceName is the device container's Binder namespace.
const NamespaceName = "devcon"

// Shared device service names and the devices they manage (paper Table 1).
const (
	SvcAudioFlinger    = "media.audio_flinger" // microphone, speakers
	SvcCamera          = "media.camera"        // camera
	SvcLocationManager = "location"            // GPS
	SvcSensorService   = "sensorservice"       // motion, environmental sensors
)

// SharedServices is the pre-specified list of services the device
// container's ServiceManager publishes to all namespaces.
var SharedServices = []string{SvcAudioFlinger, SvcCamera, SvcLocationManager, SvcSensorService}

// ServiceDevices maps each shared service to the devices it manages,
// regenerating paper Table 1.
var ServiceDevices = map[string][]devices.Kind{
	SvcAudioFlinger:    {devices.KindMicrophone, devices.KindSpeaker},
	SvcCamera:          {devices.KindCamera},
	SvcLocationManager: {devices.KindGPS},
	SvcSensorService:   {devices.KindIMU, devices.KindBarometer, devices.KindMagnetometer},
}

// Device service command codes.
const (
	CmdCapture = binder.CodeUser + 16 + iota
	CmdGetFix
	CmdReadIMU
	CmdReadBaro
	CmdReadMag
	CmdReadAudio
	CmdPlayAudio
	CmdRelease
)

// Errors.
var (
	ErrPermissionDenied = errors.New("devcon: permission denied")
	ErrPolicyDenied     = errors.New("devcon: device access denied by VDC policy")
)

// Policy is the VDC's device-access decision interface: checkPermission()
// in the device container queries it in addition to the calling container's
// ActivityManager, so device access can be granted or revoked per waypoint.
type Policy interface {
	// AllowDevice reports whether the container may use the device kind now.
	AllowDevice(container string, kind devices.Kind) bool
}

// AllowAll is a Policy that grants everything — the configuration of a
// vanilla Android instance without the VDC.
type AllowAll struct{}

// AllowDevice implements Policy.
func (AllowAll) AllowDevice(string, devices.Kind) bool { return true }

// PolicyFunc adapts a function to Policy.
type PolicyFunc func(container string, kind devices.Kind) bool

// AllowDevice implements Policy.
func (f PolicyFunc) AllowDevice(c string, k devices.Kind) bool { return f(c, k) }

// DeviceContainer is the running device container.
type DeviceContainer struct {
	inst *android.Instance
	reg  *devices.Registry

	mu       sync.Mutex
	policy   Policy
	services map[string]*deviceService

	// tel is the drone's flight recorder; nil when running without one.
	// Set during bring-up (SetRecorder), before tenant traffic.
	tel *telemetry.Recorder

	// hardware opened exclusively by the device container
	camera  *devices.Camera
	gps     *devices.GPS
	imu     *devices.IMU
	baro    *devices.Barometer
	mag     *devices.Magnetometer
	mic     *devices.Microphone
	speaker *devices.Speaker // optional; drones are usually speakerless
}

// New boots the device container: creates its namespace, designates it as
// the Binder device namespace, opens all hardware devices exclusively, and
// starts the shared device services with a ServiceManager hook that
// publishes them to all namespaces.
func New(d *binder.Driver, reg *devices.Registry, policy Policy) (*DeviceContainer, error) {
	if policy == nil {
		policy = AllowAll{}
	}
	ns, err := d.CreateNamespace(NamespaceName)
	if err != nil {
		return nil, err
	}
	d.SetDeviceNamespace(ns)

	dc := &DeviceContainer{reg: reg, policy: policy, services: make(map[string]*deviceService)}

	shared := make(map[string]bool, len(SharedServices))
	for _, s := range SharedServices {
		shared[s] = true
	}
	hook := func(sm *android.ServiceManager, name string, h binder.Handle) error {
		// When the device container's ServiceManager receives a new service
		// registration it checks the pre-specified shared list and publishes
		// matches to all running (and future) virtual drone namespaces. A
		// failed publish fails the registration: a device service invisible
		// to tenant namespaces (and absent from the kernel-side replay list)
		// must not come up looking healthy.
		if shared[name] {
			if err := sm.Proc().PublishToAllNS(name, h); err != nil {
				return fmt.Errorf("devcon: publishing %s to all namespaces: %w", name, err)
			}
		}
		return nil
	}
	inst, err := android.Boot(ns, android.WithServiceManagerHook(hook))
	if err != nil {
		return nil, fmt.Errorf("devcon: boot: %w", err)
	}
	dc.inst = inst

	if err := dc.openHardware(); err != nil {
		return nil, err
	}
	if err := dc.startServices(); err != nil {
		return nil, err
	}
	return dc, nil
}

// openHardware acquires exclusive access to every physical device, creating
// for each device the illusion that it is used by one task at a time.
func (dc *DeviceContainer) openHardware() error {
	open := func(kind devices.Kind) (devices.Device, error) {
		names := dc.reg.ByKind(kind)
		if len(names) == 0 {
			return nil, fmt.Errorf("devcon: no %s device", kind)
		}
		return dc.reg.Open(names[0], NamespaceName)
	}
	var err error
	grab := func(kind devices.Kind) devices.Device {
		if err != nil {
			return nil
		}
		var d devices.Device
		d, err = open(kind)
		return d
	}
	cam := grab(devices.KindCamera)
	gps := grab(devices.KindGPS)
	imu := grab(devices.KindIMU)
	baro := grab(devices.KindBarometer)
	mag := grab(devices.KindMagnetometer)
	mic := grab(devices.KindMicrophone)
	if err != nil {
		return err
	}
	dc.camera = cam.(*devices.Camera)
	dc.gps = gps.(*devices.GPS)
	dc.imu = imu.(*devices.IMU)
	dc.baro = baro.(*devices.Barometer)
	dc.mag = mag.(*devices.Magnetometer)
	dc.mic = mic.(*devices.Microphone)
	// Speaker is optional hardware.
	if names := dc.reg.ByKind(devices.KindSpeaker); len(names) > 0 {
		if d, err := dc.reg.Open(names[0], NamespaceName); err == nil {
			dc.speaker = d.(*devices.Speaker)
		}
	}
	return nil
}

func (dc *DeviceContainer) startServices() error {
	specs := []struct {
		name string
		kind devices.Kind
		perm string
	}{
		{SvcCamera, devices.KindCamera, android.PermCamera},
		{SvcLocationManager, devices.KindGPS, android.PermLocation},
		{SvcSensorService, devices.KindIMU, android.PermSensors},
		{SvcAudioFlinger, devices.KindMicrophone, android.PermAudio},
	}
	for _, s := range specs {
		svc := &deviceService{
			dc:    dc,
			name:  s.name,
			kind:  s.kind,
			perm:  s.perm,
			users: make(map[string]map[int]bool),
			ams:   make(map[string]binder.Handle),
		}
		svc.client = android.NewClient(dc.inst.Namespace(), 0)
		node := svc.client.Proc().NewNode(s.name, svc.handleTxn)
		if err := svc.client.AddService(s.name, node); err != nil {
			return fmt.Errorf("devcon: registering %s: %w", s.name, err)
		}
		dc.mu.Lock()
		dc.services[s.name] = svc
		dc.mu.Unlock()
	}
	return nil
}

// Instance returns the device container's Android instance.
func (dc *DeviceContainer) Instance() *android.Instance { return dc.inst }

// SetPolicy swaps the VDC policy (the VDC installs itself after boot).
func (dc *DeviceContainer) SetPolicy(p Policy) {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	if p == nil {
		p = AllowAll{}
	}
	dc.policy = p
}

func (dc *DeviceContainer) currentPolicy() Policy {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return dc.policy
}

// ActiveUsers returns the PIDs from container that have accessed the named
// service since their last release — what the VDC asks before terminating
// processes that ignore a revocation notice.
func (dc *DeviceContainer) ActiveUsers(service, container string) []int {
	dc.mu.Lock()
	svc := dc.services[service]
	dc.mu.Unlock()
	if svc == nil {
		return nil
	}
	return svc.activeUsers(container)
}

// ReleaseContainer clears usage tracking for a container across all
// services, and releases their handles to its ActivityManager, used when
// a virtual drone is stopped or loses its waypoint devices.
func (dc *DeviceContainer) ReleaseContainer(container string) {
	dc.mu.Lock()
	svcs := make([]*deviceService, 0, len(dc.services))
	for _, s := range dc.services { //vet:allow detguard per-service bookkeeping clear; services independent
		svcs = append(svcs, s)
	}
	dc.mu.Unlock()
	for _, s := range svcs {
		s.releaseContainer(container)
	}
}

// Table1 renders the service-to-device mapping, regenerating paper Table 1.
func Table1() []struct {
	Service string
	Devices []devices.Kind
} {
	names := make([]string, 0, len(ServiceDevices))
	for n := range ServiceDevices {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]struct {
		Service string
		Devices []devices.Kind
	}, 0, len(names))
	for _, n := range names {
		out = append(out, struct {
			Service string
			Devices []devices.Kind
		}{n, ServiceDevices[n]})
	}
	return out
}

// ---------------------------------------------------------------------------
// Device services

type deviceService struct {
	dc     *DeviceContainer
	name   string
	kind   devices.Kind
	perm   string
	client *android.Client

	mu    sync.Mutex
	users map[string]map[int]bool // container -> pids
	// ams holds the client's handle to each container's ActivityManager
	// from its first permission check until ReleaseContainer or the
	// manager's death releases it.
	ams map[string]binder.Handle
}

// checkPermission implements the modified permission check: ask the calling
// container's ActivityManager (located via its PUBLISH_TO_DEV_CON scoped
// name), then the VDC policy.
func (s *deviceService) checkPermission(sender binder.Sender) error {
	if sender.Container == NamespaceName {
		// Local callers (the flight container bridge attaches its own AM;
		// devcon-internal callers use the local one).
		local := s.dc.inst.ActivityManager()
		if !local.CheckPermission(s.perm, sender.EUID) {
			return fmt.Errorf("%w: %s for uid %d (local)", ErrPermissionDenied, s.perm, sender.EUID)
		}
	} else {
		amName := binder.ScopedName(android.ActivityService, sender.Container)
		h, err := s.client.GetService(amName)
		if err != nil {
			return fmt.Errorf("%w: no ActivityManager for container %q", ErrPermissionDenied, sender.Container)
		}
		s.holdAM(sender.Container, h)
		out, _, err := s.client.Call(h, android.CmdCheckPermission, android.CheckPermissionData(s.perm, sender.EUID))
		if err != nil {
			return fmt.Errorf("devcon: permission check: %w", err)
		}
		if string(out) != "granted" {
			return fmt.Errorf("%w: %s for uid %d in %s", ErrPermissionDenied, s.perm, sender.EUID, sender.Container)
		}
	}
	if !s.dc.currentPolicy().AllowDevice(sender.Container, s.kind) {
		return fmt.Errorf("%w: %s for %s", ErrPolicyDenied, s.kind, sender.Container)
	}
	return nil
}

// trackUse records the sender as an active user and reports whether this
// (container, pid) pair is newly acquiring the service.
func (s *deviceService) trackUse(sender binder.Sender) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	set, ok := s.users[sender.Container]
	if !ok {
		set = make(map[int]bool)
		s.users[sender.Container] = set
	}
	isNew := !set[sender.PID]
	set[sender.PID] = true
	return isNew
}

func (s *deviceService) release(sender binder.Sender) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if set, ok := s.users[sender.Container]; ok {
		delete(set, sender.PID)
		if len(set) == 0 {
			delete(s.users, sender.Container)
		}
	}
}

// holdAM records h as the client's handle to container's ActivityManager,
// linking to the manager's death the first time, so that the handle is
// released when the container goes even if ReleaseContainer never runs.
// A manager that died since the lookup is released at once.
func (s *deviceService) holdAM(container string, h binder.Handle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ams[container] == h {
		return
	}
	if err := s.client.Proc().LinkToDeath(h, func() { s.releaseAM(container, h) }); err != nil {
		_ = s.client.Proc().Release(h)
		return
	}
	s.ams[container] = h
}

// releaseAM releases h, and forgets it if it is still container's handle.
func (s *deviceService) releaseAM(container string, h binder.Handle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ams[container] == h {
		delete(s.ams, container)
	}
	_ = s.client.Proc().Release(h)
}

func (s *deviceService) releaseContainer(container string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.users, container)
	if h, ok := s.ams[container]; ok {
		delete(s.ams, container)
		_ = s.client.Proc().Release(h)
	}
}

func (s *deviceService) activeUsers(container string) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.users[container]
	out := make([]int, 0, len(set))
	for pid := range set {
		out = append(out, pid)
	}
	sort.Ints(out)
	return out
}

func (s *deviceService) handleTxn(txn binder.Txn) (binder.Reply, error) {
	if txn.Code == CmdRelease {
		s.release(txn.Sender)
		mReleases.Inc()
		s.dc.tel.Emit(telemetry.K(txn.Sender.Container), kRelease, int64(txn.Sender.PID), 0, s.name)
		return binder.Reply{}, nil
	}
	if txn.Code == binder.CodePing {
		return binder.Reply{}, nil
	}
	if err := s.checkPermission(txn.Sender); err != nil {
		mDenials.Inc()
		reason := "permission"
		if errors.Is(err, ErrPolicyDenied) {
			reason = "policy"
		}
		s.dc.tel.Emit(telemetry.K(txn.Sender.Container), kDeny, int64(txn.Sender.PID), int64(txn.Code), reason)
		return binder.Reply{}, err
	}
	reply, err := s.serve(txn)
	if err == nil && s.trackUse(txn.Sender) {
		mAcquires.Inc()
		s.dc.tel.Emit(telemetry.K(txn.Sender.Container), kAcquire, int64(txn.Sender.PID), 0, s.name)
	}
	return reply, err
}

func (s *deviceService) serve(txn binder.Txn) (binder.Reply, error) {
	dc := s.dc
	marshal := func(v any) (binder.Reply, error) {
		b, err := json.Marshal(v)
		if err != nil {
			return binder.Reply{}, err
		}
		return binder.Reply{Data: b}, nil
	}
	switch txn.Code {
	case CmdCapture:
		if s.name != SvcCamera {
			break
		}
		// Frames cross as raw bytes, as Android hands camera buffers
		// over; only the small sensor replies below are JSON.
		return binder.Reply{Data: devices.AppendFrame(nil, dc.camera.Capture())}, nil
	case CmdGetFix:
		if s.name != SvcLocationManager {
			break
		}
		return marshal(dc.gps.Read())
	case CmdReadIMU:
		if s.name != SvcSensorService {
			break
		}
		return marshal(dc.imu.Read())
	case CmdReadBaro:
		if s.name != SvcSensorService {
			break
		}
		return marshal(map[string]float64{"pressure": dc.baro.Read()})
	case CmdReadMag:
		if s.name != SvcSensorService {
			break
		}
		return marshal(map[string]float64{"heading": dc.mag.HeadingDeg()})
	case CmdReadAudio:
		if s.name != SvcAudioFlinger {
			break
		}
		var req struct{ Samples int }
		if err := json.Unmarshal(txn.Data, &req); err != nil {
			return binder.Reply{}, fmt.Errorf("devcon: bad audio request: %w", err)
		}
		if req.Samples <= 0 || req.Samples > 1<<20 {
			return binder.Reply{}, fmt.Errorf("devcon: audio sample count %d out of range", req.Samples)
		}
		buf := make([]byte, req.Samples*2)
		dc.mic.Read(buf)
		return marshal(map[string][]byte{"pcm": buf})
	case CmdPlayAudio:
		if s.name != SvcAudioFlinger {
			break
		}
		if dc.speaker == nil {
			return binder.Reply{}, errors.New("devcon: no speaker hardware")
		}
		var req struct{ PCM []byte }
		if err := json.Unmarshal(txn.Data, &req); err != nil {
			return binder.Reply{}, fmt.Errorf("devcon: bad playback request: %w", err)
		}
		if len(req.PCM) == 0 || len(req.PCM) > 2<<20 {
			return binder.Reply{}, fmt.Errorf("devcon: playback size %d out of range", len(req.PCM))
		}
		played := dc.speaker.Play(req.PCM)
		return marshal(map[string]int{"played": played})
	}
	return binder.Reply{}, fmt.Errorf("devcon: %s: unsupported code %d", s.name, txn.Code)
}

// ---------------------------------------------------------------------------
// Virtual drone / flight container boot support

// BootBridged boots an Android instance in ns wired for AnDrone: its
// ServiceManager publishes the ActivityManager to the device container
// (PUBLISH_TO_DEV_CON) as soon as the ActivityManager registers, so the
// shared device services can perform cross-container permission checks. The
// flight container's HAL bridge boots the same way.
func BootBridged(ns *binder.Namespace) (*android.Instance, error) {
	hook := func(sm *android.ServiceManager, name string, h binder.Handle) error {
		if name == android.ActivityService {
			// Without this publication the device container cannot bridge
			// checkPermission back to this container's ActivityManager, so
			// every later device request would be refused (or worse, served
			// against a stale manager). Fail the boot loudly instead.
			if err := sm.Proc().PublishToDevCon(name, h); err != nil {
				return fmt.Errorf("devcon: publishing %s to device container: %w", name, err)
			}
		}
		return nil
	}
	return android.Boot(ns, android.WithServiceManagerHook(hook))
}
