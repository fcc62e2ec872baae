package core

import (
	"fmt"

	"androne/internal/binder"
	"androne/internal/container"
	"androne/internal/devcon"
	"androne/internal/devices"
	"androne/internal/flight"
	"androne/internal/geo"
	"androne/internal/mavproxy"
	"androne/internal/sitl"
	"androne/internal/telemetry"
)

// Memory layout of the prototype (paper §6.3): 1 GB of RAM of which 880 MB
// is available after peripheral/GPU reservations; <100 MB for the host OS
// and VDC; ~150 MB for the device and flight containers together; ~185 MB
// per virtual drone. Three virtual drones fit; a fourth fails to start.
const (
	MemAvailableMB    = 880
	MemHostVDCMB      = 100
	MemDeviceConMB    = 75
	MemFlightConMB    = 75
	MemVirtualDroneMB = 185
	BaseImageName     = "android-things:1.0.3"
	FlightImageName   = "alpine-arducopter:3.4.4"
	FlightConName     = "flightcon"
)

// Drone is the assembled onboard system: physics, Binder driver, container
// runtime, hardware registry, device container, flight container (flight
// controller + MAVProxy), and the VDC.
type Drone struct {
	Sim      *sitl.Sim
	Driver   *binder.Driver
	Runtime  *container.Runtime
	Registry *devices.Registry
	DevCon   *devcon.DeviceContainer
	FC       *flight.Controller
	Proxy    *mavproxy.Proxy
	VDC      *VDC
	// AED folds the flight controller's attitude estimate against ground
	// truth into the AED verdict, in O(1) memory for the drone's life.
	AED *flight.AEDMonitor
	// Tel is the drone's flight recorder, shared by every onboard layer.
	// Its tick advances with the stepping loop, so traces are deterministic
	// under a fixed seed.
	Tel *telemetry.Recorder

	home geo.Position
}

// NewDrone boots a complete AnDrone drone at home. The container store is
// seeded with the Android Things base image and the flight container image.
func NewDrone(home geo.Position, seed string) (*Drone, error) {
	return NewDroneWithStore(home, seed, container.NewStore())
}

// NewDroneWithStore boots a drone against an existing image store (shared
// with the cloud VDR so virtual drones can move between drones).
func NewDroneWithStore(home geo.Position, seed string, store *container.Store) (*Drone, error) {
	d := &Drone{home: home, Tel: telemetry.NewRecorder()}

	// Physics and hardware.
	d.Sim = sitl.New(home, sitl.DefaultParams(), seed)
	d.Registry = devices.NewRegistry()
	d.Registry.Add(devices.NewCamera("camera0", d.Sim, 64, 48))
	d.Registry.Add(devices.NewGPS("gps0", d.Sim, 0))
	d.Registry.Add(devices.NewIMU("imu0", d.Sim, 0, 0))
	d.Registry.Add(devices.NewBarometer("baro0", d.Sim, home.Alt, 0))
	d.Registry.Add(devices.NewMagnetometer("mag0", d.Sim))
	d.Registry.Add(devices.NewMicrophone("mic0", d.Sim, 8000))
	d.Registry.Add(devices.NewSpeaker("spk0", 8000))

	// Images and container runtime. The runtime's budget excludes host+VDC.
	ensureBaseImages(store)
	d.Runtime = container.NewRuntime(store, MemAvailableMB-MemHostVDCMB)

	// Binder driver and device container.
	d.Driver = binder.NewDriver()
	d.Driver.SetRecorder(d.Tel)
	if _, err := d.Runtime.Create(devcon.NamespaceName, BaseImageName,
		container.Limits{MemoryMB: MemDeviceConMB}); err != nil {
		return nil, fmt.Errorf("core: device container: %w", err)
	}
	if err := d.Runtime.Start(devcon.NamespaceName); err != nil {
		return nil, err
	}
	dc, err := devcon.New(d.Driver, d.Registry, nil)
	if err != nil {
		return nil, err
	}
	dc.SetRecorder(d.Tel)
	d.DevCon = dc

	// Flight container: real-time Linux + flight controller + MAVProxy,
	// with a HAL bridge namespace into the device container.
	if _, err := d.Runtime.Create(FlightConName, FlightImageName,
		container.Limits{MemoryMB: MemFlightConMB}); err != nil {
		return nil, fmt.Errorf("core: flight container: %w", err)
	}
	if err := d.Runtime.Start(FlightConName); err != nil {
		return nil, err
	}
	fns, err := d.Driver.CreateNamespace(FlightConName)
	if err != nil {
		return nil, err
	}
	if _, err := devcon.BootBridged(fns); err != nil {
		return nil, fmt.Errorf("core: flight container HAL bridge: %w", err)
	}

	d.AED = flight.NewAEDMonitor()
	sensors := &flight.DirectSensors{
		GPS:  devices.NewGPS("fc-gps", d.Sim, 0),
		Imu:  devices.NewIMU("fc-imu", d.Sim, 0, 0),
		Baro: devices.NewBarometer("fc-baro", d.Sim, home.Alt, 0),
		Mag:  devices.NewMagnetometer("fc-mag", d.Sim),
		Sim:  d.Sim,
	}
	d.FC = flight.NewController(sensors, d.Sim, home,
		flight.WithHoverFraction(sitl.DefaultParams().HoverThrustFrac()),
		flight.WithAEDMonitor(d.AED),
		flight.WithRecorder(d.Tel))
	d.Proxy = mavproxy.New(d.FC)
	d.Proxy.SetRecorder(d.Tel)

	// VDC, installed as the device container's access policy.
	d.VDC = newVDC(d)
	dc.SetPolicy(d.VDC)
	return d, nil
}

// ensureBaseImages seeds the store with the base images if absent.
func ensureBaseImages(store *container.Store) {
	if _, err := store.Image(BaseImageName); err != nil {
		base := container.NewLayer(map[string][]byte{
			"/system/framework.jar": []byte("android-things-1.0.3-framework"),
			"/system/build.prop":    []byte("ro.build.version=things-1.0.3"),
			"/init.rc":              []byte("service servicemanager ..."),
			"/system/priv-app/sdk":  []byte("androne-sdk"),
		})
		// AnDrone modifies init files and SystemServer so virtual drones do
		// not start their own device services; that modification is its own
		// (shared) layer on top of the stock base.
		androneMods := container.NewLayer(map[string][]byte{
			"/init.androne.rc":        []byte("disable local device services"),
			"/system/etc/androne.xml": []byte("<androne/>"),
		})
		store.AddImage(&container.Image{Name: BaseImageName, Layers: []*container.Layer{base, androneMods}})
	}
	if _, err := store.Image(FlightImageName); err != nil {
		fc := container.NewLayer(map[string][]byte{
			"/etc/alpine-release": []byte("3.7"),
			"/usr/bin/arducopter": []byte("elf-arducopter-3.4.4"),
			"/usr/bin/mavproxy":   []byte("mavproxy-androne"),
		})
		store.AddImage(&container.Image{Name: FlightImageName, Layers: []*container.Layer{fc}})
	}
}

// Home returns the drone's home position.
func (d *Drone) Home() geo.Position { return d.home }

// Step advances physics and the flight controller one fast-loop iteration
// and records ground truth for the AED analyzer.
func (d *Drone) Step(dt float64) {
	d.Sim.Step(dt)
	d.FC.Step(dt)
	r, p, y := d.Sim.Attitude()
	d.FC.RecordTruth(r, p, y)
}

// StepSeconds advances the drone for the given sim seconds at the fast-loop
// rate, ticking the proxy (geofence recovery) at 10 Hz.
func (d *Drone) StepSeconds(seconds float64) {
	steps := int(seconds * flight.FastLoopHz)
	for i := 0; i < steps; i++ {
		d.Step(flight.FastLoopDT)
		if i%40 == 0 {
			d.Tel.AdvanceTick()
			d.Proxy.Tick()
			d.Driver.FlushMetrics()
		}
	}
}
