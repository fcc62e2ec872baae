package core

import (
	"fmt"
	"path"

	"androne/internal/cloud"
	"androne/internal/flight"
	"androne/internal/geo"
	"androne/internal/mavlink"
	"androne/internal/planner"
)

// CloudEnv groups the cloud-side components a flight talks to: general
// storage for flight data and the virtual drone repository.
type CloudEnv struct {
	Storage *cloud.Storage
	VDR     *cloud.VDR
}

// NewCloudEnv creates an in-memory cloud environment.
func NewCloudEnv() *CloudEnv {
	return &CloudEnv{Storage: cloud.NewStorage(), VDR: cloud.NewVDR()}
}

// VDReport summarizes one virtual drone's flight outcome.
type VDReport struct {
	Owner            string
	WaypointsVisited int
	Completed        bool
	EnergyUsedJ      float64
	TimeUsedS        float64
	Files            []string
	Breaches         int
}

// FlightReport summarizes a whole physical flight.
type FlightReport struct {
	DurationS     float64
	FlightEnergyJ float64
	PerDrone      map[string]*VDReport
	AED           flight.AEDResult
	ReturnedHome  bool
}

// TransitAltM is the altitude the flight planner uses between waypoints.
const TransitAltM = 15

// ExecuteRoute flies one planner route end to end: takeoff, per-stop
// virtual drone activation with allotment metering and geofence-breach
// notifications, return to launch, file offload to cloud storage, and
// virtual drone checkpointing into the VDR (the Figure 4 workflow).
func (d *Drone) ExecuteRoute(route planner.Route, env *CloudEnv) (*FlightReport, error) {
	report := &FlightReport{PerDrone: make(map[string]*VDReport)}
	startEnergy := d.Sim.EnergyUsedJ()
	startTime := d.Sim.Now()

	master := d.Proxy.Master().Controller()
	d.StepSeconds(0.1) // let the estimator acquire a fix
	if err := master.SetModeNum(mavlink.ModeGuided); err != nil {
		return nil, err
	}
	if err := master.Arm(); err != nil {
		return nil, err
	}
	if err := master.Takeoff(TransitAltM); err != nil {
		return nil, err
	}
	if !d.RunUntil(func() bool { return d.Sim.AltitudeAGL() > TransitAltM-0.6 }, 60) {
		return nil, fmt.Errorf("core: takeoff did not complete (alt %.1f m)", d.Sim.AltitudeAGL())
	}

	for _, stop := range route.Stops {
		vd, err := d.VDC.Get(stop.Task)
		if err != nil {
			return nil, fmt.Errorf("core: route references %q: %w", stop.Task, err)
		}
		rep := report.PerDrone[stop.Task]
		if rep == nil {
			rep = &VDReport{Owner: vd.Def.Owner}
			report.PerDrone[stop.Task] = rep
		}

		// Flight planner pilots the drone to the waypoint.
		if !d.flyTo(stop.Waypoint.Position) {
			return nil, fmt.Errorf("core: could not reach waypoint %s/%d", stop.Task, stop.Index)
		}

		// Hand the waypoint to the virtual drone.
		if err := d.VDC.WaypointReached(stop.Task, stop.Index); err != nil {
			return nil, err
		}
		rep.WaypointsVisited++

		d.dwell(vd, stop, rep)

		if err := d.VDC.WaypointLeft(stop.Task, stop.Index); err != nil {
			return nil, err
		}
	}

	// Return to base and land.
	if err := master.SetModeNum(mavlink.ModeRTL); err != nil {
		return nil, err
	}
	report.ReturnedHome = d.RunUntil(func() bool {
		return d.Sim.OnGround() && !master.Armed()
	}, 240)

	// Offload files and save virtual drones to the VDR.
	for _, name := range d.VDC.List() {
		vd, err := d.VDC.Get(name)
		if err != nil {
			continue
		}
		rep := report.PerDrone[name]
		if rep == nil {
			rep = &VDReport{Owner: vd.Def.Owner}
			report.PerDrone[name] = rep
		}
		for _, p := range vd.MarkedFiles() {
			data, err := vd.Container.ReadFile(p)
			if err != nil {
				continue
			}
			dst := path.Join("/", name, p)
			// A tenant over storage quota loses the offload, not the
			// flight: the file stays retrievable from the container.
			if err := env.Storage.Put(vd.Def.Owner, dst, data); err != nil {
				continue
			}
			rep.Files = append(rep.Files, dst)
		}
		rep.Completed = vd.Done()
		rep.EnergyUsedJ = vd.Def.EnergyAllotted - vd.Allotment.EnergyLeftJ()
		rep.TimeUsedS = vd.Def.MaxDuration - vd.Allotment.TimeLeftS()

		entry, err := d.VDC.Save(name)
		if err != nil {
			return nil, err
		}
		if err := env.VDR.Save(entry); err != nil {
			return nil, err
		}
	}

	report.DurationS = d.Sim.Now().Sub(startTime).Seconds()
	report.FlightEnergyJ = d.Sim.EnergyUsedJ() - startEnergy
	report.AED = d.AED.Result()
	return report, nil
}

// dwell runs the virtual drone's waypoint operation: apps tick at 10 Hz,
// the allotment is metered against wall-clock dwell time and measured
// energy, geofence breach/recovery transitions are relayed as SDK events,
// and the dwell ends when the app signals completion, the allotment
// exhausts, or a safety cap elapses.
func (d *Drone) dwell(vd *VirtualDrone, stop planner.Stop, rep *VDReport) {
	const tick = 0.1
	maxDwell := stop.DwellS*3 + 30
	recovering := false
	lastEnergy := d.Sim.EnergyUsedJ()
	for elapsed := 0.0; elapsed < maxDwell; elapsed += tick {
		d.StepSeconds(tick)
		vd.tick(tick)

		// Relay geofence transitions.
		if r := vd.VFC.Recovering(); r && !recovering {
			rep.Breaches++
			d.VDC.NotifyBreach(vd.Name)
		} else if !r && recovering {
			d.VDC.NotifyControlReturned(vd.Name)
		}
		recovering = vd.VFC.Recovering()

		energyNow := d.Sim.EnergyUsedJ()
		exhausted := d.VDC.MeterActive(vd.Name, tick, energyNow-lastEnergy)
		lastEnergy = energyNow
		if exhausted || vd.CompleteRequested() {
			return
		}
	}
}

// ExecutePlan flies every route of a plan in sequence on this drone,
// restoring virtual drones from the VDR between flights: each ExecuteRoute
// checkpoints all virtual drones at flight end, and the next route's tasks
// are reinstated from their saved state — the paper's "resumed on a later
// flight" path, with the battery swapped between flights.
func (d *Drone) ExecutePlan(plan *planner.Plan, env *CloudEnv) ([]*FlightReport, error) {
	var reports []*FlightReport
	for i, route := range plan.Routes {
		for _, stop := range route.Stops {
			if _, err := d.VDC.Get(stop.Task); err == nil {
				continue
			}
			entry, err := env.VDR.Load(stop.Task)
			if err != nil {
				return reports, fmt.Errorf("core: route %d needs %q: %w", i, stop.Task, err)
			}
			if _, err := d.VDC.Restore(entry); err != nil {
				return reports, fmt.Errorf("core: restoring %q: %w", stop.Task, err)
			}
		}
		report, err := d.ExecuteRoute(route, env)
		if err != nil {
			return reports, fmt.Errorf("core: route %d: %w", i, err)
		}
		reports = append(reports, report)
	}
	return reports, nil
}

// flyTo pilots the drone to a position using the master connection, ticking
// continuous-window virtual drones along the way.
func (d *Drone) flyTo(pos geo.Position) bool {
	master := d.Proxy.Master().Controller()
	if err := master.SetModeNum(mavlink.ModeGuided); err != nil {
		return false
	}
	if err := master.GotoPosition(pos, 0); err != nil {
		return false
	}
	dist := geo.Distance3D(d.Sim.Position(), pos)
	timeout := dist/2 + 30
	const tick = 0.1
	for elapsed := 0.0; elapsed < timeout; elapsed += tick {
		d.StepSeconds(tick)
		d.VDC.TickTransit(tick)
		if geo.Distance3D(d.Sim.Position(), pos) < 2 {
			return true
		}
	}
	return false
}
