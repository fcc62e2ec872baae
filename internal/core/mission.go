package core

import (
	"errors"
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

// entry returns vd's report, creating it on first use.
func (r *FlightReport) entry(vd *VirtualDrone) *VDReport {
	if r.PerDrone[vd.Name] == nil {
		r.PerDrone[vd.Name] = &VDReport{Owner: vd.Def.Owner}
	}
	return r.PerDrone[vd.Name]
}

// TransitAltM is the altitude the flight planner uses between waypoints.
const TransitAltM = 15

// tickS is the mission clock's tick in sim seconds.
const tickS = 0.1

// Phase is the part of a flight a mission clock tick belongs to.
type Phase uint8

// Flight phases, in the order a flight passes through them.
const (
	Takeoff Phase = iota // climbing to transit altitude
	Transit              // flying to the next stop
	Dwell                // a virtual drone holds its waypoint
	RTL                  // returning to launch and landing
)

// MilestoneKind classifies a Milestone.
type MilestoneKind uint8

// Milestones of the Figure 4 workflow; Task and Index name the stop.
const (
	Airborne   MilestoneKind = iota // transit altitude reached
	Transiting                      // the drone was sent to the stop
	Reached                         // the stop's waypoint was granted
	DwellEnd                        // the dwell ended, for Reason
	Left                            // the stop's waypoint was revoked
	Abort                           // the clock's budget ran out; Task's remaining stops are skipped
	Returning                       // RTL commanded; Err if the controller refused
	Landed                          // the RTL phase ended; Err if still airborne
	Breach                          // Task's geofence tripped and recovery began
	Recovered                       // Task's recovery ended and control returned
	Offloaded                       // Task's Files reached cloud storage; one Err note per failed file
	Saved                           // Task was checkpointed into the VDR, or Err
)

// DwellReason says why a dwell ended.
type DwellReason uint8

// Dwell end reasons.
const (
	DwellCap           DwellReason = iota // the dwell's safety cap elapsed
	AllotmentExhausted                    // the allotment ran out
	AppCompleted                          // an app signalled waypointCompleted
)

// Milestone is one step of the flight, noted on the clock as it happens.
type Milestone struct {
	Kind      MilestoneKind
	Task      string
	Index     int
	Reason    DwellReason
	Files     []string
	Completed bool
	Err       error
}

// Clock paces the mission executor. Tick advances exactly one 0.1 s tick
// of a phase and reports whether the caller's tick budget has room left.
// Note receives every milestone; rendering one is the caller's business.
type Clock interface {
	Tick(Phase) bool
	Note(Milestone)
}

// Lockstep is the clock ExecuteRoute flies on: each tick steps the drone
// 0.1 s and relays geofence transitions, milestones are dropped, and the
// budget never runs out. Callers that observe milestones wrap it.
type Lockstep struct{ Drone *Drone }

// Tick implements Clock.
func (c Lockstep) Tick(Phase) bool {
	c.Drone.StepSeconds(tickS)
	c.Drone.VDC.RelayBreaches(c)
	return true
}

// Note implements Clock.
func (Lockstep) Note(Milestone) {}

var errStillAirborne = errors.New("core: still airborne at the RTL cap")

// ExecuteRoute flies one planner route end to end on the lockstep clock:
// Fly, then Offload (the Figure 4 workflow).
func (d *Drone) ExecuteRoute(route planner.Route, env *CloudEnv) (*FlightReport, error) {
	clk := Lockstep{d}
	report, err := d.Fly(route, clk)
	if err != nil {
		return nil, err
	}
	if err := d.Offload(env, clk, report); err != nil {
		return nil, err
	}
	return report, nil
}

// mission is one Fly call in progress.
type mission struct {
	d     *Drone
	fc    *flight.Controller // commanded through the master connection
	clk   Clock
	spent bool // the clock reported its tick budget gone
}

// Fly flies a route on clk: takeoff; per stop, transit, waypoint grant,
// metered dwell and revocation; return to launch. Loops test on whole
// ticks, capped at 60 s to climb, dist/2+30 s per transit, DwellS*3+30 s
// per dwell, 240 s for RTL. Once the budget is spent, remaining stops are
// skipped with one Abort note per task.
func (d *Drone) Fly(route planner.Route, clk Clock) (*FlightReport, error) {
	report := &FlightReport{PerDrone: make(map[string]*VDReport)}
	startEnergy := d.Sim.EnergyUsedJ()
	startTime := d.Sim.Now()
	m := &mission{d: d, fc: d.Proxy.Master().Controller(), clk: clk}

	if err := m.takeoff(); err != nil {
		return nil, err
	}
	skipped := ""
	for _, stop := range route.Stops {
		if m.spent {
			if stop.Task != skipped {
				clk.Note(Milestone{Kind: Abort, Task: stop.Task})
				skipped = stop.Task
			}
			continue
		}
		if err := m.visit(stop, report); err != nil {
			return nil, err
		}
	}
	report.ReturnedHome = m.returnHome()

	report.DurationS = d.Sim.Now().Sub(startTime).Seconds()
	report.FlightEnergyJ = d.Sim.EnergyUsedJ() - startEnergy
	report.AED = d.AED.Result()
	return report, nil
}

// until ticks phase p until step, run after each tick, reports done or
// capS elapses, and reports whether step finished.
func (m *mission) until(p Phase, capS float64, step func() bool) bool {
	for elapsed := 0.0; elapsed < capS; elapsed += tickS {
		if !m.clk.Tick(p) {
			m.spent = true
		}
		if step() {
			return true
		}
	}
	return false
}

func (m *mission) takeoff() error {
	sim := m.d.Sim
	m.clk.Tick(Takeoff) // let the estimator acquire a fix; the climb's ticks track the budget
	if err := m.fc.SetModeNum(mavlink.ModeGuided); err != nil {
		return err
	}
	if err := m.fc.Arm(); err != nil {
		return err
	}
	if err := m.fc.Takeoff(TransitAltM); err != nil {
		return err
	}
	if !m.until(Takeoff, 60, func() bool { return sim.AltitudeAGL() > TransitAltM-0.6 }) {
		return fmt.Errorf("core: takeoff did not complete (alt %.1f m)", sim.AltitudeAGL())
	}
	m.clk.Note(Milestone{Kind: Airborne})
	return nil
}

// visit flies to one stop, grants its waypoint, dwells, and revokes it.
func (m *mission) visit(stop planner.Stop, report *FlightReport) error {
	d, name, idx := m.d, stop.Task, stop.Index
	vd, err := d.VDC.Get(name)
	if err != nil {
		return fmt.Errorf("core: route references %q: %w", name, err)
	}
	rep := report.entry(vd)

	// The flight planner pilots the drone to the waypoint.
	pos := stop.Waypoint.Position
	if err := m.fc.SetModeNum(mavlink.ModeGuided); err != nil {
		return err
	}
	if err := m.fc.GotoPosition(pos, 0); err != nil {
		return err
	}
	m.clk.Note(Milestone{Kind: Transiting, Task: name, Index: idx})
	timeout := geo.Distance3D(d.Sim.Position(), pos)/2 + 30
	if !m.until(Transit, timeout, func() bool {
		d.VDC.TickTransit(tickS)
		return geo.Distance3D(d.Sim.Position(), pos) < 2
	}) {
		return fmt.Errorf("core: could not reach waypoint %s/%d", name, idx)
	}

	// Hand the waypoint to the virtual drone, which a save/restore during
	// transit may have replaced.
	if err := d.VDC.WaypointReached(name, idx); err != nil {
		return err
	}
	if vd, err = d.VDC.Get(name); err != nil {
		return err
	}
	rep.WaypointsVisited++
	m.clk.Note(Milestone{Kind: Reached, Task: name, Index: idx})

	// Dwell: apps tick at 10 Hz and the allotment is metered against dwell
	// time and measured energy until the app completes or it exhausts.
	why := DwellCap
	lastEnergy := d.Sim.EnergyUsedJ()
	m.until(Dwell, stop.DwellS*3+30, func() bool {
		d.VDC.TickActive(name, tickS)
		energyNow := d.Sim.EnergyUsedJ()
		exhausted := d.VDC.MeterActive(name, tickS, energyNow-lastEnergy)
		lastEnergy = energyNow
		switch {
		case exhausted:
			why = AllotmentExhausted
		case vd.CompleteRequested():
			why = AppCompleted
		default:
			return false
		}
		return true
	})
	m.clk.Note(Milestone{Kind: DwellEnd, Task: name, Index: idx, Reason: why})

	if err := d.VDC.WaypointLeft(name, idx); err != nil {
		return err
	}
	m.clk.Note(Milestone{Kind: Left, Task: name, Index: idx})
	return nil
}

// returnHome flies to base and lands, reporting landed and disarmed.
func (m *mission) returnHome() bool {
	sim := m.d.Sim
	if err := m.fc.SetModeNum(mavlink.ModeRTL); err != nil {
		m.clk.Note(Milestone{Kind: Returning, Err: err})
		return false
	}
	m.clk.Note(Milestone{Kind: Returning})
	home := m.until(RTL, 240, func() bool { return sim.OnGround() && !m.fc.Armed() })
	var err error
	if !sim.OnGround() {
		err = errStillAirborne
	}
	m.clk.Note(Milestone{Kind: Landed, Err: err})
	return home
}

// Offload is the flight-end workflow: in name order, each virtual drone's
// marked files go to cloud storage and it is saved to the VDR. Failures
// are noted and skipped; the first save error is returned.
func (d *Drone) Offload(env *CloudEnv, clk Clock, report *FlightReport) error {
	var saveErr error
	for _, name := range d.VDC.List() {
		vd, err := d.VDC.Get(name)
		if err != nil {
			continue
		}
		rep := report.entry(vd)
		for _, p := range vd.MarkedFiles() {
			data, err := vd.Container.ReadFile(p)
			if err != nil {
				clk.Note(Milestone{Kind: Offloaded, Task: name, Err: fmt.Errorf("marked file unreadable: %s", p)})
				continue
			}
			dst := path.Join("/", name, p)
			// A tenant over storage quota loses the offload, not the
			// flight: the file stays retrievable from the container.
			if err := env.Storage.Put(vd.Def.Owner, dst, data); err != nil {
				clk.Note(Milestone{Kind: Offloaded, Task: name, Err: fmt.Errorf("offload refused: %w", err)})
				continue
			}
			rep.Files = append(rep.Files, dst)
		}
		clk.Note(Milestone{Kind: Offloaded, Task: name, Files: rep.Files})
		rep.Completed = vd.Done()
		rep.EnergyUsedJ = vd.Def.EnergyAllotted - vd.Allotment.EnergyLeftJ()
		rep.TimeUsedS = vd.Def.MaxDuration - vd.Allotment.TimeLeftS()
		_, rep.Breaches = vd.Breaches()

		entry, err := d.VDC.Save(name)
		if err == nil {
			err = env.VDR.Save(entry)
		}
		if err != nil && saveErr == nil {
			saveErr = err
		}
		clk.Note(Milestone{Kind: Saved, Task: name, Completed: rep.Completed, Err: err})
	}
	return saveErr
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
