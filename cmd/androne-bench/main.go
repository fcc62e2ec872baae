// Command androne-bench regenerates the tables and figures of the AnDrone
// paper's evaluation (§6) and prints them in the same shape the paper
// reports.
//
// Usage:
//
//	androne-bench -exp all
//	androne-bench -exp fig11 -loops 1000000
//	androne-bench -exp baseline,scale,fleet10k,cloud,planner -out .
//	androne-bench -exp baseline,scale,fleet10k,cloud,planner -smoke -out bench-out
//
// Experiments: aed, baseline, cloud, fig10, fig11, fig12, fig13, fleet10k,
// gcs, jitter, net, planner, scale, sitl, table1. "all" runs the paper's
// own: table1, fig10–fig13, net, gcs, jitter, aed and sitl.
//
// The other five are measured experiments, each returning one record (see
// record.go): baseline (telemetry overhead on the instrumented hot paths,
// and the checkpoint cycle's time and retained heap),
// scale (parallel binder transact, the vfc-send allocation budget and
// fleet replay determinism), fleet10k (event-driven vs lockstep fleet
// throughput), cloud (multi-tenant load through the service plane under
// its SLO gates) and planner (the incremental annealing kernel vs the
// cloning baseline, and the planner-to-fleet campaign). Each record is
// printed, written to -out DIR as BENCH_<experiment>.json when -out is
// set (the committed records at the repo root are full-size runs), and
// fails the run if any of its gates failed. -smoke runs the measured
// experiments at CI size with the same gates.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"androne/internal/android"
	"androne/internal/bench"
	"androne/internal/core"
	"androne/internal/flight"
	"androne/internal/gcs"
	"androne/internal/geo"
	"androne/internal/loadgen"
	"androne/internal/mavproxy"
	"androne/internal/netem"
	"androne/internal/planner"
	"androne/internal/rtos"
)

var home = geo.Position{LatLon: geo.LatLon{Lat: 43.6084298, Lon: -85.8110359}, Alt: 0}

// paper lists what "all" runs: the paper's own tables and figures.
var paper = []string{"table1", "fig10", "fig11", "fig12", "fig13", "net", "gcs", "jitter", "aed", "sitl"}

// options carries the flag values the experiments read when they run.
type options struct {
	loops, netN int
	seed        string
	smoke       bool
}

// experiments maps each -exp name to its run. The paper's experiments
// print their table and return no record.
func experiments(o *options) map[string]func() (*record, error) {
	printOnly := func(f func() error) func() (*record, error) {
		return func() (*record, error) { return nil, f() }
	}
	return map[string]func() (*record, error){
		"table1": printOnly(table1),
		"fig10":  printOnly(fig10),
		"fig11":  printOnly(func() error { return fig11(o.loops, o.seed) }),
		"fig12":  printOnly(fig12),
		"fig13":  printOnly(fig13),
		"net":    printOnly(func() error { return network(o.netN, o.seed) }),
		"gcs":    printOnly(func() error { return gcsExperiment(o.seed) }),
		"jitter": printOnly(func() error { return jitter(o.seed) }),
		"aed":    printOnly(func() error { return aed(o.seed) }),
		"sitl":   printOnly(func() error { return sitlFlight(o.seed) }),

		"baseline": func() (*record, error) { return baseline(o.seed, o.smoke) },
		"scale":    func() (*record, error) { return scale(o.seed, o.smoke, scaleFleetDrones) },
		"fleet10k": func() (*record, error) {
			f := fleet10kOpts{seed: o.seed, eventDrones: fleet10kDrones}
			if o.smoke {
				f.eventDrones, f.lockDrones = 128, 2
			}
			return fleet10k(f)
		},
		"cloud": func() (*record, error) {
			cfg := loadgen.DefaultConfig()
			if o.smoke {
				cfg.Tenants, cfg.OrdersPerTenant = 3, 1
				cfg.BrowseRepeat, cfg.ChurnRounds = 10, 3
				cfg.Seed = o.seed + "-cloud-smoke"
			}
			return cloudBench(cfg)
		},
		"planner": func() (*record, error) {
			p := plannerOpts{seed: o.seed}
			if o.smoke {
				p = plannerSmokeOpts(p)
			}
			return plannerBench(p)
		},
	}
}

// sortedNames lists run's experiment names in order.
func sortedNames(run map[string]func() (*record, error)) []string {
	names := make([]string, 0, len(run))
	for name := range run {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// selectExperiments resolves -exp: "all" or a comma-separated list of
// run's names.
func selectExperiments(exp string, run map[string]func() (*record, error)) ([]string, error) {
	if exp == "all" {
		return paper, nil
	}
	todo := strings.Split(exp, ",")
	for _, e := range todo {
		if _, ok := run[e]; !ok {
			return nil, fmt.Errorf("unknown experiment %q (have all, %s)", e, strings.Join(sortedNames(run), ", "))
		}
	}
	return todo, nil
}

func main() {
	var o options
	run := experiments(&o)
	exp := flag.String("exp", "all", "comma-separated experiments, or all (the paper's): "+strings.Join(sortedNames(run), "|"))
	flag.IntVar(&o.loops, "loops", 400000, "cyclictest loops per scenario")
	flag.IntVar(&o.netN, "net-commands", 150000, "MAVLink commands for the network experiment")
	flag.StringVar(&o.seed, "seed", "androne", "deterministic seed")
	flag.BoolVar(&o.smoke, "smoke", false, "run the measured experiments at CI size, with the same gates")
	out := flag.String("out", "", "write each measured experiment's record to `DIR`/BENCH_<experiment>.json")
	flag.Parse()

	todo, err := selectExperiments(*exp, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	failed := false
	for _, e := range todo {
		rec, err := run[e]()
		if err == nil && rec != nil {
			rec.Smoke = o.smoke
			err = finish(rec, *out)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e, err)
			failed = true
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}

func header(s string) {
	fmt.Println(s)
	fmt.Println(strings.Repeat("-", len(s)))
}

func table1() error {
	header("Table 1: device container services")
	for _, row := range bench.Table1() {
		fmt.Printf("  %-22s %s\n", row.Service, strings.Join(row.Devices, ", "))
	}
	return nil
}

func fig10() error {
	header("Figure 10: runtime overhead (normalized slowdown vs stock; 1.0 = stock)")
	fmt.Printf("  %-22s %6s %6s %6s\n", "config", "CPU", "Disk", "Memory")
	for _, r := range bench.Figure10() {
		label := fmt.Sprintf("%d VDrone", r.Drones)
		if r.Kernel == rtos.PreemptRT {
			label += "-RT"
		}
		fmt.Printf("  %-22s %6.2f %6.2f %6.2f\n", label, r.CPU, r.Disk, r.Memory)
	}
	return nil
}

func fig11(loops int, seed string) error {
	header(fmt.Sprintf("Figure 11: cyclictest wakeup latency (%d loops/scenario)", loops))
	fmt.Printf("  %-14s %10s %10s %16s\n", "scenario", "avg (us)", "max (us)", "misses >2500us")
	hists := bench.Figure11(loops, seed)
	var scs []rtos.Scenario
	for sc := range hists {
		scs = append(scs, sc)
	}
	sort.Slice(scs, func(i, j int) bool {
		if scs[i].Kernel != scs[j].Kernel {
			return scs[i].Kernel < scs[j].Kernel
		}
		return scs[i].Load < scs[j].Load
	})
	for _, sc := range scs {
		h := hists[sc]
		fmt.Printf("  %-14s %10.1f %10.0f %16d\n", sc, h.AvgUs(), h.MaxUs(), h.Exceeds(rtos.ArduPilotDeadlineUs))
	}
	fmt.Println("  (paper: PREEMPT avg 17/44/162 us max 1307/14513/17819 us;")
	fmt.Println("   PREEMPT_RT avg 10/12/16 us max 103/382/340 us)")
	return nil
}

func fig12() error {
	header("Figure 12: memory usage")
	rows, err := bench.Figure12()
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("  %-16s %4d MB\n", r.Config, r.UsedMB)
	}
	ok, err := bench.FourthDroneFails()
	if err != nil {
		return err
	}
	fmt.Printf("  4th VDrone fails cleanly: %v (%d MB available)\n", ok, core.MemAvailableMB)
	return nil
}

func fig13() error {
	header("Figure 13: power consumption at idle (normalized to stock)")
	for _, r := range bench.Figure13() {
		fmt.Printf("  %-16s %5.2f W  (%.3fx stock)\n", r.Config, r.PowerW, r.Normalized)
	}
	fmt.Printf("  fully stressed (all configs): %.1f W\n", bench.StressedPowerW())
	return nil
}

func network(n int, seed string) error {
	header(fmt.Sprintf("Section 6.5: network latency (%d MAVLink commands)", n))
	res := bench.NetworkExperiment(n, seed)
	fmt.Printf("  %-14s mean %6.1f ms  std %5.1f ms  max %6.1f ms  lost %d/%d\n",
		"cellular LTE", res.Cellular.MeanMS, res.Cellular.StdMS, res.Cellular.MaxMS, res.Cellular.Lost, res.Cellular.Sent)
	fmt.Printf("  %-14s mean %6.1f ms  std %5.1f ms  max %6.1f ms  lost %d/%d\n",
		"RF hobby", res.RF.MeanMS, res.RF.StdMS, res.RF.MaxMS, res.RF.Lost, res.RF.Sent)
	fmt.Printf("  %-14s mean %6.1f ms  std %5.1f ms  max %6.1f ms  lost %d/%d\n",
		"wired", res.Wired.MeanMS, res.Wired.StdMS, res.Wired.MaxMS, res.Wired.Lost, res.Wired.Sent)
	fmt.Println("  (paper: 70 ms mean, 356 ms max, 7.2 ms std, 6 lost; RF remotes 8-85 ms)")
	return nil
}

func gcsExperiment(seed string) error {
	header("Section 6.5 (in-system): ground station -> VPN -> LTE -> VFC")
	v := flight.NewVehicle(home, seed)
	v.StepSeconds(0.1)
	proxy := mavproxy.New(v.Controller)
	vfc, err := proxy.NewVFC("remote", mavproxy.TemplateStandard(), false)
	if err != nil {
		return err
	}
	st := gcs.New(vfc, netem.CellularLTE(), []byte("remote-vpn-key"), seed)
	stats := st.MeasureCommandLatency(20000)
	fmt.Printf("  20000 commands round trip: mean %.1f ms, max %.1f ms, lost %d, acked %d\n",
		stats.MeanMS, stats.MaxMS, stats.Lost, stats.Acked)
	fmt.Printf("  one-way equivalent: mean %.1f ms (paper one-way: 70 ms)\n", stats.MeanMS/2)
	fmt.Printf("  VPN overhead: %d bytes/packet; tampered/replayed envelopes rejected\n", netem.Overhead)
	return nil
}

func jitter(seed string) error {
	header("Section 6.2 coupling: scheduling latency -> flight stability")
	for _, k := range []rtos.Kernel{rtos.Preempt, rtos.PreemptRT} {
		res, err := bench.HoverUnderSchedulingLatency(
			rtos.Scenario{Kernel: k, Load: rtos.Stress}, 30, seed)
		if err != nil {
			return err
		}
		fmt.Printf("  %-12s missed %5d/%d fast loops, AED max %.2f deg, pass=%v\n",
			k, res.MissedLoops, res.Cycles, res.AED.MaxDivergenceDeg, res.AED.Pass)
	}
	severe, err := bench.HoverWithLoopMissProb(0.97, 30, seed)
	if err != nil {
		return err
	}
	fmt.Printf("  %-12s missed %5d/%d fast loops, AED max %.2f deg, pass=%v (boundary)\n",
		"97%-loss", severe.MissedLoops, severe.Cycles, severe.AED.MaxDivergenceDeg, severe.AED.Pass)
	fmt.Println("  (occasional PREEMPT misses are harmless; sustained loss is not)")
	return nil
}

func aed(seed string) error {
	header("Section 6.2: hover stability (Attitude Estimate Divergence)")
	for _, load := range []string{"idle", "passmark"} {
		mon := flight.NewAEDMonitor()
		v := flight.NewVehicle(home, seed+load, flight.WithAEDMonitor(mon))
		v.StepSeconds(0.1)
		if err := v.Controller.SetModeNum(4); err != nil { // GUIDED
			return err
		}
		if err := v.Controller.Arm(); err != nil {
			return err
		}
		if err := v.Controller.Takeoff(10); err != nil {
			return err
		}
		// Under the PassMark scenario the drone hovers while CPU load runs;
		// the load is compute-side and does not couple into the lockstep
		// control loop, which is exactly the claim being demonstrated.
		if load == "passmark" {
			go bench.CPUWorkload(50_000_000)
		}
		v.StepSeconds(30)
		res := mon.Result()
		fmt.Printf("  %-9s max divergence %5.2f deg, longest excursion %.2f s, pass=%v\n",
			load, res.MaxDivergenceDeg, res.LongestExcursionS, res.Pass)
	}
	fmt.Println("  (paper: both scenarios within normal divergence: <5 deg for <0.5 s)")
	return nil
}

func sitlFlight(seed string) error {
	header("Section 6.6: multi-waypoint SITL flight (3 virtual drones)")
	d, err := core.NewDrone(home, seed)
	if err != nil {
		return err
	}
	// Three virtual drones: autonomous survey, interactive-style, direct
	// access; simple app stand-ins complete each waypoint.
	mk := func(name string, n, e float64) *core.Definition {
		return &core.Definition{
			Name: name, Owner: name + "-owner", MaxDuration: 120, EnergyAllotted: 20000,
			WaypointDevices: []string{"camera", "flight-control"},
			Apps:            []string{name + ".app"},
			Waypoints: []geo.Waypoint{{
				Position:  geo.Position{LatLon: geo.OffsetNE(home.LatLon, n, e), Alt: 15},
				MaxRadius: 40,
			}},
		}
	}
	defs := []*core.Definition{mk("survey", 80, 0), mk("interactive", -60, 70), mk("direct", 30, -90)}
	var tasks []planner.Task
	for _, def := range defs {
		d.VDC.RegisterAppFactory(def.Apps[0], quickFactory())
		if _, err := d.VDC.Create(def); err != nil {
			return err
		}
		tasks = append(tasks, planner.Task{ID: def.Name, Waypoints: def.Waypoints,
			EnergyJ: def.EnergyAllotted, DurationS: def.MaxDuration})
	}
	cfg := planner.DefaultConfig(home)
	plan, err := cfg.Plan(tasks)
	if err != nil {
		return err
	}
	env := core.NewCloudEnv()
	for _, route := range plan.Routes {
		report, err := d.ExecuteRoute(route, env)
		if err != nil {
			return err
		}
		fmt.Printf("  flight: %.0f s, %.0f J, returned home %v, AED pass %v\n",
			report.DurationS, report.FlightEnergyJ, report.ReturnedHome, report.AED.Pass)
		for name, rep := range report.PerDrone {
			fmt.Printf("    %-12s waypoints %d, completed %v, dwell %.1f s, %.0f J\n",
				name, rep.WaypointsVisited, rep.Completed, rep.TimeUsedS, rep.EnergyUsedJ)
		}
	}
	fmt.Printf("  VDR entries after flight: %d\n", len(env.VDR.Manifests()))
	return nil
}

func quickFactory() core.AppFactory {
	return func(ctx *core.AppContext) android.Lifecycle {
		return &quickApp{ctx: ctx}
	}
}

// quickApp completes its waypoint after a short dwell.
type quickApp struct {
	ctx   *core.AppContext
	ticks int
}

func (a *quickApp) OnCreate(*android.App, []byte)           {}
func (a *quickApp) OnSaveInstanceState(*android.App) []byte { return nil }
func (a *quickApp) OnDestroy(*android.App)                  {}
func (a *quickApp) Tick(dt float64) {
	a.ticks++
	if a.ticks == 20 { // ~2 s of dwell
		a.ctx.SDK.WaypointCompleted()
	}
}
