// Command androne-bench regenerates the tables and figures of the AnDrone
// paper's evaluation (§6) and prints them in the same shape the paper
// reports.
//
// Usage:
//
//	androne-bench -exp all
//	androne-bench -exp fig11 -loops 1000000
//
// Experiments: table1, fig10, fig11, fig12, fig13, net, aed, sitl, all.
//
// The extra "baseline" experiment (not part of "all") benchmarks the
// stack's instrumented hot paths with telemetry on and off and writes the
// machine-readable result to -baseline-out (BENCH_baseline.json at the repo
// root is the committed reference).
//
// The extra "scale" experiment (also not part of "all") measures parallel
// binder transact throughput at -cpu 1/4/8, the vfc-send allocation
// budget, and fleet replay determinism at 1/8/64/256 drones, writing
// -scale-out (BENCH_scale.json at the repo root is the committed
// reference). With -scale-smoke it runs the abbreviated CI gate instead.
//
// The extra "fleet10k" experiment (also not part of "all") compares
// event-driven and lockstep fleet throughput on a duty-cycled scenario,
// cross-checks trace hashes between the modes, and writes -fleet10k-out
// (BENCH_fleet10k.json at the repo root is the committed reference).
// With -fleet10k-smoke it runs a reduced CI-sized fleet with the same
// gates.
//
// The extra "cloud" experiment (also not part of "all") drives a
// multi-tenant load workload through the admission-controlled service
// plane and enforces the SLO gates (p99 latency budget, dedup floor on
// checkpoint churn), writing -cloud-out (BENCH_cloud.json at the repo
// root is the committed reference). With -cloud-smoke it runs a reduced
// CI-sized population with the same gates.
package main

import (
	"flag"
	"fmt"
	"os"
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

func main() {
	exp := flag.String("exp", "all", "experiment: table1|fig10|fig11|fig12|fig13|net|aed|sitl|all")
	loops := flag.Int("loops", 400000, "cyclictest loops per scenario")
	netN := flag.Int("net-commands", 150000, "MAVLink commands for the network experiment")
	seed := flag.String("seed", "androne", "deterministic seed")
	baselineOut := flag.String("baseline-out", "", "write the baseline experiment's JSON here")
	scaleOut := flag.String("scale-out", "", "write the scale experiment's JSON here")
	scaleSmokeFlag := flag.Bool("scale-smoke", false, "run the abbreviated scale gate for CI instead of the full experiment")
	fleet10kOut := flag.String("fleet10k-out", "", "write the fleet10k experiment's JSON here")
	fleet10kDrones := flag.Int("fleet10k-drones", 10000, "event-mode fleet size for the fleet10k experiment")
	fleet10kSmokeFlag := flag.Bool("fleet10k-smoke", false, "run the reduced fleet10k gate for CI instead of the full experiment")
	cloudOut := flag.String("cloud-out", "", "write the cloud experiment's JSON here")
	cloudSmokeFlag := flag.Bool("cloud-smoke", false, "run the reduced cloud service-plane gate for CI instead of the full experiment")
	plannerOut := flag.String("planner-out", "", "write the planner experiment's JSON here")
	plannerSmokeFlag := flag.Bool("planner-smoke", false, "run the reduced planner kernel gate for CI instead of the full experiment")
	flag.Parse()

	run := map[string]func() error{
		"table1":   table1,
		"fig10":    fig10,
		"fig11":    func() error { return fig11(*loops, *seed) },
		"fig12":    fig12,
		"fig13":    fig13,
		"net":      func() error { return network(*netN, *seed) },
		"gcs":      func() error { return gcsExperiment(*seed) },
		"jitter":   func() error { return jitter(*seed) },
		"aed":      func() error { return aed(*seed) },
		"sitl":     func() error { return sitlFlight(*seed) },
		"baseline": func() error { return baseline(*baselineOut, *seed) },
		"scale":    func() error { return scale(*scaleOut, *seed, *scaleSmokeFlag) },
		"fleet10k": func() error {
			o := fleet10kOpts{out: *fleet10kOut, seed: *seed, eventDrones: *fleet10kDrones}
			if *fleet10kSmokeFlag {
				o.eventDrones, o.lockDrones = 128, 2
			}
			return fleet10k(o)
		},
		"cloud": func() error {
			o := cloudOpts{out: *cloudOut, seed: *seed}
			if *cloudSmokeFlag {
				o.cfg = loadgen.DefaultConfig()
				o.cfg.Tenants, o.cfg.OrdersPerTenant = 3, 1
				o.cfg.BrowseRepeat, o.cfg.ChurnRounds = 10, 3
				o.cfg.Seed = *seed + "-cloud-smoke"
			}
			return cloudBench(o)
		},
		"planner": func() error {
			o := plannerOpts{out: *plannerOut, seed: *seed}
			if *plannerSmokeFlag {
				o = plannerSmokeOpts(o)
			}
			return plannerBench(o)
		},
	}
	names := []string{"table1", "fig10", "fig11", "fig12", "fig13", "net", "gcs", "jitter", "aed", "sitl"}

	var todo []string
	if *exp == "all" {
		todo = names
	} else {
		for _, e := range strings.Split(*exp, ",") {
			if _, ok := run[e]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", e, strings.Join(names, ", "))
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}
	for _, e := range todo {
		if err := run[e](); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e, err)
			os.Exit(1)
		}
		fmt.Println()
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
	fmt.Printf("  VDR entries after flight: %d\n", len(env.VDR.List()))
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
