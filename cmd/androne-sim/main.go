// Command androne-sim runs one end-to-end AnDrone scenario through the
// deterministic simulation harness: the full stack (cloud orders, VDC,
// device container, MAVProxy VFCs, flight controller, SITL physics, GCS
// links) flies a declarative scenario with fault injection while the
// paper's invariant checks run every tick.
//
// Usage:
//
//	androne-sim -list
//	androne-sim -scenario breach-loiter
//	androne-sim -file examples/breach-loiter.json
//	androne-sim -scenario survey-baseline -seed my-seed -json
//	androne-sim -fleet 64 -workers 8 -scenario survey-baseline
//
// With -fleet N the named scenario is flown by N independent drone
// stacks across a bounded worker pool (internal/fleet): each drone gets
// a derived seed, results print in drone order with per-drone trace
// hashes, and the run fails if any drone's invariants fail. The same
// fleet with any -workers value yields identical hashes.
//
// With -mode event the harness leaps over the provably idle stretches of
// ground holds instead of stepping every tick — same traces, same hashes,
// far less wall-clock on duty-cycled scenarios.
//
// The tick-stamped event trace goes to stdout; invariant violations go to
// stderr and make the command exit non-zero — CI and humans share one
// harness. Every violation report carries the flight recorder's black-box
// dump for that moment; -record-dir writes all FlightRecords of the run as
// JSON files (inspect them with androne-trace).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"androne/internal/fleet"
	"androne/internal/simharness"
	"androne/internal/telemetry"
)

func main() {
	list := flag.Bool("list", false, "list shipped scenarios and exit")
	name := flag.String("scenario", "", "run a shipped scenario by name")
	file := flag.String("file", "", "run a scenario from a JSON file")
	seed := flag.String("seed", "", "override the scenario's seed")
	asJSON := flag.Bool("json", false, "emit the full result as JSON instead of a trace")
	quiet := flag.Bool("quiet", false, "suppress the event trace (violations still print)")
	recordDir := flag.String("record-dir", "", "write each FlightRecord of the run to this directory as JSON")
	fleetN := flag.Int("fleet", 0, "run N independent drone stacks of the scenario (0 = single run)")
	workers := flag.Int("workers", runtime.NumCPU(), "worker pool size for -fleet runs")
	modeName := flag.String("mode", "lockstep", "time-advance mode: lockstep or event (bit-identical results; event leaps idle ticks)")
	flag.Parse()

	var mode simharness.Mode
	switch *modeName {
	case "lockstep":
		mode = simharness.ModeLockstep
	case "event":
		mode = simharness.ModeEvent
	default:
		fatal("unknown -mode %q (want lockstep or event)", *modeName)
	}

	if *list {
		fmt.Println("builtin scenarios (expected to pass):")
		for _, sc := range simharness.Builtins() {
			fmt.Printf("  %-20s %d drone(s), %d fault(s)\n", sc.Name, len(sc.Drones), len(sc.Faults))
		}
		fmt.Println("sabotaged scenarios (expected to fail their checker):")
		for _, sc := range simharness.Sabotaged() {
			fmt.Printf("  %-20s sabotage=%s\n", sc.Name, sc.Sabotage)
		}
		return
	}

	if *fleetN > 0 {
		runFleet(*fleetN, *workers, *name, *seed, mode, *asJSON, *quiet)
		return
	}

	var sc *simharness.Scenario
	var err error
	switch {
	case *name != "" && *file != "":
		fatal("use -scenario or -file, not both")
	case *name != "":
		sc = simharness.ByName(*name)
		if sc == nil {
			fatal("unknown scenario %q (try -list)", *name)
		}
	case *file != "":
		sc, err = simharness.Load(*file)
		if err != nil {
			fatal("%v", err)
		}
	default:
		fatal("nothing to run: use -scenario, -file, or -list")
	}
	if *seed != "" {
		sc.Seed = *seed
	}

	res, err := simharness.RunScenarioMode(sc, mode)
	if err != nil {
		fatal("%s: %v", sc.Name, err)
	}

	switch {
	case *asJSON:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal("%v", err)
		}
	case !*quiet:
		fmt.Printf("scenario %s (seed %q): %d ticks, %.1fs sim\n",
			res.Scenario, res.Seed, res.Ticks, res.SimSeconds)
		fmt.Print(res.Trace())
	}

	if *recordDir != "" {
		if err := writeRecords(*recordDir, res); err != nil {
			fatal("%v", err)
		}
		if !*quiet && !*asJSON {
			fmt.Printf("%d flight record(s) written to %s\n", len(res.FlightRecords), *recordDir)
		}
	}

	if !res.Passed() {
		fmt.Fprintf(os.Stderr, "%d invariant violation(s):\n", len(res.Violations))
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
			// Attach the black-box dump taken at the violation so the report
			// is self-diagnosing.
			for _, rec := range res.FlightRecords {
				if rec.Trigger == "violation:"+v.Checker && rec.Drone == v.Drone && rec.Tick == uint64(v.Tick) {
					fmt.Fprintf(os.Stderr, "    black box: trigger=%s tick=%d events=%d (last: %s)\n",
						rec.Trigger, rec.Tick, len(rec.Events), lastKinds(rec, 5))
				}
			}
		}
		os.Exit(1)
	}
	if !*quiet && !*asJSON {
		fmt.Println("all invariants held")
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "androne-sim: "+format+"\n", args...)
	os.Exit(2)
}

// runFleet flies the named scenario as an N-drone fleet and prints the
// per-drone outcomes in drone order.
func runFleet(drones, workers int, scenario, seed string, mode simharness.Mode, asJSON, quiet bool) {
	if scenario == "" {
		scenario = "survey-baseline"
	}
	if seed == "" {
		seed = "fleet-1"
	}
	sum, err := fleet.Run(fleet.Config{
		Drones: drones, Workers: workers, Seed: seed, Scenario: scenario, Mode: mode,
	})
	if err != nil {
		fatal("%v", err)
	}

	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			fatal("%v", err)
		}
	} else if !quiet {
		fmt.Printf("fleet: %d drone(s) of %s (seed %q, %d workers)\n",
			sum.Drones, sum.Scenario, sum.Seed, sum.Workers)
		for _, r := range sum.Results {
			status := "passed"
			if r.Err != "" {
				status = "error: " + r.Err
			} else if !r.Passed {
				status = fmt.Sprintf("%d violation(s)", r.Violations)
			}
			fmt.Printf("  drone %04d  seed %-28s ticks %5d  events %3d  hash %s  %s\n",
				r.Index, r.Seed, r.Ticks, r.Events, shortHash(r.TraceHash), status)
		}
	}

	if !sum.Passed() {
		failed := 0
		for _, r := range sum.Results {
			if r.Err != "" || !r.Passed {
				failed++
			}
		}
		fmt.Fprintf(os.Stderr, "fleet: %d/%d drone(s) failed\n", failed, sum.Drones)
		os.Exit(1)
	}
	if !quiet && !asJSON {
		fmt.Println("all drones passed")
	}
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// lastKinds summarizes the tail of a record's event stream.
func lastKinds(rec telemetry.FlightRecord, n int) string {
	start := len(rec.Events) - n
	if start < 0 {
		start = 0
	}
	out := ""
	for _, ev := range rec.Events[start:] {
		if out != "" {
			out += " "
		}
		out += ev.Kind
	}
	return out
}

// writeRecords writes each FlightRecord as its own JSON file, named by
// order, trigger, and drone so a directory listing reads as a timeline.
func writeRecords(dir string, res *simharness.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, rec := range res.FlightRecords {
		name := fmt.Sprintf("%03d-%s", i, sanitize(rec.Trigger))
		if rec.Drone != "" {
			name += "-" + sanitize(rec.Drone)
		}
		raw, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name+".json"), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// sanitize maps a trigger/drone label to a filename-safe token.
func sanitize(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '.':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}
