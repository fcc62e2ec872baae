package main

import (
	"fmt"
	"runtime"
	"time"

	"androne/internal/fleet"
	"androne/internal/simharness"
)

// ledgerGate is the share of traced wall time the named layers' self
// times must cover.
const ledgerGate = 0.90

// flightReps is how many untraced/traced flight pairs the per-tick level
// flies per scenario; the trace overhead is their median. droneSamples
// is how many drones per scenario the per-drone level times.
const (
	flightReps   = 3
	droneSamples = 2
)

// traceFleet is the fleet workloads' traced mode. It works at three
// levels: an untraced pass of rounds for the workload-level numbers and
// the registry counts, a per-drone level timing simharness.NewRunner
// and RunScenarioMode, and a per-tick level flying one stack per
// scenario with every layer timed from outside.
func traceFleet(o options, w fleetWorkload, rep *report, seed string) error {
	zeroPerLayer(rep)

	// Untraced pass, half the timed run's rounds.
	names := []string{"androne_binder_transactions_total", "androne_vfc_sends_total",
		"androne_vfc_rejects_total", "androne_dev_acquires_total"}
	runtime.GC()
	before := counters(names...)
	gc := readGC()
	res, err := w.flyRounds(seed, (w.rounds(o.seconds)+1)/2, nil)
	if err != nil {
		return err
	}
	gcFrac, pauseMS := gc.since()
	after := counters(names...)
	rep.attempted += res.drones
	rep.failed += res.failed
	if res.failed > 0 {
		rep.problem("%d of %d drones failed their checkers", res.failed, res.drones)
	}
	perSimS := func(n string) float64 { return (after[n] - before[n]) / res.simS }
	rep.set("binder.txns", perSimS(names[0]), "1/sim_s")
	rep.set("mavproxy.vfc_sends", perSimS(names[1]), "1/sim_s")
	rep.set("mavproxy.vfc_rejects", perSimS(names[2]), "1/sim_s")
	rep.set("devcon.acquires", perSimS(names[3]), "1/sim_s")
	rep.set("runtime.gc_cpu_frac", gcFrac, "frac")
	rep.set("runtime.gc_pause_ms", pauseMS, "ms")
	rep.set("sim_s_per_s", res.simS/res.wall.Seconds(), "s/s")
	rep.set("op_tail_ms", summarize(res.latencies, 0).Tail, "ms")
	rep.set("fail_frac", float64(res.failed)/float64(res.drones), "frac")

	// Per drone: stack build and whole-scenario run, serially.
	var setupMS, scenarioMS []float64
	for k, mk := range w.rotation {
		for i := 0; i < droneSamples; i++ {
			droneSeed := fleet.DroneSeed(fmt.Sprintf("%s/trace-%d", seed, k), i)
			sc := mk()
			sc.Seed = droneSeed
			t0 := time.Now()
			if _, err := simharness.NewRunner(sc); err != nil {
				return err
			}
			setupMS = append(setupMS, ms(time.Since(t0)))
			sc = mk()
			sc.Seed = droneSeed
			t0 = time.Now()
			r, err := simharness.RunScenarioMode(sc, w.mode)
			if err != nil {
				return err
			}
			scenarioMS = append(scenarioMS, ms(time.Since(t0)))
			rep.attempted++
			if !r.Passed() {
				rep.failed++
				rep.problem("traced drone %s of %s failed its checkers", droneSeed, sc.Name)
			}
		}
	}
	rep.set("simharness.setup_ms", median(setupMS), "ms")
	rep.set("simharness.scenario_ms", median(scenarioMS), "ms")

	// Per tick: untraced and traced flights of the same stack, alternating
	// which goes first.
	led := newLedger()
	var tracedWall time.Duration
	var overheads []float64
	var parked, leapt, flights int64
	for k, mk := range w.rotation {
		for i := 0; i < flightReps; i++ {
			sc := mk()
			sc.Seed = fmt.Sprintf("%s/flight-%d-%d", seed, k, i)
			var plainEnd, tracedEnd flightEnd
			var plainWall, wall time.Duration
			var one *ledger
			var f *flightRun
			for pass := 0; pass < 2; pass++ {
				if (pass+i)%2 == 0 {
					plainEnd, plainWall, _, err = flyScenario(sc, nil)
				} else {
					one = newLedger()
					tracedEnd, wall, f, err = flyScenario(sc, one)
				}
				if err != nil {
					return fmt.Errorf("flying %s: %w", sc.Name, err)
				}
			}
			rep.attempted++
			if !sameEnd(plainEnd, tracedEnd) {
				rep.failed++
				rep.problem("traced %s flight did not end bit-identical to the untraced one", sc.Name)
			}
			led.merge(one)
			tracedWall += wall
			overheads = append(overheads, wall.Seconds()/plainWall.Seconds()-1)
			parked += f.parked
			leapt += f.leapt
			flights++
		}
	}

	for _, n := range []string{"sitl.step", "flight.step", "flight.truth", "telemetry.tick", "mavproxy.tick",
		"binder.flush", "core.vdc_tick", "core.fingerprint", "core.parked_tick"} {
		rep.set(n+"_ns", led.meanNS(n), "ns")
	}
	rep.set("core.control_ms", ms(led.selfTime("core.control"))/float64(flights), "ms")
	if leapt > 0 {
		rep.set("core.leap_ns_per_tick", float64(led.selfTime("core.leap").Nanoseconds())/float64(leapt), "ns")
	}
	unattributed := 1 - led.attributed().Seconds()/tracedWall.Seconds()
	rep.set("bench.unattributed_frac", unattributed, "frac")
	rep.set("bench.trace_overhead_frac", median(overheads), "frac")
	if unattributed > 1-ledgerGate {
		rep.problem("named layers cover %.1f%% of traced wall time, below the %.0f%% gate", 100*(1-unattributed), 100*ledgerGate)
	}
	printLedger(rep, led, tracedWall)
	rep.note("per-tick flights %d: %d parked ticks stepped, %d leapt", flights, parked, leapt)
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// printLedger adds one note line per leaf layer with its share of the
// traced wall time.
func printLedger(rep *report, led *ledger, wall time.Duration) {
	for _, n := range led.leaves() {
		rep.note("ledger %-26s %10.3f ms %6.2f%%  (%d calls)", n, ms(led.selfTime(n)),
			100*led.selfTime(n).Seconds()/wall.Seconds(), led.calls(n))
	}
	rep.note("ledger %-26s %10.3f ms (clock read %v, subtracted from every span)", "traced wall", ms(wall), clockCost)
}
