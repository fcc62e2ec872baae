// The event-scheduler benchmark: BENCH_fleet10k.json records how many
// duty-cycled drones the fleet engine sustains per unit wall-clock in
// event-driven mode versus lockstep, at equal scenario. The scenario is
// the duty-cycle builtin stretched to a one-hour pre-flight ground hold:
// a realistic fleet profile (drones spend most of their service life
// parked between sorties) and the workload the event scheduler exists
// for — lockstep pays 40 fast-loop physics steps for every parked tick,
// the event runner leaps the whole hold in O(1).
//
// Honesty notes: the speedup is per-drone wall-clock at equal scenario
// and equal worker count, so it measures the scheduler, not parallelism;
// the lockstep leg runs a small sample (each lockstep drone simulates
// ~37k ticks) and its per-drone cost is essentially constant across
// fleet sizes because drones are fully independent. Equivalence is not
// assumed: the event fleet's first drones share seeds with the lockstep
// sample and their trace hashes are cross-checked in-bench; the full
// differential suite lives in internal/simharness and internal/fleet.

package main

import (
	"runtime"
	"slices"

	"androne/internal/fleet"
	"androne/internal/simharness"
)

// fleet10kDrones is the event-mode fleet size of the full run.
const fleet10kDrones = 10000

// fleet10kScenario is the duty-cycle builtin with the hold stretched to
// an hour: ~36k parked ticks around a ~1.1k-tick flight.
func fleet10kScenario() *simharness.Scenario {
	sc := simharness.ByName("duty-cycle")
	sc.Name = "duty-cycle-3600"
	sc.HoldBeforeS = 3600
	sc.HoldAfterS = 60
	sc.MaxTicks = 48000
	return sc
}

// fleet10kOpts parameterizes the experiment: main runs the full or
// smoke-sized duty-cycle-3600 comparison; tests inject a smaller
// scenario and fleet so the whole pipeline — both legs, the hash
// cross-check, the gates, the record — runs in seconds.
type fleet10kOpts struct {
	seed        string
	eventDrones int
	lockDrones  int                  // 0 means the default sample of 8
	workers     int                  // 0 means NumCPU clamped up to 4
	sc          *simharness.Scenario // nil means fleet10kScenario()
}

// fleet10k runs the event-scheduler experiment. The gates (>= 10x
// per-drone speedup, cross-checked hashes, all drones passing their
// checkers) are enforced at every size.
func fleet10k(o fleet10kOpts) (*record, error) {
	header("Fleet at scale: event-driven scheduler vs lockstep (duty-cycle, 1h hold)")
	lockDrones := o.lockDrones
	if lockDrones == 0 {
		lockDrones = 8
	}
	lockDrones = min(lockDrones, o.eventDrones)
	workers := o.workers
	if workers == 0 {
		workers = max(runtime.NumCPU(), 4)
	}
	sc := o.sc
	if sc == nil {
		sc = fleet10kScenario()
	}
	rec := newRecord("fleet10k")
	rec.param("fleet.hold_before_s", "s", sc.HoldBeforeS)
	rec.param("fleet.hold_after_s", "s", sc.HoldAfterS)
	rec.param("fleet.workers", "workers", float64(workers))

	// Both legs use the same fleet seed, so the event fleet's first drones
	// replay the lockstep sample exactly.
	legs := []struct {
		mode   simharness.Mode
		label  string
		drones int
		sum    *fleet.Summary
		msPer  float64
	}{
		{mode: simharness.ModeLockstep, label: "lockstep", drones: lockDrones},
		{mode: simharness.ModeEvent, label: "event", drones: o.eventDrones},
	}
	for i := range legs {
		leg := &legs[i]
		sum, wall, err := timedRun(fleet.Config{
			Drones: leg.drones, Workers: workers, Seed: o.seed + "-f10k",
			Custom: sc, Mode: leg.mode,
		})
		if err != nil {
			return nil, err
		}
		var ticks int
		for j := range sum.Results {
			ticks += sum.Results[j].Ticks
		}
		leg.sum, leg.msPer = sum, ms(wall)/float64(leg.drones)
		rec.param("fleet."+leg.label+"_drones", "drones", float64(leg.drones))
		rec.add("fleet."+leg.label+"_wall_ms", "ms", ms(wall), "lower")
		rec.add("fleet."+leg.label+"_ms_per_drone", "ms", leg.msPer, "lower")
		rec.add("fleet."+leg.label+"_sim_s_per_s", "sim-s/s", float64(ticks)*simharness.TickS/wall.Seconds(), "higher")
	}
	lock, event := legs[0], legs[1]

	rec.check("fleet.all_drones_passed", lock.sum.Passed() && event.sum.Passed(),
		"lockstep passed=%v event passed=%v", lock.sum.Passed(), event.sum.Passed())
	lh := lock.sum.Hashes()
	rec.param("fleet.hashes_cross_checked", "drones", float64(len(lh)))
	rec.check("fleet.cross_mode_hashes", slices.Equal(lh, event.sum.Hashes()[:len(lh)]),
		"%s: trace hashes of %d shared-seed drones compared across modes", sc.Name, len(lh))
	speedup := lock.msPer / event.msPer
	rec.add("fleet.speedup_per_drone", "x", speedup, "higher")
	rec.check("fleet.event_speedup", speedup >= 10,
		"event mode sustains %.1fx more drones per unit wall-clock than lockstep (gate >= 10x)", speedup)
	return rec, nil
}
