package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"androne/internal/fleet"
	"androne/internal/simharness"
)

// fleetWorkers is the fleet.Run worker count: one per CPU.
var fleetWorkers = runtime.NumCPU()

// fleetWorkload is a fleet of full drone stacks run through fleet.Run in
// rounds. One round — the benchmark's unit of work, timed as one
// operation — is one fleet.Run of one drone per worker for each scenario
// of the rotation, so every round does the same mix of work.
type fleetWorkload struct {
	rotation []func() *simharness.Scenario
	mode     simharness.Mode
	// roundsPerSecond sizes the fixed work: --seconds times this many
	// rounds, about --seconds of wall time on a 2-CPU host.
	roundsPerSecond float64
}

// surveyWorkload is armed flight through every drone-side layer, with no
// idle leaping and no cloud plane.
func surveyWorkload() fleetWorkload {
	return fleetWorkload{
		rotation: []func() *simharness.Scenario{
			func() *simharness.Scenario { return simharness.ByName("survey-baseline") },
			func() *simharness.Scenario { return simharness.ByName("multi-tenant") },
			func() *simharness.Scenario { return simharness.ByName("lossy-gcs") },
		},
		mode:            simharness.ModeLockstep,
		roundsPerSecond: 6.5,
	}
}

// dutyCycleScenario is the duty-cycle builtin with an hour parked before
// the flight and ten minutes after it. The post-flight hold is where
// event mode falls back to stepping every tick.
func dutyCycleScenario() *simharness.Scenario {
	sc := simharness.ByName("duty-cycle")
	sc.HoldBeforeS = 3600
	sc.HoldAfterS = 600
	sc.MaxTicks = 50000
	return sc
}

func dutyCycleWorkload() fleetWorkload {
	return fleetWorkload{
		rotation:        []func() *simharness.Scenario{dutyCycleScenario},
		mode:            simharness.ModeEvent,
		roundsPerSecond: 2,
	}
}

func runFleetSurvey(o options) (*report, error)    { return runFleet(o, surveyWorkload()) }
func runFleetDutyCycle(o options) (*report, error) { return runFleet(o, dutyCycleWorkload()) }

func seedString(seed int64) string { return fmt.Sprintf("perfbench-%d", seed) }

// roundSeed derives the fleet seed of scenario i in round k; fleet.Run
// derives each drone's seed from it.
func roundSeed(seed string, k, i int) string { return fmt.Sprintf("%s/round-%04d-%d", seed, k, i) }

// rounds is the fixed number of rounds for a run of the given size.
func (w fleetWorkload) rounds(seconds int) int {
	if n := int(math.Round(w.roundsPerSecond * float64(seconds))); n > 1 {
		return n
	}
	return 1
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 11

// warmUp is one set-up: one drone of every scenario in the rotation,
// flown untimed so code paths, telemetry key interning and the heap are
// warm before the first timed round.
func (w fleetWorkload) warmUp(seed string) error {
	for i, mk := range w.rotation {
		sc := mk()
		sum, err := fleet.Run(fleet.Config{Drones: 1, Workers: 1, Seed: fmt.Sprintf("%s/warmup-%d", seed, i), Custom: sc, Mode: w.mode})
		if err != nil {
			return err
		}
		if !sum.Passed() {
			return fmt.Errorf("warm-up drone of %s failed its checkers", sc.Name)
		}
	}
	return nil
}

// roundsResult is the outcome of a sequence of timed rounds.
type roundsResult struct {
	latencies []time.Duration
	wall      time.Duration
	simS      float64
	drones    int
	failed    int
	// first holds the first round's fleet of each scenario, for the
	// replay check.
	first []*fleet.Summary
}

// flyRounds runs n rounds, timing each, and closes a heap window after
// each when heap is non-nil.
func (w fleetWorkload) flyRounds(seed string, n int, heap *heapPoller) (roundsResult, error) {
	var res roundsResult
	start := time.Now()
	for k := 0; k < n; k++ {
		t0 := time.Now()
		for i, mk := range w.rotation {
			sum, err := fleet.Run(fleet.Config{
				Drones: fleetWorkers, Workers: fleetWorkers, Seed: roundSeed(seed, k, i),
				Custom: mk(), Mode: w.mode,
			})
			if err != nil {
				return res, err
			}
			for _, r := range sum.Results {
				res.drones++
				res.simS += float64(r.Ticks) * simharness.TickS
				if r.Err != "" || !r.Passed {
					res.failed++
				}
			}
			if k == 0 {
				res.first = append(res.first, sum)
			}
		}
		res.latencies = append(res.latencies, time.Since(t0))
		heap.mark()
	}
	res.wall = time.Since(start)
	return res, nil
}

// replayCheck flies each scenario's first drone again in the other
// scheduling mode, outside the timed region, and compares trace hashes.
func (w fleetWorkload) replayCheck(rep *report, seed string, first []*fleet.Summary) error {
	other := simharness.ModeEvent
	if w.mode == simharness.ModeEvent {
		other = simharness.ModeLockstep
	}
	for i, want := range first {
		got, err := fleet.Run(fleet.Config{
			Drones: 1, Workers: 1, Seed: roundSeed(seed, 0, i),
			Custom: w.rotation[i](), Mode: other,
		})
		if err != nil {
			return err
		}
		rep.attempted++
		if got.Results[0].TraceHash != want.Results[0].TraceHash {
			rep.failed++
			rep.problem("%s drone %s: trace hash differs between scheduling modes", want.Scenario, got.Results[0].Seed)
		}
	}
	return nil
}

func runFleet(o options, w fleetWorkload) (*report, error) {
	rep := newReport()
	seed := seedString(o.seed)
	if o.trace {
		if err := w.warmUp(seed); err != nil {
			return nil, err
		}
		return rep, traceFleet(o, w, rep, seed)
	}
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.warmUp(seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups), "s")

	runtime.GC()
	heap := startHeapPoller(0)
	res, err := w.flyRounds(seed, w.rounds(o.seconds), heap)
	peak, maxHeap := heap.stopPeak()
	if err != nil {
		return nil, err
	}
	rep.attempted += res.drones
	rep.failed += res.failed
	if res.failed > 0 {
		rep.problem("%d of %d drones failed their checkers", res.failed, res.drones)
	}
	if err := w.replayCheck(rep, seed, res.first); err != nil {
		return nil, err
	}

	t := summarize(res.latencies, 0)
	rep.set("op_p50_ms", t.P50, "ms")
	rep.set("peak_heap_mb", peak, "MB")
	rep.note("rounds %d of %d drones, round latency p50 %.3f ms, p%g %.3f ms (n=%d)",
		len(res.latencies), res.drones/len(res.latencies), t.P50, t.TailAt, t.Tail, t.N)
	rep.note("round latency p10/p25/p50/p75/p90 %.1f ms", quartiles(res.latencies))
	rep.note("sim_s_per_s %.1f (%.0f simulated drone-seconds in %.3f s wall)",
		res.simS/res.wall.Seconds(), res.simS, res.wall.Seconds())
	rep.note("live heap: median per-round peak %.3f MB, overall peak %.3f MB", peak, maxHeap)
	rep.note("setup runs %v s", setups)
	return rep, nil
}
