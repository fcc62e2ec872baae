// The fleet-scaling benchmark: BENCH_scale.json records how the stack's
// two hottest paths behave as drone count and CPU count grow, now that
// Transact and VFC.Send read their tables through atomic snapshots
// instead of Driver.mu. Three sections:
//
//   - binder.transact_parallel: throughput of concurrent Transact calls
//     (one attached Proc per worker) at GOMAXPROCS 1, 4, and 8, with the
//     cpu1→cpuN speedup estimated by the interleaved A/B pairing the
//     baseline experiment uses for telemetry overhead;
//   - mavproxy.vfc_send: ns/op and allocs/op of the accepted-command path
//     (the allocation budget is 0; internal/mavproxy pins it with a test);
//   - fleet: wall-clock of N-drone fleet runs at workers=1 vs
//     workers=NumCPU (min 4), with per-drone trace-hash equality — the
//     determinism replay at benchmark scale. The 256-drone row is the
//     acceptance run; `make fleet` repeats it under -race.
//
// Honesty note: speedup above NumCPU is physically impossible — the host
// block records the CPU count and a note, and the cpu8 > cpu1 gate only
// compares when the host actually has 8 CPUs.

package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"androne/internal/fleet"
)

// scaleFleetDrones are the fleet sizes of the replay rows.
var scaleFleetDrones = []int{1, 8, 64, 256}

// parallelNs reports the best-of-rounds ns/op at one GOMAXPROCS setting,
// with worker count matching CPU count (the shape b.RunParallel uses).
func (r *echoRig) parallelNs(cpus, totalOps, rounds int) float64 {
	prev := runtime.GOMAXPROCS(cpus)
	defer runtime.GOMAXPROCS(prev)
	best := math.Inf(1)
	for i := 0; i < rounds; i++ {
		best = math.Min(best, r.segment(cpus, totalOps))
	}
	return best
}

// speedup estimates the cpu1→cpuN throughput ratio with abRatio.
func (r *echoRig) speedup(cpus, totalOps, pairs int) float64 {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	at := func(n int) func() float64 {
		return func() float64 {
			runtime.GOMAXPROCS(n)
			return r.segment(n, totalOps)
		}
	}
	return abRatio(at(1), at(cpus), pairs)
}

// timedRun runs one fleet and reports its wall-clock.
func timedRun(cfg fleet.Config) (*fleet.Summary, time.Duration, error) {
	t0 := time.Now()
	sum, err := fleet.Run(cfg)
	return sum, time.Since(t0), err
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// scale runs the fleet-scaling experiment over the given fleet sizes.
// smoke shortens only the binder-parallel measurement (cpu 1 and 8, fewer
// ops and rounds, no A/B speedup); every gate runs in both forms.
func scale(seed string, smoke bool, fleetDrones []int) (*record, error) {
	header("Fleet scaling: parallel binder transact, vfc-send, fleet replay")
	rec := newRecord("scale")

	cpus, totalOps, rounds := []int{1, 4, 8}, 100000, measureRounds
	if smoke {
		cpus, totalOps, rounds = []int{1, 8}, 50000, 2
	}
	rig, err := newEchoRig(cpus[len(cpus)-1])
	if err != nil {
		return nil, err
	}
	ns := make(map[int]float64)
	for _, c := range cpus {
		ns[c] = rig.parallelNs(c, totalOps, rounds)
		rec.add(fmt.Sprintf("binder.transact_parallel_ns@cpu%d", c), "ns", ns[c], "lower")
	}
	if !smoke {
		for _, c := range cpus[1:] {
			rec.add(fmt.Sprintf("binder.transact_speedup@cpu%d", c), "x", rig.speedup(c, totalOps, 20), "higher")
		}
	}
	if n := runtime.NumCPU(); n < 8 {
		rec.Host.Note = fmt.Sprintf(
			"host has %d CPU(s): cpu settings above that oversubscribe cores, so parallel speedup is not measurable here; the cpu8>cpu1 gate only applies on >=8-CPU hosts", n)
		rec.check("binder.cpu8_beats_cpu1", true, "skipped: host has %d CPU(s) < 8", n)
	} else {
		rec.check("binder.cpu8_beats_cpu1", ns[8] < ns[1], "cpu8 %.1f ns/op vs cpu1 %.1f ns/op", ns[8], ns[1])
	}

	ops, _, err := baselineOps(seed)
	if err != nil {
		return nil, err
	}
	best := benchOp{NsPerOp: math.Inf(1)}
	for i := 0; i < measureRounds; i++ {
		best = minOp(best, measureOnce(ops["mavproxy.vfc_send"]))
	}
	rec.add("mavproxy.vfc_send_ns", "ns", best.NsPerOp, "lower")
	rec.add("mavproxy.vfc_send_allocs", "allocs", float64(best.AllocsOp), "lower")
	rec.add("mavproxy.vfc_send_bytes", "B", float64(best.BytesOp), "lower")
	rec.check("mavproxy.vfc_send_zero_alloc", best.AllocsOp == 0, "%d allocs/op (budget 0)", best.AllocsOp)

	workers := max(runtime.NumCPU(), 4)
	rec.param("fleet.parallel_workers", "workers", float64(workers))
	for _, drones := range fleetDrones {
		cfg := fleet.Config{Drones: drones, Workers: 1, Seed: seed + "-fleet", Scenario: "survey-baseline"}
		serial, serialWall, err := timedRun(cfg)
		if err != nil {
			return nil, err
		}
		cfg.Workers = workers
		par, parWall, err := timedRun(cfg)
		if err != nil {
			return nil, err
		}
		rec.add(fmt.Sprintf("fleet.serial_ms@%d", drones), "ms", ms(serialWall), "lower")
		rec.add(fmt.Sprintf("fleet.parallel_ms@%d", drones), "ms", ms(parWall), "lower")
		rec.check(fmt.Sprintf("fleet.trace_hashes_identical@%d", drones),
			slices.Equal(serial.Hashes(), par.Hashes()),
			"survey-baseline at workers=1 vs workers=%d; all drones passed %v",
			workers, serial.Passed() && par.Passed())
	}
	return rec, nil
}
