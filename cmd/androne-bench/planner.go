// The flight-planner benchmark: BENCH_planner.json records the incremental
// annealing kernel's cost per move against the pre-kernel cloning baseline
// at several instance sizes, the parallel-restart scaling of Plan, and the
// planner-to-fleet campaign loop (planned-vs-debited energy within
// tolerance, re-planning on a drone loss, and the sabotage negative
// control).
//
// Honesty notes: ns/move divides wall-clock by iteration count, so it
// includes each annealer's full bookkeeping (the baseline's clone +
// from-scratch cost; the kernel's delta arithmetic + snapshotting), which
// is exactly the quantity Plan pays per iteration. The two annealers walk
// different trajectories — the comparison is cost-per-move, not
// solution-quality-at-equal-moves; solution parity is pinned separately by
// the in-bench parity gate (incremental cost must equal the naive
// recomputation bit-for-bit after every move) and by the restart
// determinism gate (Plan bit-identical at workers=1 vs NumCPU).

package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"androne/internal/campaign"
	"androne/internal/geo"
	"androne/internal/planner"
)

// plannerTasks builds a deterministic instance with exactly n single-stop
// tasks scattered over a ~2 km box around home, so "stops" below means n.
func plannerTasks(n int, seed string) []planner.Task {
	r := benchRNG(seed)
	tasks := make([]planner.Task, 0, n)
	for i := 0; i < n; i++ {
		north := r()*2000 - 1000
		east := r()*2000 - 1000
		tasks = append(tasks, planner.Task{
			ID: fmt.Sprintf("t%04d", i),
			Waypoints: []geo.Waypoint{{
				Position:  geo.Position{LatLon: geo.OffsetNE(home.LatLon, north, east), Alt: 15},
				MaxRadius: 40,
			}},
			EnergyJ:   1500 + r()*4000,
			DurationS: 20 + r()*60,
		})
	}
	return tasks
}

// benchRNG is a tiny deterministic uniform source for instance generation
// (xorshift over an FNV-1a hash of the seed).
func benchRNG(seed string) func() float64 {
	var s uint64 = 1469598103934665603
	for i := 0; i < len(seed); i++ {
		s ^= uint64(seed[i])
		s *= 1099511628211
	}
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return (float64(s>>11) + 0.5) / (1 << 53)
	}
}

// plannerOpts parameterizes the experiment: main runs the full (100/1000/
// 5000 stops) or smoke-sized comparison; tests inject smaller sizes so the
// whole pipeline runs in seconds. The second size's speedup is gated.
type plannerOpts struct {
	seed       string
	sizes      []int // nil means 100/1000/5000
	minSpeedup float64
	campaignN  int // deliveries; 0 means 6
}

func plannerSmokeOpts(o plannerOpts) plannerOpts {
	o.sizes = []int{100, 400}
	o.campaignN = 4
	return o
}

// plannerBench runs the flight-planner experiment and enforces its gates:
// >= 25x ns/move over the cloning baseline at the gated size, bit-level
// incremental-vs-naive cost parity, bit-identical restart winners at any
// worker count, and the campaign loop including its sabotage control.
func plannerBench(o plannerOpts) (*record, error) {
	header("Fleet-scale flight planner: incremental kernel vs cloning baseline")
	sizes := o.sizes
	if sizes == nil {
		sizes = []int{100, 1000, 5000}
	}
	if o.minSpeedup == 0 {
		o.minSpeedup = 25
	}
	if o.campaignN == 0 {
		o.campaignN = 6
	}
	rec := newRecord("planner")

	var gated float64 // the second size's speedup
	for si, n := range sizes {
		tasks := plannerTasks(n, o.seed+"-pl")
		cfg := planner.DefaultConfig(home)
		cfg.FleetSize = 1 + n/64
		cfg.Seed = o.seed + "-pl"

		// Baseline: clone-everything annealer. Its per-move cost is O(N), so
		// cap iterations to keep the leg bounded at large N.
		baseIters := 20000
		if n > 500 {
			baseIters = 2000
		}
		cfg.Iterations = baseIters
		t0 := time.Now()
		cfg.BaselineAnneal(tasks)
		baseNs := float64(time.Since(t0).Nanoseconds()) / float64(baseIters)

		// Kernel: O(1) moves, so it affords far more of them.
		kernIters := 100000
		cfg.Iterations = kernIters
		t0 = time.Now()
		cfg.KernelAnneal(tasks)
		kernNs := float64(time.Since(t0).Nanoseconds()) / float64(kernIters)

		at := fmt.Sprintf("@%d", n)
		rec.param("planner.baseline_iters"+at, "moves", float64(baseIters))
		rec.param("planner.kernel_iters"+at, "moves", float64(kernIters))
		rec.add("planner.baseline_ns_per_move"+at, "ns", baseNs, "lower")
		rec.add("planner.kernel_ns_per_move"+at, "ns", kernNs, "lower")
		rec.add("planner.kernel_speedup"+at, "x", baseNs/kernNs, "higher")
		if si == 1 {
			gated = baseNs / kernNs
		}

		// Parity gate on the smallest size: after every unconditionally
		// accepted move the incremental cost must equal a from-scratch
		// recomputation bit-for-bit.
		if si == 0 {
			const moves = 2000
			got, err := cfg.KernelParity(tasks, moves)
			rec.check("planner.cost_parity", err == nil,
				"%d of %d moves at %d stops match the naive recomputation bit-for-bit: %s", got, moves, n, outcome(err))
		}
	}
	rec.check("planner.kernel_speedup", gated >= o.minSpeedup,
		"kernel %.1fx baseline ns/move at %d stops (gate >= %.0fx)", gated, sizes[1], o.minSpeedup)

	// Parallel restarts: same plan bit-for-bit at workers=1 and a parallel
	// pool (NumCPU, but at least 4 so interleaving is exercised even on
	// small hosts).
	const rstStops, restarts, rstIters = 200, 8, 4000
	parWorkers := max(runtime.NumCPU(), 4)
	rTasks := plannerTasks(rstStops, o.seed+"-rst")
	rcfg := planner.DefaultConfig(home)
	rcfg.FleetSize = 4
	rcfg.Seed = o.seed + "-rst"
	rcfg.Restarts = restarts
	rcfg.Iterations = rstIters
	rcfg.Workers = 1
	t0 := time.Now()
	serial, err := rcfg.Plan(rTasks)
	if err != nil {
		return nil, err
	}
	serialWall := time.Since(t0)
	rcfg.Workers = parWorkers
	t0 = time.Now()
	par, err := rcfg.Plan(rTasks)
	if err != nil {
		return nil, err
	}
	parWall := time.Since(t0)
	rec.param("planner.restart_stops", "stops", rstStops)
	rec.param("planner.restarts", "chains", restarts)
	rec.param("planner.restart_iters", "moves", rstIters)
	rec.param("planner.restart_workers", "workers", float64(parWorkers))
	rec.add("planner.restart_serial_ms", "ms", ms(serialWall), "lower")
	rec.add("planner.restart_parallel_ms", "ms", ms(parWall), "lower")
	rec.add("planner.restart_speedup", "x", ms(serialWall)/ms(parWall), "higher")
	rec.check("planner.restart_bit_identical", reflect.DeepEqual(serial, par),
		"restart winner at workers=1 vs workers=%d", parWorkers)

	// Campaign loop: plan, fly, check planned-vs-debited energy, re-plan
	// around an injected drone loss — then the sabotage negative control.
	const tolerance = 0.35
	ccfg := campaign.Config{
		Planner:       planner.DefaultConfig(home),
		Deliveries:    campaign.RingDeliveries(o.campaignN, o.seed+"-camp", home),
		Seed:          o.seed + "-camp",
		Fault:         &campaign.Fault{Route: 0, AfterStops: 1},
		ToleranceFrac: tolerance,
	}
	ccfg.Planner.FleetSize = 2
	ccfg.Planner.Iterations = 2000
	ccfg.Planner.Restarts = 2
	ccfg.Planner.Seed = o.seed + "-camp"
	res, err := ccfg.Run()
	if res == nil {
		return nil, fmt.Errorf("campaign leg failed: %w", err)
	}
	rec.param("campaign.deliveries", "deliveries", float64(o.campaignN))
	rec.param("campaign.tolerance_frac", "frac", tolerance)
	rec.param("campaign.flights", "flights", float64(len(res.Flights)))
	rec.param("campaign.replans", "replans", float64(res.Replans))
	rec.param("campaign.waypoints_flown", "waypoints", float64(res.WaypointsVisited))
	rec.add("campaign.max_energy_deviation_frac", "frac", res.MaxDeviationFrac, "lower")
	rec.check("campaign.energy_within_tolerance", err == nil,
		"max planned-vs-debited deviation %.1f%% (tolerance %.0f%%): %s",
		res.MaxDeviationFrac*100, tolerance*100, outcome(err))

	sab := ccfg
	sab.Fault = nil
	sab.Sabotage = true
	_, err = sab.Run()
	rec.check("campaign.sabotage_tripped", err != nil,
		"a broken-model plan must trip the planned-vs-debited checker: %s", outcome(err))
	return rec, nil
}

// outcome renders a leg's error for a gate detail.
func outcome(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}
