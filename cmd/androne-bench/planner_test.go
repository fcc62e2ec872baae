package main

import (
	"strings"
	"testing"
)

// TestPlannerPipeline runs the full planner experiment — ns/move at both
// sizes, the parity gate, the restart determinism gate, the campaign loop
// and its sabotage control, the record — at test scale. The gates are the
// real ones: the kernel must beat the cloning baseline by >= 25x ns/move
// even on the small instances, and the sabotaged campaign must be caught.
func TestPlannerPipeline(t *testing.T) {
	rec, err := testPlanner(0)
	metric, gate := lookups(t, written(t, rec, err))

	rows := 0
	for _, m := range rec.Metrics {
		if strings.HasPrefix(m.Name, "planner.kernel_ns_per_move@") {
			rows++
		}
	}
	if rows != 2 || metric("planner.kernel_ns_per_move@60") <= 0 || metric("planner.kernel_ns_per_move@200") <= 0 {
		t.Fatalf("unexpected size rows: %+v", rec.Metrics)
	}
	if g := gate("planner.cost_parity"); !g.Pass || !strings.HasPrefix(g.Detail, "2000 of 2000 moves at 60 stops") {
		t.Fatalf("parity gate did not run: %+v", g)
	}
	if sp := metric("planner.kernel_speedup@200"); sp < 25 || !gate("planner.kernel_speedup").Pass {
		t.Fatalf("gated speedup %.1fx below 25x", sp)
	}
	if !gate("planner.restart_bit_identical").Pass {
		t.Fatal("restart leg not bit-identical")
	}
	if !gate("campaign.sabotage_tripped").Pass {
		t.Fatal("sabotage control did not trip")
	}
	if r := metric("campaign.replans"); r != 1 {
		t.Fatalf("campaign replans = %v, want 1", r)
	}
	dev, tol := metric("campaign.max_energy_deviation_frac"), metric("campaign.tolerance_frac")
	if dev <= 0 || dev > tol || !gate("campaign.energy_within_tolerance").Pass {
		t.Fatalf("campaign deviation %.2f outside (0, %.2f]", dev, tol)
	}
}

// TestPlannerTasksDeterministic pins the instance generator: same seed,
// same tasks; the requested count is exact (stops == tasks, one waypoint
// each) so the "@stops" settings in BENCH_planner.json means what it says.
func TestPlannerTasksDeterministic(t *testing.T) {
	a := plannerTasks(50, "gen")
	b := plannerTasks(50, "gen")
	if len(a) != 50 {
		t.Fatalf("got %d tasks, want 50", len(a))
	}
	for i := range a {
		if len(a[i].Waypoints) != 1 {
			t.Fatalf("task %d has %d waypoints, want 1", i, len(a[i].Waypoints))
		}
		if a[i].ID != b[i].ID || a[i].Waypoints[0] != b[i].Waypoints[0] || a[i].EnergyJ != b[i].EnergyJ {
			t.Fatalf("task %d differs between identically-seeded generations", i)
		}
	}
}
