package main

import (
	"strings"
	"testing"

	"androne/internal/simharness"
)

func TestFleet10kScenario(t *testing.T) {
	sc := fleet10kScenario()
	if sc.Name != "duty-cycle-3600" || sc.HoldBeforeS != 3600 || sc.HoldAfterS != 60 {
		t.Fatalf("unexpected bench scenario: %+v", sc)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	// The tick budget must cover both holds plus the flight, or the run
	// aborts mid-scenario and the comparison is meaningless.
	if need := int((sc.HoldBeforeS+sc.HoldAfterS)/simharness.TickS) + 2000; sc.MaxTicks < need {
		t.Fatalf("MaxTicks %d cannot cover the holds (need >= %d)", sc.MaxTicks, need)
	}
	// ByName hands out copies: mutating the bench variant must not leak
	// into the builtin the differential suite runs.
	if base := simharness.ByName("duty-cycle"); base.HoldBeforeS != 600 {
		t.Fatalf("fleet10kScenario mutated the duty-cycle builtin: hold %v", base.HoldBeforeS)
	}
}

// TestFleet10kPipeline runs the full experiment — both legs, the hash
// cross-check, the speedup gate, the record — on a shrunken duty cycle so
// it finishes in seconds. The gate is the real one: event mode must beat
// lockstep by >= 10x per drone even at this size.
func TestFleet10kPipeline(t *testing.T) {
	rec, err := testFleet10k()
	metric, gate := lookups(t, written(t, rec, err))

	if g := gate("fleet.cross_mode_hashes"); !strings.HasPrefix(g.Detail, "duty-cycle-test:") || metric("fleet.workers") != 2 {
		t.Errorf("header: hash gate %q workers %v", g.Detail, metric("fleet.workers"))
	}
	if g := gate("fleet.all_drones_passed"); !g.Pass {
		t.Errorf("a leg reported failing drones: %s", g.Detail)
	}
	if lock, event := metric("fleet.lockstep_drones"), metric("fleet.event_drones"); lock != 1 || event != 3 {
		t.Errorf("leg sizes: lockstep %v event %v", lock, event)
	}
	if g := gate("fleet.cross_mode_hashes"); !g.Pass || metric("fleet.hashes_cross_checked") < 1 {
		t.Errorf("no shared-seed drones were hash-checked across modes: %s", g.Detail)
	}
	if sp := metric("fleet.speedup_per_drone"); sp < 10 || !gate("fleet.event_speedup").Pass {
		t.Errorf("speedup %.1fx below the 10x gate", sp)
	}
	if metric("fleet.lockstep_wall_ms") <= 0 || metric("fleet.event_wall_ms") <= 0 || metric("fleet.event_sim_s_per_s") <= 0 {
		t.Errorf("timing metrics not populated: %+v", rec.Metrics)
	}
}
