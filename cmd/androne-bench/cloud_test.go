package main

import "testing"

// TestCloudPipeline runs the full cloud experiment — workload, SLO gates,
// record — on a two-tenant population so it finishes in seconds. The
// gates are the real ones: zero errors and violations, p99 under budget,
// dedup >= 2x on the churn workload.
func TestCloudPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("flies whole missions")
	}
	rec, err := testCloud()
	metric, gate := lookups(t, written(t, rec, err))

	if metric("cloud.tenants") != 2 || metric("cloud.churn_rounds") != 3 {
		t.Errorf("header: tenants %v churn %v", metric("cloud.tenants"), metric("cloud.churn_rounds"))
	}
	budget := metric("cloud.p99_budget_ms")
	if budget != 250 || metric("cloud.dedup_floor") != 2 {
		t.Errorf("default gates: p99 %v dedup %v", budget, metric("cloud.dedup_floor"))
	}
	requests, errs, violations := metric("cloud.portal.requests"), metric("cloud.portal.errors"), metric("cloud.vdr.violations")
	if requests == 0 || errs != 0 || violations != 0 {
		t.Errorf("result: requests %v errors %v violations %v", requests, errs, violations)
	}
	if p99 := metric("cloud.portal.p99_ms"); p99 <= 0 || p99 > budget {
		t.Errorf("p99 %.2f ms outside (0, %.0f]", p99, budget)
	}
	if dedup := metric("cloud.blob.dedup_ratio"); dedup < 2 {
		t.Errorf("dedup %.2fx below the floor (logical %v B, physical %v B)",
			dedup, metric("cloud.blob.logical_bytes"), metric("cloud.blob.physical_bytes"))
	}
	if rounds, rps := metric("cloud.fly_rounds"), metric("cloud.portal.throughput_rps"); rounds != 2 || rps <= 0 {
		t.Errorf("fly rounds %v, throughput %.1f", rounds, rps)
	}
	for _, name := range []string{"cloud.no_errors", "cloud.no_violations", "cloud.p99_budget", "cloud.dedup_floor"} {
		if g := gate(name); !g.Pass {
			t.Errorf("gate %s failed: %s", name, g.Detail)
		}
	}
}
