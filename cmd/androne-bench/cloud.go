// The cloud service-plane benchmark: BENCH_cloud.json records what the
// multi-tenant front of the stack sustains — request latency quantiles and
// throughput through the admission-controlled portal, the shed rate, and
// the checkpoint dedup ratio the content-addressed VDR achieves on a
// save/restore churn workload. The traffic is internal/loadgen's full
// tenant lifecycle (browse, install, order, fly, re-order, churn) against
// an in-process service plane, so the numbers measure the service code,
// not sockets.
//
// Gates (enforced at every size, including -smoke):
//   - zero request errors and zero invariant violations from the churn
//     scenarios (save/restore must survive the layered VDR unchanged);
//   - tenant-facing p99 under the latency budget;
//   - dedup ratio >= 2x on the churn workload (the content-addressed
//     store must actually pay for itself).

package main

import (
	"androne/internal/loadgen"
)

const (
	cloudP99BudgetMS = 250
	cloudDedupFloor  = 2
)

// cloudBench runs the service-plane experiment on cfg's population and
// enforces its SLO gates.
func cloudBench(cfg loadgen.Config) (*record, error) {
	header("Cloud service plane: multi-tenant load with SLO gates")
	h, err := loadgen.New(cfg)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	res, err := h.Run()
	if err != nil {
		return nil, err
	}

	rec := newRecord("cloud")
	rec.param("cloud.tenants", "tenants", float64(cfg.Tenants))
	rec.param("cloud.orders_per_tenant", "orders", float64(cfg.OrdersPerTenant))
	rec.param("cloud.churn_rounds", "rounds", float64(cfg.ChurnRounds))
	rec.param("cloud.p99_budget_ms", "ms", cloudP99BudgetMS)
	rec.param("cloud.dedup_floor", "x", cloudDedupFloor)
	rec.param("cloud.portal.requests", "requests", float64(res.Requests))
	rec.add("cloud.portal.shed", "requests", float64(res.Shed), "lower")
	rec.add("cloud.portal.errors", "requests", float64(res.Errors), "lower")
	rec.add("cloud.portal.shed_frac", "frac", res.ShedRate, "lower")
	rec.add("cloud.portal.throughput_rps", "req/s", res.ThroughputRPS, "higher")
	rec.add("cloud.portal.p50_ms", "ms", res.P50Ms, "lower")
	rec.add("cloud.portal.p99_ms", "ms", res.P99Ms, "lower")
	rec.add("cloud.portal.http_s", "s", res.HTTPSeconds, "lower")
	rec.param("cloud.fly_rounds", "rounds", float64(res.FlyRounds))
	rec.add("cloud.fly_s", "s", res.FlySeconds, "lower")
	rec.param("cloud.vdr.churn_runs", "runs", float64(res.ChurnRuns))
	rec.add("cloud.vdr.violations", "violations", float64(res.Violations), "lower")
	rec.add("cloud.blob.dedup_ratio", "x", res.DedupRatio, "higher")
	rec.param("cloud.blob.blobs", "blobs", float64(res.Blob.Blobs))
	rec.add("cloud.blob.live_bytes", "B", float64(res.Blob.LiveBytes), "lower")
	rec.add("cloud.blob.retained_bytes", "B", float64(res.Blob.RetainedBytes), "lower")
	rec.param("cloud.blob.logical_bytes", "B", float64(res.Blob.LogicalBytes))
	rec.add("cloud.blob.physical_bytes", "B", float64(res.Blob.PhysicalBytes), "lower")
	rec.add("cloud.blob.dedup_hits", "blobs", float64(res.Blob.DedupHits), "higher")
	rec.param("cloud.blob.gc_freed_bytes", "B", float64(res.Blob.GCFreedBytes))

	rec.check("cloud.no_errors", res.Errors == 0, "%d request errors (want 0)", res.Errors)
	rec.check("cloud.no_violations", res.Violations == 0,
		"%d invariant violations from %d churn scenario runs (want 0)", res.Violations, res.ChurnRuns)
	rec.check("cloud.p99_budget", res.P99Ms <= cloudP99BudgetMS,
		"p99 %.2f ms (budget %d ms)", res.P99Ms, cloudP99BudgetMS)
	rec.check("cloud.dedup_floor", res.DedupRatio >= cloudDedupFloor,
		"churn dedup %.2fx (floor %dx)", res.DedupRatio, cloudDedupFloor)
	return rec, nil
}
