package cloud

import "androne/internal/telemetry"

// The service plane's instruments, registered once in the process-global
// registry and rendered by /metrics. Admission outcomes and per-endpoint
// latency come from the middleware (admission.go); storage dedup gauges are
// refreshed by the VDR after each save.
var (
	mAdmitted = telemetry.NewCounter("androne_portal_admitted_total",
		"Requests admitted through the portal front door.")
	mShedRate = telemetry.NewCounter("androne_portal_shed_rate_total",
		"Requests shed by a tenant's token bucket (429).")
	mShedQueue = telemetry.NewCounter("androne_portal_shed_queue_total",
		"Requests shed by the bounded service queue (429).")

	mEndpointLatency = map[string]*telemetry.Histogram{
		"apps":   newLatency("apps"),
		"orders": newLatency("orders"),
		"order":  newLatency("order"),
		"files":  newLatency("files"),
		"vdr":    newLatency("vdr"),
		"other":  newLatency("other"),
	}

	mVDRDedupRatio = telemetry.NewGauge("androne_vdr_dedup_ratio",
		"Cumulative logical/physical bytes across VDR blob stores (>= 1).")
	mVDRLiveBytes = telemetry.NewGauge("androne_vdr_live_bytes",
		"Live (referenced) checkpoint-layer bytes across VDR blob stores.")
	mVDRDedupHits = telemetry.NewCounter("androne_vdr_dedup_hits_total",
		"Layer writes deduplicated against an existing blob.")
	mVDRGCFreed = telemetry.NewCounter("androne_vdr_gc_freed_bytes_total",
		"Bytes freed by refcount GC across VDR blob stores.")
)

// newLatency builds one endpoint's latency histogram: 0.1ms to ~3.3s in
// 15 doubling buckets.
func newLatency(endpoint string) *telemetry.Histogram {
	return telemetry.NewHistogram(
		"androne_portal_latency_"+endpoint+"_seconds",
		"Portal request latency for the "+endpoint+" endpoint, from before the tenant's token bucket (queue wait included) to the response.",
		telemetry.ExponentialBounds(0.0001, 2, 15))
}
