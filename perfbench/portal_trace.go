package main

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"time"

	"androne/internal/cloud"
	"androne/internal/core"
	"androne/internal/energy"
	"androne/internal/planner"
	"androne/internal/service"
)

// estimator rebuilds the service's estimate hook from public parts: the
// energy charge for the allotment and the planned operating window.
// tracePortal checks it against the service's own through the POST
// responses.
func estimator(cfg service.Config) cloud.EstimateFunc {
	pcfg := planner.DefaultConfig(cfg.Base)
	return func(def []byte) (float64, float64, float64, error) {
		d, err := core.ParseDefinition(def)
		if err != nil {
			return 0, 0, 0, err
		}
		bill := cfg.Rates.Compute(energy.Usage{EnergyJ: d.EnergyAllotted})
		plan, err := pcfg.Plan([]planner.Task{{ID: "estimate", Waypoints: d.Waypoints,
			EnergyJ: d.EnergyAllotted, DurationS: d.MaxDuration}})
		if err != nil {
			return bill.EnergyCharge, 0, 0, nil
		}
		ws, we, err := plan.OperatingWindow(pcfg, "estimate")
		if err != nil {
			return bill.EnergyCharge, 0, 0, nil
		}
		return bill.EnergyCharge, ws, we, nil
	}
}

// endpointKind classifies a portal request by the schedule's kinds.
func endpointKind(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost:
		return "order_post"
	case p == "/api/apps":
		return "apps"
	case p == "/api/orders":
		return "orders_list"
	case strings.HasPrefix(p, "/api/orders/"):
		return "order_get"
	default:
		return "vdr_list"
	}
}

// notServed stands in for the service's operator and ops routes, which
// the schedule never calls; they are registered only so that both muxes
// route over the same patterns as svc.Handler()'s. A request that reaches
// one answers 501 and fails the status comparison.
var notServed = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusNotImplemented)
})

// tracedHandler rebuilds svc.Handler() from public constructors — the
// outer mux, admission, the api mux, the portal — with a span around each
// layer: the admission middleware, the portal's handler per endpoint, and
// the Validate and Estimate hooks it calls. A layer's self time is its
// call minus the calls it makes into the next layer: admission is its
// call minus the api mux's, the portal is its call minus the hooks'. The
// two muxes stay outside every span, so their routing and the glue
// between spans are unattributed time.
func tracedHandler(env *portalEnv, led *ledger) http.Handler {
	var apiCall, hooks time.Duration
	hook := func(layer string, t0 time.Time) {
		d := time.Since(t0)
		hooks += d
		led.add(layer, d)
	}
	validate := func(def []byte) error {
		defer hook("core.validate", time.Now())
		return core.ValidateDefinitionJSON(def)
	}
	est := estimator(env.cfg)
	estimate := func(def []byte) (float64, float64, float64, error) {
		defer hook("planner.estimate", time.Now())
		return est(def)
	}
	svc := env.svc
	portal := cloud.NewPortal(svc.AppStore(), svc.Storage(), svc.VDR(), svc.Orders(), validate, estimate)
	api := http.NewServeMux()
	api.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		layer := "cloud.portal." + endpointKind(r)
		hooks = 0
		t0 := time.Now()
		portal.ServeHTTP(w, r)
		led.add(layer, time.Since(t0)-hooks)
	}))
	api.Handle("POST /api/admin/fly", notServed)
	api.Handle("GET /api/admin/bills", notServed)
	admitted := cloud.NewAdmission(env.cfg.Admission).Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		api.ServeHTTP(w, r)
		apiCall = time.Since(t0)
	}))
	mux := http.NewServeMux()
	mux.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		apiCall = 0
		t0 := time.Now()
		admitted.ServeHTTP(w, r)
		led.add("cloud.admission", time.Since(t0)-apiCall)
	}))
	mux.Handle("GET /metrics", notServed)
	mux.Handle("GET /debug/trace", notServed)
	return mux
}

// postedOrder is the part of an order_post response that must not
// depend on which handler chain served it.
type postedOrder struct {
	ID              string  `json:"id"`
	EstimatedCharge float64 `json:"estimated-charge"`
	WindowStartS    float64 `json:"window-start-s"`
	WindowEndS      float64 `json:"window-end-s"`
}

// tracePortal is portal-mixed's traced mode: an untraced pass through
// svc.Handler() for the workload-level numbers, then the same schedule on
// a second, identically seeded service through the traced chain, which
// must answer with the same statuses, order bodies and counts.
func tracePortal(o options, rep *report, sched []request) error {
	zeroPerLayer(rep)
	sched = sched[:(len(sched)+1)/2]
	plain, err := setupPortal(o.seed)
	if err != nil {
		return err
	}
	defer plain.svc.Close()
	traced, err := setupPortal(o.seed)
	if err != nil {
		return err
	}
	defer traced.svc.Close()

	const batched = "androne_portal_batched_reads_total"
	runtime.GC()
	b0 := counters(batched)[batched]
	gc := readGC()
	p := plain.drive(plain.svc.Handler(), sched, false)
	gcFrac, pauseMS := gc.since()
	b1 := counters(batched)[batched]
	plain.check(rep, p)

	listings := 0
	for _, r := range sched {
		if r.kind == kindOrdersList || r.kind == kindVDRList {
			listings++
		}
	}
	stats := plain.svc.VDR().Store().Stats()
	orders := len(plain.svc.Orders().List(""))
	rep.set("cloud.batched_frac", (b1-b0)/float64(listings), "frac")
	rep.set("cloud.blob.dedup_ratio", stats.DedupRatio(), "ratio")
	rep.set("cloud.blob.physical_mb", float64(stats.PhysicalBytes)/1e6, "MB")
	rep.set("cloud.vdr_entries", float64(len(plain.svc.VDR().Manifests())), "count")
	rep.set("cloud.orders_per_tenant", float64(orders)/portalTenants, "count")
	rep.set("runtime.gc_cpu_frac", gcFrac, "frac")
	rep.set("runtime.gc_pause_ms", pauseMS, "ms")
	rep.set("bench.gen_late_ms_p99", lateP99(p), "ms")
	rep.set("req_slo_frac", sloFrac(p), "frac")
	rq, ck, pl := summarize(p.lat, p99Window), summarize(p.op.ckpt, 0), summarize(p.op.plan, 0)
	rep.set("req_p50_ms", rq.P50, "ms")
	rep.set("req_p99_ms", rq.Tail, "ms")
	rep.set("op_tail_ms", summarize(p.lat, tailWindow).Tail, "ms")
	rep.set("ckpt_p50_ms", ck.P50, "ms")
	rep.set("ckpt_tail_ms", ck.Tail, "ms")
	rep.set("plan_ms_p50", pl.P50, "ms")
	if len(p.op.plan) > 0 {
		rep.set("planner.tasks_per_round", float64(p.op.tasks)/float64(len(p.op.plan)), "count")
	}
	attempted, failed := rep.attempted, rep.failed
	rep.set("fail_frac", float64(failed)/float64(attempted), "frac")

	led := newLedger()
	tp := traced.drive(tracedHandler(traced, led), sched, true)
	traced.check(rep, tp)
	led.merge(tp.op.led)

	for i := range sched {
		a, b := p.results[i], tp.results[i]
		if a.status != b.status {
			rep.problem("request %d: status %d through svc.Handler, %d through the traced chain", i, a.status, b.status)
			break
		}
		if sched[i].kind != kindOrderPost {
			continue
		}
		var pa, pb postedOrder
		if json.Unmarshal(a.body, &pa) != nil || json.Unmarshal(b.body, &pb) != nil || pa != pb {
			rep.problem("request %d: order_post answered %s through svc.Handler, %s through the traced chain", i, a.body, b.body)
			break
		}
	}
	if n := len(traced.svc.Orders().List("")); n != orders {
		rep.problem("order book holds %d orders after the traced pass, %d after the untraced one", n, orders)
	}
	if n, want := len(traced.svc.VDR().Manifests()), len(plain.svc.VDR().Manifests()); n != want {
		rep.problem("VDR holds %d entries after the traced pass, %d after the untraced one", n, want)
	}

	var plainServe, tracedServe time.Duration
	for i := range sched {
		plainServe += p.results[i].took
		tracedServe += tp.results[i].took
	}
	for _, k := range kindNames {
		rep.set("cloud.portal."+k+"_us", led.meanNS("cloud.portal."+k)/1e3, "us")
	}
	for _, n := range []string{"cloud.admission", "core.validate", "planner.estimate",
		"core.vdc_save", "cloud.vdr_save", "cloud.vdr_load", "core.vdc_restore"} {
		rep.set(n+"_us", led.meanNS(n)/1e3, "us")
	}
	wall := tracedServe + tp.op.busy
	unattributed := 1 - led.attributed().Seconds()/wall.Seconds()
	rep.set("bench.unattributed_frac", unattributed, "frac")
	rep.set("bench.trace_overhead_frac", tracedServe.Seconds()/plainServe.Seconds()-1, "frac")
	if unattributed > 1-ledgerGate {
		rep.problem("named layers cover %.1f%% of traced wall time, below the %.0f%% gate", 100*(1-unattributed), 100*ledgerGate)
	}
	printLedger(rep, led, wall)
	return nil
}
