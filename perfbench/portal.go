package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"androne/internal/apps"
	"androne/internal/cloud"
	"androne/internal/core"
	"androne/internal/geo"
	"androne/internal/service"
)

// portal-mixed is open-loop tenant traffic through the service's HTTP
// surface, served in process (ServeHTTP, no sockets) by one generator
// goroutine, beside one operator goroutine that checkpoints the
// service's own drone and runs planning rounds on a fixed schedule.
const (
	// portalRate is the offered tenant load, well below the knee: the
	// portal saturates near 2,000 req/s on a 2-CPU host.
	portalRate    = 400.0
	portalTenants = 16
	// ckptPeriod spaces the operator's slots; every planEvery-th slot is
	// a ProcessOrders planning round, the others checkpoint one virtual
	// drone.
	ckptPeriod = 50 * time.Millisecond
	planEvery  = 20
	churnVDs   = 3
	// sloLimit is the tenant latency limit req_slo_frac counts against.
	sloLimit = 10 * time.Millisecond
	// genSpin and opSpin are how long before each due time the generator
	// and the operator stop sleeping and spin (yielding the processor to
	// any runnable goroutine), so timer overshoot is not billed to the
	// service. Sleeps on a shared VM overshoot by a millisecond or
	// more often enough to set a p99, so the generator never sleeps
	// between requests.
	genSpin = 10 * time.Millisecond
	opSpin  = time.Millisecond
	// tailWindow is the request-latency window whose tails are medianed:
	// the tail of 250 requests is their p96. Over 1,000-request windows
	// (p99) the tail is set by the few requests a host stall hits, and it
	// spread several times as wide from run to run. p99Window gives the
	// traced run's req_p99_ms.
	tailWindow = 250
	p99Window  = 1000
)

type reqKind int

const (
	kindApps reqKind = iota
	kindOrdersList
	kindOrderGet
	kindVDRList
	kindOrderPost
)

var kindNames = [...]string{"apps", "orders_list", "order_get", "vdr_list", "order_post"}

// kindBlock is the request mix: every block of 20 consecutive requests
// holds exactly these counts of each kind, in a seeded order — 16 reads
// and 4 order writes. The reads follow a tenant pass of internal/loadgen
// (two app-store reads, then 25 order-list polls and 25 VDR listings),
// scaled to 16: one apps read, eight order polls and seven VDR listings.
// loadgen polls its orders only through the list; here the order polls
// are split evenly between the list and the single order, an assumption
// of this benchmark. An exact mix keeps the seed from moving the median
// across the gap between cheap and expensive endpoints.
var kindBlock = [...]int{1, 4, 4, 7, 4}

// request is one scheduled tenant request.
type request struct {
	at     time.Duration // due time, from the schedule start
	kind   reqKind
	tenant int
	pick   float64 // which of the tenant's known orders an order_get reads
	body   []byte  // order_post body
}

func tenantName(i int) string { return fmt.Sprintf("tenant-%02d", i) }

// orderDef is a one-waypoint photo order at a seeded offset from home.
func orderDef(rng *rand.Rand, owner, name string) *core.Definition {
	base := service.DefaultConfig().Base
	return &core.Definition{
		Name: name, Owner: owner, MaxDuration: 120, EnergyAllotted: 20000,
		WaypointDevices: []string{"camera", "flight-control"},
		Apps:            []string{apps.PhotoPackage},
		AppArgs:         map[string]json.RawMessage{apps.PhotoPackage: json.RawMessage(`{"shots": 2}`)},
		Waypoints: []geo.Waypoint{{
			Position:  geo.Position{LatLon: geo.OffsetNE(base.LatLon, 40+160*rng.Float64(), -100+200*rng.Float64()), Alt: 15},
			MaxRadius: 40,
		}},
	}
}

func orderBody(user string, def *core.Definition) ([]byte, error) {
	raw, err := def.Encode()
	if err != nil {
		return nil, err
	}
	return json.Marshal(map[string]any{"user": user, "name": def.Name, "definition": json.RawMessage(raw)})
}

// makeSchedule builds n requests evenly spaced at rate per second; the
// seed picks the order of each block's kinds and every request's tenant,
// target and order body. Tenants are dealt per kind from a shuffled deck
// of all of them, so every tenant sends each kind equally often and the
// order book grows evenly: the seed then does not decide how long one
// tenant's order list gets, which sets the slowest reads.
func makeSchedule(seed int64, n int, rate float64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	var block []reqKind
	for k, c := range kindBlock {
		for j := 0; j < c; j++ {
			block = append(block, reqKind(k))
		}
	}
	var decks [len(kindNames)][]int
	deal := func(k reqKind) int {
		if len(decks[k]) == 0 {
			decks[k] = rng.Perm(portalTenants)
		}
		t := decks[k][0]
		decks[k] = decks[k][1:]
		return t
	}
	out := make([]request, n)
	for i := range out {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		k := block[i%len(block)]
		r := request{at: time.Duration(float64(i) / rate * float64(time.Second)),
			kind: k, tenant: deal(k), pick: rng.Float64()}
		if r.kind == kindOrderPost {
			t := tenantName(r.tenant)
			body, err := orderBody(t, orderDef(rng, t, fmt.Sprintf("o-%d-%d", seed, i)))
			if err != nil {
				return nil, err
			}
			r.body = body
		}
		out[i] = r
	}
	return out, nil
}

// setupOrders is how many orders each tenant holds before the schedule
// starts: two seeded orders and one warm-up POST.
const setupOrders = 3

// checkQuota fails a schedule that would take some tenant past the
// service's per-tenant order quota, which would turn the tenant's later
// POSTs into 413s: a sizing limit, not a fault of the service. At 80
// POSTs/s dealt evenly over 16 tenants the default quota of 512 allows
// --seconds up to 101.
func checkQuota(sched []request) error {
	limit := cloud.DefaultQuotas().MaxOrdersPerTenant
	if q := service.DefaultConfig().Quotas; q != (cloud.Quotas{}) {
		limit = q.MaxOrdersPerTenant
	}
	var posts [portalTenants]int
	for _, r := range sched {
		if r.kind == kindOrderPost {
			posts[r.tenant]++
		}
	}
	for t, n := range posts {
		if setupOrders+n > limit {
			return fmt.Errorf("the schedule places %d orders on %s, above the per-tenant order quota of %d; use a smaller --seconds",
				setupOrders+n, tenantName(t), limit)
		}
	}
	return nil
}

// waitUntil sleeps until spin before t, then spins until t.
func waitUntil(t time.Time, spin time.Duration) {
	if d := time.Until(t) - spin; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// runOpenLoop runs n operations: prepare(i) as soon as the previous
// operation is done, then serve(i) at its due time start+at(i), never
// earlier, spinning for the last spin before it. It returns how long
// each serve call took and how late it started.
func runOpenLoop(start time.Time, n int, spin time.Duration, at func(int) time.Duration, prepare, serve func(int)) (took, late []time.Duration) {
	took = make([]time.Duration, n)
	late = make([]time.Duration, n)
	for i := 0; i < n; i++ {
		due := start.Add(at(i))
		prepare(i)
		waitUntil(due, spin)
		t0 := time.Now()
		late[i] = t0.Sub(due)
		serve(i)
		took[i] = time.Since(t0)
	}
	return took, late
}

// queueLatency is each operation's latency from its due time when the
// operations go through one first-come-first-served server: an
// operation starts at its due time or when the one before it finished,
// whichever is later, and takes its measured time. A stall in one
// operation delays the ones after it, and they are billed for the wait.
// Time the generator itself spends off the processor between operations
// is not billed: on a shared host with heavy steal it made a quarter of
// the requests start late and doubled the median, while the time the
// portal took per request stayed put. The generator's lateness is
// reported on its own as bench.gen_late_ms_p99.
func queueLatency(at func(int) time.Duration, took []time.Duration) []time.Duration {
	lat := make([]time.Duration, len(took))
	var free time.Duration
	for i, d := range took {
		free = max(free, at(i)) + d
		lat[i] = free - at(i)
	}
	return lat
}

// portalEnv is one booted service with its seeded tenants.
type portalEnv struct {
	cfg   service.Config
	svc   *service.Service
	drone *core.Drone
	vds   []string
	// known lists each tenant's order IDs in creation order; created is
	// every order the benchmark created.
	known   [][]string
	created map[string]bool
}

// setupPortal boots the service, seeds the app store, flies the churn
// virtual drones once so their checkpoints carry real app state and
// marked files, restores them onto the drone, seeds every tenant with
// orders, and warms every endpoint, a checkpoint per virtual drone and a
// planning round.
func setupPortal(seed int64) (*portalEnv, error) {
	cfg := service.DefaultConfig()
	cfg.Seed = fmt.Sprintf("%s/service", seedString(seed))
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	env := &portalEnv{cfg: cfg, svc: svc, drone: svc.Fleet()[0],
		known: make([][]string, portalTenants), created: make(map[string]bool)}
	if err := env.populate(seed); err != nil {
		svc.Close()
		return nil, err
	}
	return env, nil
}

// populate fills a freshly booted service and warms it up.
func (e *portalEnv) populate(seed int64) error {
	svc := e.svc
	if err := svc.SeedDemoApps(); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	// The churn drones' waypoints do not follow the seed: how far they
	// fly sets how much flight log the service's drone keeps for the
	// whole run, and with seeded waypoints two seeds in ten raised
	// peak_heap_mb by 8%.
	churn := rand.New(rand.NewSource(0))
	for i := 0; i < churnVDs; i++ {
		name := fmt.Sprintf("churn-%d", i)
		ord, err := svc.OrderJSON("operator", name, orderDef(churn, "operator", name))
		if err != nil {
			return err
		}
		e.created[ord.ID] = true
		e.vds = append(e.vds, name)
	}
	if _, err := svc.Run(); err != nil {
		return fmt.Errorf("flying the churn drones: %w", err)
	}
	for _, name := range e.vds {
		entry, err := svc.VDR().Load(name)
		if err != nil {
			return err
		}
		if _, err := e.drone.VDC.Restore(entry); err != nil {
			return fmt.Errorf("restoring %s: %w", name, err)
		}
	}
	for t := 0; t < portalTenants; t++ {
		for j := 0; j < setupOrders-1; j++ { // the warm-up POST below is the last
			name := fmt.Sprintf("seed-%d-%d", t, j)
			ord, err := svc.OrderJSON(tenantName(t), name, orderDef(rng, tenantName(t), name))
			if err != nil {
				return err
			}
			e.record(t, ord.ID)
		}
	}

	h := svc.Handler()
	for t := 0; t < portalTenants; t++ {
		for k := kindApps; k <= kindOrderPost; k++ {
			r := request{kind: k, tenant: t, pick: 0.5}
			if k == kindOrderPost {
				name := fmt.Sprintf("warm-%d", t)
				var err error
				if r.body, err = orderBody(tenantName(t), orderDef(rng, tenantName(t), name)); err != nil {
					return err
				}
			}
			if res := e.serve(h, r); res.err != nil {
				return fmt.Errorf("warm-up %s: %w", kindNames[k], res.err)
			}
		}
	}
	if _, err := svc.ProcessOrders(); err != nil {
		return fmt.Errorf("warm-up planning round: %w", err)
	}
	for _, name := range e.vds {
		if err := e.checkpoint(name, nil); err != nil {
			return fmt.Errorf("warm-up checkpoint: %w", err)
		}
	}
	return nil
}

func (e *portalEnv) record(tenant int, id string) {
	e.known[tenant] = append(e.known[tenant], id)
	e.created[id] = true
}

// served is the outcome of one tenant request.
type served struct {
	status int
	took   time.Duration // the ServeHTTP call alone
	body   []byte        // order_post responses only, for the traced-chain check
	err    error         // an unexpected status
}

// serve issues one request through h and checks its status.
func (e *portalEnv) serve(h http.Handler, r request) served {
	return e.do(h, r, e.build(r))
}

// build makes the HTTP request for r, as a client does before sending.
func (e *portalEnv) build(r request) *http.Request {
	t := tenantName(r.tenant)
	var req *http.Request
	switch r.kind {
	case kindApps:
		req = httptest.NewRequest(http.MethodGet, "/api/apps", nil)
	case kindOrdersList:
		req = httptest.NewRequest(http.MethodGet, "/api/orders?user="+t, nil)
	case kindOrderGet:
		ids := e.known[r.tenant]
		req = httptest.NewRequest(http.MethodGet, "/api/orders/"+ids[int(r.pick*float64(len(ids)))], nil)
	case kindVDRList:
		req = httptest.NewRequest(http.MethodGet, "/api/vdr", nil)
	case kindOrderPost:
		req = httptest.NewRequest(http.MethodPost, "/api/orders", bytes.NewReader(r.body))
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(cloud.TenantHeader, t)
	return req
}

// do sends req, built for r, through h and checks the response.
func (e *portalEnv) do(h http.Handler, r request, req *http.Request) served {
	t := tenantName(r.tenant)
	want := http.StatusOK
	if r.kind == kindOrderPost {
		want = http.StatusCreated
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rec, req)
	out := served{status: rec.Code, took: time.Since(t0)}
	if rec.Code != want {
		out.err = fmt.Errorf("%s for %s: status %d, want %d", kindNames[r.kind], t, rec.Code, want)
		return out
	}
	if r.kind == kindOrderPost {
		out.body = rec.Body.Bytes()
		var ord struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(out.body, &ord); err != nil || ord.ID == "" {
			out.err = fmt.Errorf("order_post for %s: no order id in %q", t, out.body)
			return out
		}
		e.record(r.tenant, ord.ID)
	}
	return out
}

// checkpoint runs one save→restore cycle of a virtual drone through the
// VDR and checks that progress, allotment and marked files survive it,
// as simharness's mid-mission save-restore fault does. Traced when led
// is non-nil.
func (e *portalEnv) checkpoint(name string, led *ledger) error {
	d, vdr := e.drone, e.svc.VDR()
	vd, err := d.VDC.Get(name)
	if err != nil {
		return err
	}
	visited, total := vd.Progress()
	timeLeft, energyLeft := vd.Allotment.TimeLeftS(), vd.Allotment.EnergyLeftJ()
	marked := len(vd.MarkedFiles())

	stage := func(layer string, fn func() error) error {
		if led == nil {
			return fn()
		}
		t0 := time.Now()
		err := fn()
		led.add(layer, time.Since(t0))
		return err
	}
	var entry, loaded cloud.VDREntry
	var restored *core.VirtualDrone
	if err := stage("core.vdc_save", func() (err error) { entry, err = d.VDC.Save(name); return }); err != nil {
		return fmt.Errorf("save %s: %w", name, err)
	}
	if err := stage("cloud.vdr_save", func() error { return vdr.Save(entry) }); err != nil {
		return fmt.Errorf("VDR save %s: %w", name, err)
	}
	if err := stage("cloud.vdr_load", func() (err error) { loaded, err = vdr.Load(name); return }); err != nil {
		return fmt.Errorf("VDR load %s: %w", name, err)
	}
	if err := stage("core.vdc_restore", func() (err error) { restored, err = d.VDC.Restore(loaded); return }); err != nil {
		return fmt.Errorf("restore %s: %w", name, err)
	}
	if v, t := restored.Progress(); v != visited || t != total {
		return fmt.Errorf("%s: progress %d/%d became %d/%d", name, visited, total, v, t)
	}
	if diff := restored.Allotment.TimeLeftS() - timeLeft; diff > 0.01 || diff < -0.01 {
		return fmt.Errorf("%s: time allotment %.1fs became %.1fs", name, timeLeft, restored.Allotment.TimeLeftS())
	}
	if diff := restored.Allotment.EnergyLeftJ() - energyLeft; diff > 1 || diff < -1 {
		return fmt.Errorf("%s: energy allotment %.0fJ became %.0fJ", name, energyLeft, restored.Allotment.EnergyLeftJ())
	}
	if got := len(restored.MarkedFiles()); got != marked {
		return fmt.Errorf("%s: marked files %d became %d", name, marked, got)
	}
	return nil
}

// operatorResult is what the operator goroutine measured.
type operatorResult struct {
	ckpt, plan []time.Duration
	tasks      int
	errs       []error
	led        *ledger
	busy       time.Duration
}

// operate runs the operator's slots from start: checkpoint cycles timed
// from their due times, as queueLatency counts them, and planning rounds
// timed from their start.
func (e *portalEnv) operate(start time.Time, slots int, led *ledger) operatorResult {
	res := operatorResult{led: led}
	at := func(k int) time.Duration { return time.Duration(k) * ckptPeriod }
	isPlan := func(k int) bool { return k%planEvery == planEvery-1 }
	took, _ := runOpenLoop(start, slots, opSpin, at, func(int) {}, func(k int) {
		if !isPlan(k) {
			if err := e.checkpoint(e.vds[k%len(e.vds)], led); err != nil {
				res.errs = append(res.errs, err)
			}
			return
		}
		t0 := time.Now()
		plan, err := e.svc.ProcessOrders()
		if led != nil {
			led.add("service.process_orders", time.Since(t0))
		}
		switch {
		case errors.Is(err, service.ErrNothingToFly):
		case err != nil:
			res.errs = append(res.errs, fmt.Errorf("planning round: %w", err))
		default:
			for _, r := range plan.Routes {
				res.tasks += len(r.Stops)
			}
		}
	})
	for k, d := range queueLatency(at, took) {
		if isPlan(k) {
			res.plan = append(res.plan, took[k])
		} else {
			res.ckpt = append(res.ckpt, d)
		}
		res.busy += took[k]
	}
	return res
}

// portalPass is one run of the schedule against one handler.
type portalPass struct {
	// lat is each request's latency by queueLatency; took is how long
	// the generator spent sending it, and late how late it started.
	lat, took, late []time.Duration
	results         []served
	op              operatorResult
	wall            time.Duration
}

// drive runs the schedule through h on this goroutine and the operator
// on another, from a common start.
func (e *portalEnv) drive(h http.Handler, sched []request, traced bool) portalPass {
	var p portalPass
	p.results = make([]served, len(sched))
	span := sched[len(sched)-1].at + time.Second/time.Duration(portalRate)
	slots := int(span / ckptPeriod)
	start := time.Now().Add(20 * time.Millisecond)
	var opLed *ledger
	if traced {
		opLed = newLedger()
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.op = e.operate(start, slots, opLed)
	}()
	var next *http.Request
	at := func(i int) time.Duration { return sched[i].at }
	p.took, p.late = runOpenLoop(start, len(sched), genSpin, at,
		func(i int) { next = e.build(sched[i]) },
		func(i int) { p.results[i] = e.do(h, sched[i], next) })
	p.lat = queueLatency(at, p.took)
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// check verifies every tenant response and operator operation, and that
// the order book holds exactly the orders the benchmark created.
func (e *portalEnv) check(rep *report, p portalPass) {
	bad := 0
	for i, r := range p.results {
		if r.err != nil {
			if bad < 5 {
				rep.problem("request %d: %v", i, r.err)
			}
			bad++
		}
	}
	for _, err := range p.op.errs {
		rep.problem("operator: %v", err)
	}
	rep.attempted += len(p.results) + len(p.op.ckpt) + len(p.op.plan)
	rep.failed += bad + len(p.op.errs)
	orders := e.svc.Orders().List("")
	if len(orders) != len(e.created) {
		rep.problem("order book holds %d orders, created %d", len(orders), len(e.created))
	}
	for _, o := range orders {
		if !e.created[o.ID] {
			rep.problem("order book holds %s, which was never created", o.ID)
			break
		}
	}
}

// sloFrac is the share of requests that succeeded within sloLimit.
func sloFrac(p portalPass) float64 {
	ok := 0
	for i, r := range p.results {
		if r.err == nil && p.lat[i] <= sloLimit {
			ok++
		}
	}
	return float64(ok) / float64(len(p.results))
}

func lateP99(p portalPass) float64 {
	ms := make([]float64, len(p.late))
	for i, d := range p.late {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	return percentile(ms, 99)
}

func runPortalMixed(o options) (*report, error) {
	rep := newReport()
	n := int(portalRate) * o.seconds
	sched, err := makeSchedule(o.seed, n, portalRate)
	if err != nil {
		return nil, err
	}
	if err := checkQuota(sched); err != nil {
		return nil, err
	}
	if o.trace {
		return rep, tracePortal(o, rep, sched)
	}
	var env *portalEnv
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		e, err := setupPortal(o.seed)
		if err != nil {
			if env != nil {
				env.svc.Close()
			}
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if env != nil {
			env.svc.Close()
		}
		env = e
	}
	defer env.svc.Close()
	rep.set("setup_s", median(setups), "s")

	runtime.GC()
	heap := startHeapPoller(heapWindow)
	p := env.drive(env.svc.Handler(), sched, false)
	peak, maxHeap := heap.stopPeak()
	rep.set("peak_heap_mb", peak, "MB")
	env.check(rep, p)

	t := summarize(p.lat, tailWindow)
	rep.set("op_p50_ms", t.P50, "ms")
	ck, pl := summarize(p.op.ckpt, 0), summarize(p.op.plan, 0)
	p99 := summarize(p.lat, p99Window)
	rep.note("requests %d at %.0f/s: latency p50 %.3f ms, median p%g of %d-request windows %.3f ms, median p%g of %d-request windows %.3f ms; slo_frac %.4f within %v",
		t.N, portalRate, t.P50, t.TailAt, tailWindow, t.Tail, p99.TailAt, p99Window, p99.Tail, sloFrac(p), sloLimit)
	rep.note("checkpoints %d: p50 %.3f ms, p%g %.3f ms; planning rounds %d: p50 %.3f ms, %d tasks",
		ck.N, ck.P50, ck.TailAt, ck.Tail, pl.N, pl.P50, p.op.tasks)
	took := make([]time.Duration, len(p.results))
	observed := make([]time.Duration, len(p.results))
	for i, r := range p.results {
		took[i] = r.took
		observed[i] = p.late[i] + p.took[i]
	}
	rep.note("request latency p10/p25/p50/p75/p90 %.3f ms; ServeHTTP %.3f ms; generator late %.3f ms",
		quartiles(p.lat), quartiles(took), quartiles(p.late))
	obs := summarize(observed, tailWindow)
	rep.note("latency as observed, generator lateness included: p50 %.3f ms, median p%g of %d-request windows %.3f ms",
		obs.P50, obs.TailAt, tailWindow, obs.Tail)
	rep.note("generator late p99 %.3f ms; operator busy %.3f s of %.3f s", lateP99(p), p.op.busy.Seconds(), p.wall.Seconds())
	for _, name := range env.vds {
		if vd, err := env.drone.VDC.Get(name); err == nil {
			rep.note("checkpointed %s holds %d marked files", name, len(vd.MarkedFiles()))
		}
	}
	rep.note("live heap: median 0.5 s window peak %.3f MB, overall peak %.3f MB", peak, maxHeap)
	rep.note("setup runs %v s", setups)
	return rep, nil
}
