// Package loadgen drives synthetic tenant populations through the full
// AnDrone service lifecycle — browse the app store, install an app, order a
// virtual drone, fly it, then churn save/restore cycles — against an
// in-process service plane or a remote portal. It records what the paper's
// cloud story needs numbers for: request latency quantiles, throughput,
// admission shed rate, and the checkpoint dedup ratio the content-addressed
// VDR achieves on the churn workload. cmd/androne-load is the CLI;
// androne-bench -exp cloud wraps a run in SLO gates and emits
// BENCH_cloud.json.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"androne/internal/apps"
	"androne/internal/cloud"
	"androne/internal/core"
	"androne/internal/geo"
	"androne/internal/service"
	"androne/internal/simharness"
)

// Config sizes a load run.
type Config struct {
	// Tenants is the synthetic tenant population.
	Tenants int
	// OrdersPerTenant is how many quick photo orders each tenant places.
	OrdersPerTenant int
	// BrowseRepeat is how many listing reads each tenant issues (the
	// latency sample).
	BrowseRepeat int
	// ChurnRounds is how many save/restore scenario runs each tenant
	// drives through the shared VDR (in-process only).
	ChurnRounds int
	// BaseURL targets a remote portal; empty runs an in-process service.
	BaseURL string
	// FleetSize for the in-process service.
	FleetSize int
	// Seed makes the in-process fleet deterministic.
	Seed string
	// Admission tunes the in-process front door; zero takes defaults.
	Admission cloud.AdmissionConfig
	// Timeout bounds every client request.
	Timeout time.Duration
}

// DefaultConfig is the full-size load run.
func DefaultConfig() Config {
	return Config{
		Tenants:         6,
		OrdersPerTenant: 1,
		BrowseRepeat:    25,
		ChurnRounds:     3,
		FleetSize:       2,
		Seed:            "androne-load",
		Timeout:         2 * time.Minute,
	}
}

// Result is what a load run measured.
type Result struct {
	Tenants       int             `json:"tenants"`
	Requests      int64           `json:"requests"`
	Shed          int64           `json:"shed"`
	Errors        int64           `json:"errors"`
	ShedRate      float64         `json:"shed-rate"`
	ThroughputRPS float64         `json:"throughput-rps"`
	P50Ms         float64         `json:"p50-ms"`
	P99Ms         float64         `json:"p99-ms"`
	HTTPSeconds   float64         `json:"http-seconds"`
	FlyRounds     int             `json:"fly-rounds"`
	FlySeconds    float64         `json:"fly-seconds"`
	ChurnRuns     int             `json:"churn-runs"`
	Violations    int             `json:"violations"`
	DedupRatio    float64         `json:"dedup-ratio"`
	Blob          cloud.BlobStats `json:"blob"`
}

// Harness is a load-generation session against one service plane.
type Harness struct {
	cfg    Config
	client *http.Client
	base   string
	svc    *service.Service
	blobs  *cloud.BlobStore
	env    *core.CloudEnv // shared churn environment over blobs
	close  func()

	mu        sync.Mutex
	latencies []float64 // seconds, tenant-facing requests only
	shed      atomic.Int64
	errors    atomic.Int64
	requests  atomic.Int64
}

// handlerTransport serves requests straight into an http.Handler — the
// in-process mode's network: no sockets, no listener, same HTTP semantics.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// New builds a harness. With cfg.BaseURL empty it boots an in-process
// service plane (fleet, portal, admission) with a shared content-addressed
// blob store so dedup is measurable; otherwise it points at the remote
// portal and skips the in-process-only phases.
func New(cfg Config) (*Harness, error) {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Minute
	}
	h := &Harness{cfg: cfg}
	if cfg.BaseURL != "" {
		h.base = strings.TrimRight(cfg.BaseURL, "/")
		h.client = &http.Client{Timeout: cfg.Timeout}
		h.close = func() {}
		return h, nil
	}

	scfg := service.DefaultConfig()
	if cfg.FleetSize > 0 {
		scfg.FleetSize = cfg.FleetSize
	}
	if cfg.Seed != "" {
		scfg.Seed = cfg.Seed
	}
	scfg.Admission = cfg.Admission
	h.blobs = cloud.NewBlobStore()
	scfg.Blobs = h.blobs
	svc, err := service.New(scfg)
	if err != nil {
		return nil, err
	}
	if err := svc.SeedDemoApps(); err != nil {
		return nil, err
	}
	h.svc = svc
	h.env = &core.CloudEnv{
		Storage: cloud.NewStorage(),
		VDR:     cloud.NewVDRWith(h.blobs, cloud.DefaultQuotas()),
	}
	h.base = "http://androne.local"
	h.client = &http.Client{
		Timeout:   cfg.Timeout,
		Transport: handlerTransport{h: svc.Handler()},
	}
	h.close = svc.Close
	return h, nil
}

// Close releases the in-process service.
func (h *Harness) Close() { h.close() }

// Service returns the in-process service, or nil for a remote harness.
func (h *Harness) Service() *service.Service { return h.svc }

// do issues one request as tenant and records its latency and outcome.
// record=false keeps the request out of the latency sample (the admin fly
// call runs whole flights and would otherwise dominate p99; shed/error
// accounting still applies).
func (h *Harness) do(tenant, method, path string, body any, record bool) (int, error) {
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set(cloud.TenantHeader, tenant)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := h.client.Do(req)
	lat := time.Since(start).Seconds()
	h.requests.Add(1)
	if err != nil {
		h.errors.Add(1)
		return 0, err
	}
	defer resp.Body.Close()
	var sink json.RawMessage
	_ = json.NewDecoder(resp.Body).Decode(&sink)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		h.shed.Add(1)
	case resp.StatusCode >= 400:
		h.errors.Add(1)
	}
	if record {
		h.mu.Lock()
		h.latencies = append(h.latencies, lat)
		h.mu.Unlock()
	}
	return resp.StatusCode, nil
}

// Get issues a GET as tenant (a test and workload primitive).
func (h *Harness) Get(tenant, path string) (int, error) {
	return h.do(tenant, http.MethodGet, path, nil, true)
}

// PostJSON issues a POST as tenant.
func (h *Harness) PostJSON(tenant, path string, body any) (int, error) {
	return h.do(tenant, http.MethodPost, path, body, true)
}

// postAdmin issues an unrecorded POST (fly rounds run whole flights).
func (h *Harness) postAdmin(path string) (int, error) {
	return h.do("operator", http.MethodPost, path, map[string]any{}, false)
}

// photoDef is the quick single-flight order: one waypoint, the photo app.
func photoDef(owner, name string, i int) *core.Definition {
	base := service.DefaultConfig().Base
	return &core.Definition{
		Name: name, Owner: owner, MaxDuration: 120, EnergyAllotted: 20000,
		WaypointDevices: []string{"camera", "flight-control"},
		Apps:            []string{apps.PhotoPackage},
		AppArgs: map[string]json.RawMessage{
			apps.PhotoPackage: json.RawMessage(`{"shots": 2}`),
		},
		Waypoints: []geo.Waypoint{{
			Position: geo.Position{
				LatLon: geo.OffsetNE(base.LatLon, float64(50+20*(i%5)), float64(-30*(i%3))),
				Alt:    15,
			},
			MaxRadius: 40,
		}},
	}
}

// churnDef is the interrupted order: two waypoints with an energy allotment
// that forces a battery split, so the drone is saved to the VDR between
// flights and restored on the next — every round trip writes checkpoint
// layers the blob store should dedup.
func churnDef(owner, name string) *core.Definition {
	base := service.DefaultConfig().Base
	d := photoDef(owner, name, 0)
	d.Name = name
	d.Apps = nil
	d.AppArgs = nil
	d.Waypoints = append(d.Waypoints, geo.Waypoint{
		Position:  geo.Position{LatLon: geo.OffsetNE(base.LatLon, -80, 0), Alt: 15},
		MaxRadius: 40,
	})
	d.EnergyAllotted = 170000
	d.MaxDuration = 400
	return d
}

// orderBody wraps a definition as the POST /api/orders payload.
func orderBody(user string, def *core.Definition) (map[string]any, error) {
	raw, err := def.Encode()
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"user": user, "name": def.Name, "definition": json.RawMessage(raw),
	}, nil
}

// tenantName returns the i-th synthetic tenant.
func tenantName(i int) string { return fmt.Sprintf("tenant-%02d", i) }

// lifecycle is one tenant's browse → install → order → poll pass.
func (h *Harness) lifecycle(tenant string, reorder bool) error {
	if _, err := h.Get(tenant, "/api/apps"); err != nil {
		return err
	}
	if _, err := h.Get(tenant, "/api/apps/"+apps.PhotoPackage); err != nil {
		return err
	}
	if !reorder {
		for i := 0; i < h.cfg.OrdersPerTenant; i++ {
			def := photoDef(tenant, fmt.Sprintf("ld-%s-%d", tenant, i), i)
			body, err := orderBody(tenant, def)
			if err != nil {
				return err
			}
			if _, err := h.PostJSON(tenant, "/api/orders", body); err != nil {
				return err
			}
		}
	}
	// The churn order is (re-)placed every pass: repeat orders of the same
	// virtual drone resume it from the VDR.
	body, err := orderBody(tenant, churnDef(tenant, "churn-"+tenant))
	if err != nil {
		return err
	}
	if _, err := h.PostJSON(tenant, "/api/orders", body); err != nil {
		return err
	}
	repeats := h.cfg.BrowseRepeat
	if repeats <= 0 {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if _, err := h.Get(tenant, "/api/orders?user="+tenant); err != nil {
			return err
		}
		if _, err := h.Get(tenant, "/api/vdr"); err != nil {
			return err
		}
	}
	return nil
}

// runTenants runs fn for every tenant concurrently, waits for all of them,
// and returns the first error.
func (h *Harness) runTenants(fn func(tenant string) error) error {
	errCh := make(chan error, h.cfg.Tenants)
	for i := 0; i < h.cfg.Tenants; i++ {
		go func(i int) {
			errCh <- fn(tenantName(i))
		}(i)
	}
	var first error
	for i := 0; i < h.cfg.Tenants; i++ {
		if err := <-errCh; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// churnScenarios drives each tenant's save/restore scenario over the shared
// blob store: same mission each round, so every layer the first round wrote
// should dedup in later rounds.
func (h *Harness) churnScenarios() (runs, violations int, err error) {
	if h.svc == nil || h.cfg.ChurnRounds <= 0 {
		return 0, 0, nil
	}
	for round := 0; round < h.cfg.ChurnRounds; round++ {
		for i := 0; i < h.cfg.Tenants; i++ {
			tenant := tenantName(i)
			sc := simharness.ByName("save-restore")
			sc.Seed = "load-churn-" + tenant
			sc.Drones[0].Name = "churn-sc-" + tenant
			sc.Drones[0].Owner = tenant
			sc.Faults[0].Target = sc.Drones[0].Name
			res, rerr := simharness.RunScenarioOver(sc, simharness.ModeLockstep, h.env)
			if rerr != nil {
				return runs, violations, rerr
			}
			runs++
			violations += len(res.Violations)
		}
	}
	return runs, violations, nil
}

// dedupRatio reports the blob store's ratio; the remote mode reads the
// gauge off /metrics instead.
func (h *Harness) dedupRatio() (float64, cloud.BlobStats) {
	if h.blobs != nil {
		st := h.blobs.Stats()
		return st.DedupRatio(), st
	}
	resp, err := h.client.Get(h.base + "/metrics")
	if err != nil {
		return 1, cloud.BlobStats{}
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 1, cloud.BlobStats{}
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "androne_vdr_dedup_ratio "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil && v > 0 {
				return v, cloud.BlobStats{}
			}
		}
	}
	return 1, cloud.BlobStats{}
}

// quantile returns the q-quantile of sorted samples (seconds), or 0.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Run drives the whole workload and reports what it measured.
func (h *Harness) Run() (*Result, error) {
	httpStart := time.Now()

	// Pass 1: every tenant browses, installs, orders.
	if err := h.runTenants(func(t string) error { return h.lifecycle(t, false) }); err != nil {
		return nil, err
	}
	// Fly round 1: quick orders complete; churn orders are interrupted and
	// saved to the VDR mid-mission.
	flyStart := time.Now()
	flyRounds := 0
	if _, err := h.postAdmin("/api/admin/fly"); err != nil {
		return nil, err
	}
	flyRounds++
	flySeconds := time.Since(flyStart).Seconds()

	// Pass 2: tenants re-order their churn drones (resume from the VDR)
	// and keep polling; fly round 2 finishes the interrupted missions.
	if err := h.runTenants(func(t string) error { return h.lifecycle(t, true) }); err != nil {
		return nil, err
	}
	flyStart = time.Now()
	if _, err := h.postAdmin("/api/admin/fly"); err != nil {
		return nil, err
	}
	flyRounds++
	flySeconds += time.Since(flyStart).Seconds()
	httpSeconds := time.Since(httpStart).Seconds()

	// Save/restore scenario churn over the shared blob store.
	churnRuns, violations, err := h.churnScenarios()
	if err != nil {
		return nil, err
	}

	h.mu.Lock()
	lats := append([]float64(nil), h.latencies...)
	h.mu.Unlock()
	sort.Float64s(lats)
	requests := h.requests.Load()
	shed := h.shed.Load()
	ratio, blob := h.dedupRatio()

	res := &Result{
		Tenants:     h.cfg.Tenants,
		Requests:    requests,
		Shed:        shed,
		Errors:      h.errors.Load(),
		P50Ms:       quantile(lats, 0.50) * 1000,
		P99Ms:       quantile(lats, 0.99) * 1000,
		HTTPSeconds: httpSeconds,
		FlyRounds:   flyRounds,
		FlySeconds:  flySeconds,
		ChurnRuns:   churnRuns,
		Violations:  violations,
		DedupRatio:  ratio,
		Blob:        blob,
	}
	if requests > 0 {
		res.ShedRate = float64(shed) / float64(requests)
	}
	if httpSeconds > 0 {
		res.ThroughputRPS = float64(requests) / httpSeconds
	}
	return res, nil
}
