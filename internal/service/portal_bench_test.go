package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"androne/internal/cloud"
)

// discardWriter is a reusable ResponseWriter that keeps only the status
// and byte count, so the benchmark measures the handler chain rather than
// a recorder's buffer growth.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// coldGap is the gap before each request of a cold read: the spacing of
// perfbench's 400 req/s generator, which yields the processor until a
// request is due.
const coldGap = 2500 * time.Microsecond

// readService is a service seeded like a busy tenant's view: the demo
// app store, 24 orders for tenant-00, and 48 VDR entries. It returns the
// service and the ID of tenant-00's last order.
func readService(tb testing.TB, adm cloud.AdmissionConfig) (*Service, string) {
	cfg := DefaultConfig()
	cfg.Seed = tb.Name()
	cfg.Admission = adm
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	if err := s.SeedDemoApps(); err != nil {
		tb.Fatal(err)
	}
	var orderID string
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("bench-%02d", i)
		ord, err := s.OrderJSON("tenant-00", name, defFor("tenant-00", name, 60, float64(i)))
		if err != nil {
			tb.Fatal(err)
		}
		if err := s.Orders().Update(ord.ID, func(o *cloud.Order) {
			o.EstimatedCharge, o.WindowStartS, o.WindowEndS = 0.25, 31.5, 92.75
		}); err != nil {
			tb.Fatal(err)
		}
		orderID = ord.ID
	}
	for i := 0; i < 48; i++ {
		saveVD(tb, s, i, 0)
	}
	return s, orderID
}

// saveVD saves the i-th VDR entry of readService, as of second at.
func saveVD(tb testing.TB, s *Service, i int, at int64) {
	def, _ := defFor("tenant-00", fmt.Sprintf("vd-%02d", i), 60, 0).Encode()
	if err := s.VDR().Save(cloud.VDREntry{Name: fmt.Sprintf("vd-%02d", i), Owner: "tenant-00",
		Definition: def, SavedAt: time.Unix(1700000000+int64(i)+at, 0).UTC()}); err != nil {
		tb.Fatal(err)
	}
}

// readTargets are the cheap tenant reads, by their perfbench names.
func readTargets(orderID string) []struct{ name, target string } {
	return []struct{ name, target string }{
		{"apps", "/api/apps"},
		{"orders_list", "/api/orders?user=tenant-00"},
		{"order_get", "/api/orders/" + orderID},
		{"vdr_list", "/api/vdr"},
	}
}

// serveOK serves req through h into w and fails unless it answered 200
// with a body.
func serveOK(tb testing.TB, h http.Handler, w *discardWriter, req *http.Request) {
	w.status, w.n = 0, 0
	h.ServeHTTP(w, req)
	if w.status != http.StatusOK || w.n == 0 {
		tb.Fatalf("%s answered %d with %d bytes", req.URL, w.status, w.n)
	}
}

// limitedTenants share a _limited benchmark's requests, as perfbench's
// tenants share its load: 400 req/s over 16 tenants stays within each
// tenant's 200 req/s bucket.
const limitedTenants = 16

// BenchmarkPortalRead drives each cheap tenant read through svc.Handler()
// on readService's service.
//
// Each read runs warm (back to back) and cold (<name>_cold): before each
// cold request the loop yields with runtime.Gosched for coldGap, as the
// portal-mixed generator does, and ns/op is the median time of the
// requests alone, as op_p50_ms is the workload's median. A sleep or a
// busy spin in the gap leaves the caches in a different state and does
// not reproduce the workload's cost. Rate limiting is off in both, so
// they measure service time, not 429s.
//
// <name>_limited is the cold read through the handler perfbench runs:
// the default admission config (200 req/s per tenant), its requests dealt
// over limitedTenants tenants. <name>_portal is the same cold read through
// Portal.ServeHTTP alone, over the same components: the difference
// between the two is what admission and the service's routing cost.
func BenchmarkPortalRead(b *testing.B) {
	s, orderID := readService(b, cloud.AdmissionConfig{RatePerTenant: -1})
	limited, _ := readService(b, cloud.AdmissionConfig{})
	portal := cloud.NewPortal(limited.AppStore(), limited.Storage(), limited.VDR(), limited.Orders(), nil, nil)
	h := s.Handler()
	cold := func(b *testing.B, h http.Handler, reqs []*http.Request) {
		w := &discardWriter{h: make(http.Header)}
		took := make([]time.Duration, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		for i := range took {
			for due := time.Now().Add(coldGap); time.Now().Before(due); {
				runtime.Gosched()
			}
			t0 := time.Now()
			serveOK(b, h, w, reqs[i%len(reqs)])
			took[i] = time.Since(t0)
		}
		b.StopTimer()
		slices.Sort(took)
		b.ReportMetric(float64(took[len(took)/2].Nanoseconds()), "ns/op")
	}
	for _, c := range readTargets(orderID) {
		req := httptest.NewRequest(http.MethodGet, c.target, nil)
		req.Header.Set(cloud.TenantHeader, "tenant-00")
		reqs := []*http.Request{req}
		var dealt []*http.Request
		for k := 0; k < limitedTenants; k++ {
			r := httptest.NewRequest(http.MethodGet, c.target, nil)
			r.Header.Set(cloud.TenantHeader, fmt.Sprintf("tenant-%02d", k))
			dealt = append(dealt, r)
		}
		b.Run(c.name, func(b *testing.B) {
			w := &discardWriter{h: make(http.Header)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveOK(b, h, w, req)
			}
		})
		b.Run(c.name+"_cold", func(b *testing.B) { cold(b, h, reqs) })
		b.Run(c.name+"_limited", func(b *testing.B) { cold(b, limited.Handler(), dealt) })
		b.Run(c.name+"_portal", func(b *testing.B) { cold(b, portal, dealt) })
	}
}

// TestReadPathAllocs pins the allocations of each cheap read through
// svc.Handler(), its token bucket on, into a reusable writer: an order
// costs its body, a tenant's list its body (and no more than one other),
// and the listings none, a VDR listing read right after a Save included.
func TestReadPathAllocs(t *testing.T) {
	s, orderID := readService(t, cloud.AdmissionConfig{RatePerTenant: 1e9})
	h := s.Handler()
	w := &discardWriter{h: make(http.Header)}
	budget := map[string]float64{"apps": 0, "orders_list": 2, "order_get": 1, "vdr_list": 0}
	for _, c := range readTargets(orderID) {
		req := httptest.NewRequest(http.MethodGet, c.target, nil)
		req.Header.Set(cloud.TenantHeader, "tenant-00")
		serveOK(t, h, w, req)
		if got := testing.AllocsPerRun(200, func() { serveOK(t, h, w, req) }); got > budget[c.name] {
			t.Errorf("GET %s: %.1f allocs/op, want <= %.0f", c.target, got, budget[c.name])
		}
	}

	// A read right after a Save: the writer has rebuilt the listing.
	req := httptest.NewRequest(http.MethodGet, "/api/vdr", nil)
	req.Header.Set(cloud.TenantHeader, "tenant-00")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	var mallocs uint64
	const saves = 20
	for i := 0; i < saves; i++ {
		saveVD(t, s, i, 3600)
		runtime.ReadMemStats(&before)
		serveOK(t, h, w, req)
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	if mallocs != 0 {
		t.Errorf("GET /api/vdr right after a VDR.Save: %d allocs in %d reads, want 0", mallocs, saves)
	}
}
