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

// BenchmarkPortalRead drives each cheap tenant read through svc.Handler()
// on a service seeded like a busy tenant's view: the demo app store, 24
// orders for one tenant, and 48 VDR entries. Rate limiting is off so the
// loop measures service time, not 429s.
//
// Each read runs warm (back to back) and cold (<name>_cold): before each
// cold request the loop yields with runtime.Gosched for coldGap, as the
// portal-mixed generator does, and ns/op is the median time of the
// requests alone, as op_p50_ms is the workload's median. A sleep or a
// busy spin in the gap leaves the caches in a different state and does
// not reproduce the workload's cost.
func BenchmarkPortalRead(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Seed = b.Name()
	cfg.Admission = cloud.AdmissionConfig{RatePerTenant: -1}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.SeedDemoApps(); err != nil {
		b.Fatal(err)
	}
	var orderID string
	for i := 0; i < 24; i++ {
		name := fmt.Sprintf("bench-%02d", i)
		ord, err := s.OrderJSON("tenant-00", name, defFor("tenant-00", name, 60, float64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Orders().Update(ord.ID, func(o *cloud.Order) {
			o.EstimatedCharge, o.WindowStartS, o.WindowEndS = 0.25, 31.5, 92.75
		}); err != nil {
			b.Fatal(err)
		}
		orderID = ord.ID
	}
	for i := 0; i < 48; i++ {
		def, _ := defFor("tenant-00", fmt.Sprintf("vd-%02d", i), 60, 0).Encode()
		if err := s.VDR().Save(cloud.VDREntry{Name: fmt.Sprintf("vd-%02d", i), Owner: "tenant-00",
			Definition: def, SavedAt: time.Unix(1700000000+int64(i), 0).UTC()}); err != nil {
			b.Fatal(err)
		}
	}

	h := s.Handler()
	for _, c := range []struct{ name, target string }{
		{"apps", "/api/apps"},
		{"orders_list", "/api/orders?user=tenant-00"},
		{"order_get", "/api/orders/" + orderID},
		{"vdr_list", "/api/vdr"},
	} {
		req := httptest.NewRequest(http.MethodGet, c.target, nil)
		req.Header.Set(cloud.TenantHeader, "tenant-00")
		w := &discardWriter{h: make(http.Header)}
		serve := func(b *testing.B) {
			w.status, w.n = 0, 0
			h.ServeHTTP(w, req)
			if w.status != http.StatusOK || w.n == 0 {
				b.Fatalf("%s answered %d with %d bytes", c.target, w.status, w.n)
			}
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(b)
			}
		})
		b.Run(c.name+"_cold", func(b *testing.B) {
			took := make([]time.Duration, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := range took {
				for due := time.Now().Add(coldGap); time.Now().Before(due); {
					runtime.Gosched()
				}
				t0 := time.Now()
				serve(b)
				took[i] = time.Since(t0)
			}
			b.StopTimer()
			slices.Sort(took)
			b.ReportMetric(float64(took[len(took)/2].Nanoseconds()), "ns/op")
		})
	}
}
