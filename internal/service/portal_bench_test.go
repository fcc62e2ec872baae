package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
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

// BenchmarkPortalRead drives each cheap tenant read through svc.Handler()
// — outer mux, admission, the API routes — on a service seeded like a
// busy tenant's view: the demo app store, 24 orders for one tenant, and 48
// VDR entries. Rate limiting is off so the loop measures service time,
// not 429s.
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
		b.Run(c.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodGet, c.target, nil)
			req.Header.Set(cloud.TenantHeader, "tenant-00")
			w := &discardWriter{h: make(http.Header)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.status, w.n = 0, 0
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK || w.n == 0 {
					b.Fatalf("%s answered %d with %d bytes", c.target, w.status, w.n)
				}
			}
		})
	}
}
