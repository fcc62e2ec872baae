package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"androne/internal/cloud"
	"androne/internal/sdk"
)

// Strings encoding/json treats specially: HTML-unsafe bytes, non-ASCII,
// U+2028/U+2029 (escaped), invalid UTF-8 (replaced), control bytes.
var (
	lineSep = string(rune(0x2028))
	paraSep = string(rune(0x2029))
	badUTF8 = string([]byte{'b', 0xff, 'd', 0xc3})
	tricky  = []string{
		"alice<&>",
		"zo" + string(rune(0xeb)) + "-" + lineSep + paraSep,
		"bad" + badUTF8,
		"tab\there \"quoted\" back\\slash",
	}
	// Floats on both sides of encoding/json's exponent cutoffs, and -0.
	trickyFloats = []float64{math.Copysign(0, -1), 1e-6, 9.999999e-7, 1e21, 9.99999999e20,
		123.456, -2.5e-300, 1e300, 0.1}
)

// seededReadService is a service whose tenants, orders, apps and VDR
// entries carry every string and float form in tricky and trickyFloats.
func seededReadService(t *testing.T) (*Service, []string) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = t.Name()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.SeedDemoApps(); err != nil {
		t.Fatal(err)
	}
	if err := s.AppStore().Publish(cloud.StoreApp{Package: "com.example.tricky",
		Description: tricky[0] + tricky[1] + tricky[2], Manifest: mustManifest(t, "com.example.tricky"),
		APK: []byte("apk")}); err != nil {
		t.Fatal(err)
	}

	var ids []string
	k := 0
	for _, user := range tricky {
		for j := 0; j < 3; j++ {
			note, _ := json.Marshal(user)
			def := fmt.Sprintf("{ \"note\": %s,\n  \"x\": [1, 2.50, -0, 1E3],\n  \"raw\": \"%s\" }",
				note, "<b>&"+lineSep+badUTF8)
			ord, err := s.Orders().Create(user, tricky[(k+1)%len(tricky)], json.RawMessage(def))
			if err != nil {
				t.Fatal(err)
			}
			err = s.Orders().Update(ord.ID, func(o *cloud.Order) {
				o.WindowStartS = trickyFloats[k%len(trickyFloats)]
				o.WindowEndS = trickyFloats[(k+3)%len(trickyFloats)]
				o.EstimatedCharge = trickyFloats[(k+5)%len(trickyFloats)]
				o.Access.VPNKey = tricky[k%len(tricky)]
			})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, ord.ID)
			k++
		}
	}

	zone := time.FixedZone("odd", -(3*3600 + 30*60))
	for i, name := range tricky {
		if err := s.VDR().Save(cloud.VDREntry{Name: name, Owner: tricky[(i+1)%len(tricky)],
			Definition: []byte(`{"name":` + fmt.Sprintf("%q", name) + `}`),
			SavedAt:    time.Date(2026, 3, 4, 5, 6, 7, 123456789*i, zone), Completed: i%2 == 0}); err != nil {
			t.Fatal(err)
		}
	}
	// An entry with no layers lists "layers":null.
	if err := s.VDR().Save(cloud.VDREntry{Name: "bare", Owner: "bob"}); err != nil {
		t.Fatal(err)
	}
	return s, ids
}

// TestReadBodiesMatchEncodingJSON is the byte-identity oracle for the
// tenant read path: for every read endpoint, status, Content-Type and
// body bytes through svc.Handler() must equal what encoding/json renders
// for the same data — Encoder.Encode (trailing newline included) for the
// app listing and a single order, Marshal for the order and VDR listings.
// The check runs again after writes (a publish, VDR saves and deletes, an
// order update), after a POST to each tenant's book, and after a planning
// round, so rebuilt listings and updated orders are held to the same
// bytes.
func TestReadBodiesMatchEncodingJSON(t *testing.T) {
	s, ids := seededReadService(t)
	h := s.Handler()

	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	check := func(target string, want []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", target, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("GET %s: Content-Type %q", target, ct)
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("GET %s body:\n %q\nencoding/json:\n %q", target, rec.Body.Bytes(), want)
		}
	}
	checkAll := func() {
		t.Helper()
		apps := s.AppStore().List()
		for i := range apps {
			apps[i].APK = nil
		}
		check("/api/apps", encode(apps))
		for _, user := range append(tricky, "nobody") {
			check("/api/orders?user="+url.QueryEscape(user), marshal(s.Orders().List(user)))
		}
		for _, id := range ids {
			ord, err := s.Orders().Get(id)
			if err != nil {
				t.Fatal(err)
			}
			check("/api/orders/"+id, encode(ord))
		}
		check("/api/vdr", marshal(s.VDR().Manifests()))
	}
	checkAll()

	if err := s.AppStore().Publish(cloud.StoreApp{Package: "com.example.tricky",
		Description: "replaced " + paraSep, Manifest: mustManifest(t, "com.example.tricky")}); err != nil {
		t.Fatal(err)
	}
	s.VDR().Delete(tricky[1])
	if err := s.VDR().Save(cloud.VDREntry{Name: "late<>", Owner: "alice", Definition: []byte(`[]`)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Orders().Update(ids[0], func(o *cloud.Order) { o.Status = cloud.OrderFlying }); err != nil {
		t.Fatal(err)
	}
	checkAll()

	// A POST appends to the tenant's book; its answer is the order as a
	// GET reads it. The seeded definitions do not plan, so they leave
	// the pending set first.
	for _, id := range ids {
		if err := s.Orders().Update(id, func(o *cloud.Order) { o.Status = cloud.OrderSaved }); err != nil {
			t.Fatal(err)
		}
	}
	for i, user := range tricky {
		name := fmt.Sprintf("posted-%d", i)
		raw, err := defFor(user, name, 40+float64(30*i), float64(-20*i)).Encode()
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(map[string]any{"user": user, "name": name, "definition": json.RawMessage(raw)})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/orders", bytes.NewReader(body)))
		var posted cloud.Order
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &posted) != nil {
			t.Fatalf("POST for %q: %d %s", user, rec.Code, rec.Body)
		}
		ord, err := s.Orders().Get(posted.ID)
		if err != nil {
			t.Fatal(err)
		}
		if want := encode(ord); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("POST body:\n %q\nencoding/json:\n %q", rec.Body.Bytes(), want)
		}
		ids = append(ids, posted.ID)
	}
	checkAll()

	// A planning round's Update sets each posted order's status, window
	// and access.
	if _, err := s.ProcessOrders(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[len(ids)-len(tricky):] {
		if ord, _ := s.Orders().Get(id); ord.Status != cloud.OrderScheduled || ord.Access.VPNKey == "" || ord.WindowEndS == 0 {
			t.Fatalf("planning round left %s as %+v", id, ord)
		}
	}
	checkAll()
}

func mustManifest(t *testing.T, pkg string) *sdk.Manifest {
	t.Helper()
	m, err := sdk.ParseManifest([]byte(`<androne-manifest package="` + pkg + `">
  <uses-permission name="camera" type="waypoint"/>
</androne-manifest>`))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAPIRoutesBehindAdmission pins the single route table: every request
// outside /metrics and /debug/trace — known routes, unknown paths, wrong
// methods — passes admission (a tenant with a one-token bucket is shed on
// its second request), and answers the status it did when the portal
// routed on a mux of its own: 405 with Allow for a wrong method on a
// portal route, 404 for any other method on an operator route.
func TestAPIRoutesBehindAdmission(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = t.Name()
	cfg.Admission = cloud.AdmissionConfig{RatePerTenant: 1e-9, Burst: 1}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	h := s.Handler()

	for i, c := range []struct {
		method, path string
		status       int
		allow        string
		admitted     bool
	}{
		{"GET", "/api/apps", 200, "", true},
		{"HEAD", "/api/vdr", 200, "", true},
		{"GET", "/api/orders/ord-00-000001", 404, "", true},
		{"GET", "/api/nope", 404, "", true},
		{"GET", "/", 404, "", true},
		{"DELETE", "/api/orders", 405, "GET, HEAD, POST", true},
		{"PUT", "/api/apps/com.example.x", 405, "GET, HEAD", true},
		{"GET", "/api/admin/bills", 200, "", true},
		{"GET", "/api/admin/fly", 404, "", true},
		{"PUT", "/api/admin/bills", 404, "", true},
		{"GET", "/api/admin", 404, "", true},
		{"POST", "/metrics", 404, "", true},
		{"GET", "/metrics", 200, "", false},
		{"GET", "/debug/trace", 200, "", false},
	} {
		tenant := fmt.Sprintf("tenant-%02d", i)
		serve := func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(c.method, c.path, nil)
			req.Header.Set(cloud.TenantHeader, tenant)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec
		}
		first := serve()
		if first.Code != c.status || first.Header().Get("Allow") != c.allow {
			t.Errorf("%s %s: %d Allow %q, want %d Allow %q", c.method, c.path,
				first.Code, first.Header().Get("Allow"), c.status, c.allow)
		}
		second := serve()
		if shed := second.Code == http.StatusTooManyRequests; shed != c.admitted {
			t.Errorf("%s %s: second request answered %d; behind admission = %v", c.method, c.path,
				second.Code, c.admitted)
		}
	}
}
