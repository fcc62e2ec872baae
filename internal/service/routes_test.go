package service

import (
	"bufio"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"androne/internal/cloud"
	"androne/internal/telemetry"
)

// muxChain is the reference router for svc.Handler(): the chain the
// service routed through when every request met two http.ServeMuxes — an
// outer mux holding the ops rows (/metrics, /debug/trace) beside a
// catch-all, admission, and an api mux holding the rest.
func muxChain(s *Service) http.Handler {
	api, mux := http.NewServeMux(), http.NewServeMux()
	for _, rt := range s.routes() {
		if rt.Endpoint == "" {
			register(mux, rt)
		} else {
			register(api, rt)
		}
	}
	mux.Handle("/", cloud.NewAdmission(s.cfg.Admission).Wrap(api))
	return mux
}

// portalMux is the reference router for Portal.ServeHTTP: the portal's
// rows on a mux of their own.
func portalMux(s *Service) http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.portal.Routes() {
		register(mux, rt)
	}
	return mux
}

// register adds rt to mux, its handler given the mux's wildcard values.
func register(mux *http.ServeMux, rt cloud.Route) {
	mux.HandleFunc(strings.TrimSpace(rt.Method+" "+rt.Pattern), func(w http.ResponseWriter, r *http.Request) {
		var v cloud.PathValues
		n := 0
		for _, seg := range strings.Split(rt.Pattern, "/") {
			if name, ok := strings.CutPrefix(seg, "{"); ok {
				v[n] = r.PathValue(strings.TrimSuffix(strings.TrimSuffix(name, "}"), "..."))
				n++
			}
		}
		rt.Serve(w, r, v)
	})
}

// routeMethods are the methods every routed path is tried under.
var routeMethods = []string{"GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "CONNECT"}

// routeTargets are request targets covering every route and the ways a
// path can miss or bend one: empty, multi-segment and escaped wildcard
// values, unclean paths (answered with a redirect before admission),
// trailing slashes, query strings, the operator and ops paths under wrong
// methods, the asterisk target and an authority-form CONNECT target.
var routeTargets = []string{
	"/api/apps", "/api/apps/com.androne.survey", "/api/apps/nope",
	"/api/orders", "/api/orders?user=alice", "/api/orders/ORDER", "/api/orders/nope",
	"/api/files/alice", "/api/files/alice/flight/photo.jpg", "/api/files/alice/missing",
	"/api/vdr", "/api/vdr?user=alice",
	"/api/admin/fly", "/api/admin/bills", "/api/admin", "/api/admin/", "/api/admin/other",
	"/api/admin/fly/", "/api/admin/bills?x=1",
	"/metrics", "/metrics/", "/metrics?x=1", "/debug/trace", "/debug/trace?drone=nope",
	"/debug/trace/", "/debug",
	// Empty wildcard values.
	"/api/orders/", "/api/apps/", "/api/files/", "/api/files//", "/api/files//x",
	"/api/files/alice/", "/api/orders//",
	// Multi-segment values.
	"/api/orders/a/b", "/api/apps/a/b", "/api/files/alice/flight/sub/photo.jpg",
	// Escaped values and segments.
	"/api/orders/a%2Fb", "/api/apps/a%2Fb", "/api/files/al%2Fice", "/api/files/alice/flight%2Fphoto.jpg",
	"/api/orders/%6Erd", "/api/%6Frders", "/api/orders%2F1", "/api/v%64r", "/api/vdr%2F",
	"/api/files/alice/a%20b",
	// Unclean paths.
	"/api//vdr", "//api/vdr", "/api/orders//x", "/api/./vdr", "/api/vdr/.", "/api/x/../vdr",
	"/../api/vdr", "/api/vdr/..", "/api//vdr?user=alice&x=%2F", "//metrics", "/./metrics",
	"/api//orders/a%2Fb", "/api/files/alice//flight/photo.jpg",
	// Trailing slashes and strays.
	"/api/vdr/", "/api/apps/com.androne.survey/", "/api/orders/ORDER/",
	"/", "/api", "/api/", "/api/nope", "/nope",
	"*", "example.com:443",
}

// routeCase is one request the table and the reference must answer alike.
type routeCase struct{ method, target string }

// routeCases is every target under every method, with ORDER standing for
// the id of the seeded order.
func routeCases(order string) []routeCase {
	var cs []routeCase
	for _, target := range routeTargets {
		target = strings.Replace(target, "ORDER", order, 1)
		for _, m := range routeMethods {
			cs = append(cs, routeCase{m, target})
		}
	}
	return cs
}

// routeService is a service seeded so every route has something to
// answer: the demo apps, an order of alice's, a file and a VDR entry. No
// order is pending, so POST /api/admin/fly has nothing to fly and every
// request leaves the service as it found it. Rate limiting is off.
func routeService(t testing.TB) (*Service, string) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Seed = "routes"
	cfg.Admission = cloud.AdmissionConfig{RatePerTenant: -1}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.SeedDemoApps(); err != nil {
		t.Fatal(err)
	}
	ord, err := s.OrderJSON("alice", "vd-a", defFor("alice", "vd-a", 60, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Orders().Update(ord.ID, func(o *cloud.Order) { o.Status = cloud.OrderCompleted }); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"/flight/photo.jpg", "/flight/sub/photo.jpg", "/a b", "/"} {
		if err := s.Storage().Put("alice", f, []byte("data:"+f)); err != nil {
			t.Fatal(err)
		}
	}
	def, _ := defFor("alice", "vd-a", 60, 0).Encode()
	if err := s.VDR().Save(cloud.VDREntry{Name: "vd-a", Owner: "alice", Definition: def}); err != nil {
		t.Fatal(err)
	}
	return s, ord.ID
}

// answer is what a handler wrote for one request.
type answer struct {
	status int
	header http.Header
	body   string
}

// serveRoute sends the request line method target to h, or reports false
// when http.ReadRequest refuses it.
func serveRoute(h http.Handler, method, target string) (answer, bool) {
	req, err := http.ReadRequest(bufio.NewReader(strings.NewReader(
		method + " " + target + " HTTP/1.1\r\nHost: androne.test\r\n" + cloud.TenantHeader + ": alice\r\n\r\n")))
	if err != nil {
		return answer{}, false
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return answer{rec.Code, rec.Header(), rec.Body.String()}, true
}

// sameAnswer reports how got differs from want, or "" if it does not.
// The exposition changes with every request served, so a /metrics body
// is not compared.
func sameAnswer(got, want answer) string {
	switch {
	case got.status != want.status:
		return fmt.Sprintf("status %d, want %d", got.status, want.status)
	case !maps.EqualFunc(got.header, want.header, slices.Equal[[]string]):
		return fmt.Sprintf("header %v, want %v", got.header, want.header)
	case got.body != want.body && !strings.HasPrefix(want.header.Get("Content-Type"), "text/plain; version=0.0.4"):
		return fmt.Sprintf("body %q, want %q", got.body, want.body)
	}
	return ""
}

// latencies are the observation counts of admission's latency
// histograms, by endpoint, read from the exposition.
type latencies map[string]int

func latencyCounts() latencies {
	l := latencies{}
	for _, line := range strings.Split(telemetry.DefaultRegistry.Exposition(), "\n") {
		name, n, ok := strings.Cut(line, "_seconds_count ")
		if endpoint, isLat := strings.CutPrefix(name, "androne_portal_latency_"); ok && isLat {
			l[endpoint], _ = strconv.Atoi(n)
		}
	}
	return l
}

// sub names the endpoints whose counts grew since before.
func (l latencies) sub(before latencies) string {
	var grew []string
	for endpoint, n := range l {
		if n != before[endpoint] {
			grew = append(grew, endpoint)
		}
	}
	slices.Sort(grew)
	return strings.Join(grew, ",")
}

// routerPair is a router under test and its reference.
type routerPair struct {
	name   string
	h, ref http.Handler
}

func routerPairs(s *Service) []routerPair {
	return []routerPair{
		{"svc.Handler", s.Handler(), muxChain(s)},
		{"Portal.ServeHTTP", s.portal, portalMux(s)},
	}
}

// TestRoutesMatchServeMux holds svc.Handler() to the reference chain of
// ServeMuxes, and Portal.ServeHTTP to a mux of the portal's rows, on every
// route under every method and on every way a path can miss one: status,
// headers (Allow, Location, Content-Type), body, and the admission latency
// histogram the request is timed in.
func TestRoutesMatchServeMux(t *testing.T) {
	s, order := routeService(t)
	checked := 0
	for _, c := range routeCases(order) {
		for _, pair := range routerPairs(s) {
			before := latencyCounts()
			want, ok := serveRoute(pair.ref, c.method, c.target)
			if !ok {
				t.Errorf("%s %s: request line refused", c.method, c.target)
				continue
			}
			timed := latencyCounts()
			got, _ := serveRoute(pair.h, c.method, c.target)
			if d := sameAnswer(got, want); d != "" {
				t.Errorf("%s: %s %s: %s", pair.name, c.method, c.target, d)
			}
			if ref, table := timed.sub(before), latencyCounts().sub(timed); ref != table {
				t.Errorf("%s: %s %s: timed in %q, want %q", pair.name, c.method, c.target, table, ref)
			}
			checked++
		}
	}
	// Spot checks that the cases reach what they are meant to.
	for _, c := range []struct {
		method, target string
		status         int
		allow, loc     string
	}{
		{"OPTIONS", "/api/apps", 405, "GET, HEAD, POST", ""},
		{"GET", "/api//vdr", 301, "", "/api/vdr"},
		{"GET", "/api/orders/a%2Fb", 404, "", ""},
		{"HEAD", "/api/vdr", 200, "", ""},
		{"GET", "/api/files/alice/flight/photo.jpg", 200, "", ""},
		{"POST", "/metrics", 404, "", ""},
		{"DELETE", "/api/admin/fly", 404, "", ""},
		{"CONNECT", "example.com:443", 301, "", "/"},
	} {
		a, _ := serveRoute(s.Handler(), c.method, c.target)
		if a.status != c.status || a.header.Get("Allow") != c.allow || a.header.Get("Location") != c.loc {
			t.Errorf("%s %s: %d Allow %q Location %q, want %d %q %q", c.method, c.target,
				a.status, a.header.Get("Allow"), a.header.Get("Location"), c.status, c.allow, c.loc)
		}
	}
	t.Logf("%d requests answered alike", checked)
}

// FuzzRoutes holds both routers to their references on arbitrary request
// lines; the seed corpus is TestRoutesMatchServeMux's table.
func FuzzRoutes(f *testing.F) {
	s, order := routeService(f)
	for _, c := range routeCases(order) {
		f.Add(c.method, c.target)
	}
	pairs := routerPairs(s)
	f.Fuzz(func(t *testing.T, method, target string) {
		for _, pair := range pairs {
			want, ok := serveRoute(pair.ref, method, target)
			if !ok {
				return
			}
			got, _ := serveRoute(pair.h, method, target)
			if d := sameAnswer(got, want); d != "" {
				t.Errorf("%s: %s %s: %s", pair.name, method, target, d)
			}
		}
	})
}
