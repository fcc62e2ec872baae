package cloud

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"androne/internal/container"
	"androne/internal/sdk"
)

func surveyApp(t *testing.T) StoreApp {
	t.Helper()
	m, err := sdk.ParseManifest([]byte(`
<androne-manifest package="com.example.survey">
  <uses-permission name="camera" type="waypoint"/>
  <uses-permission name="flight-control" type="waypoint"/>
  <argument name="survey-areas" type="polygon-list" required="true"/>
</androne-manifest>`))
	if err != nil {
		t.Fatal(err)
	}
	return StoreApp{Package: "com.example.survey", Description: "aerial field survey",
		Manifest: m, APK: []byte("dex-bytecode")}
}

func TestAppStore(t *testing.T) {
	s := NewAppStore()
	if err := s.Publish(surveyApp(t)); err != nil {
		t.Fatal(err)
	}
	app, err := s.Get("com.example.survey")
	if err != nil {
		t.Fatal(err)
	}
	if app.Description != "aerial field survey" {
		t.Fatalf("app = %+v", app)
	}
	if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if got := s.List(); len(got) != 1 {
		t.Fatalf("list = %v", got)
	}
}

func TestAppStoreRejectsBadApps(t *testing.T) {
	s := NewAppStore()
	if err := s.Publish(StoreApp{Package: "x"}); err == nil {
		t.Fatal("app without manifest accepted")
	}
	app := surveyApp(t)
	app.Package = "different"
	if err := s.Publish(app); err == nil {
		t.Fatal("package/manifest mismatch accepted")
	}
}

func mustPut(t *testing.T, st *Storage, user, path string, data []byte) {
	t.Helper()
	if err := st.Put(user, path, data); err != nil {
		t.Fatal(err)
	}
}

func TestStorage(t *testing.T) {
	st := NewStorage()
	mustPut(t, st, "alice", "/flight-1/survey.mp4", []byte("video"))
	mustPut(t, st, "alice", "/flight-1/report.json", []byte("{}"))
	mustPut(t, st, "bob", "/flight-2/photo.jpg", []byte("jpeg"))

	got, err := st.Get("alice", "/flight-1/survey.mp4")
	if err != nil || !bytes.Equal(got, []byte("video")) {
		t.Fatalf("get = %q, %v", got, err)
	}
	if _, err := st.Get("bob", "/flight-1/survey.mp4"); !errors.Is(err, ErrNotFound) {
		t.Fatal("cross-user file access")
	}
	if files := st.List("alice"); len(files) != 2 || files[0] != "/flight-1/report.json" {
		t.Fatalf("list = %v", files)
	}
	if n := st.UsageBytes("alice"); n != 7 {
		t.Fatalf("usage = %d", n)
	}
	if n := st.UsageBytes("nobody"); n != 0 {
		t.Fatalf("usage = %d", n)
	}
}

func TestVDR(t *testing.T) {
	v := NewVDR()
	diff := &container.Checkpoint{Name: "vd1", ImageName: "img", Upper: map[string][]byte{"/data/x": []byte("diff")}}
	e := VDREntry{Name: "vd1", Owner: "alice", Definition: []byte("{}"),
		Checkpoint: diff, SavedAt: time.Unix(1700000000, 0)}
	if err := v.Save(e); err != nil {
		t.Fatal(err)
	}
	got, err := v.Load("vd1")
	if err != nil {
		t.Fatal(err)
	}
	if got.Owner != "alice" || !reflect.DeepEqual(got.Checkpoint, diff) {
		t.Fatalf("entry = %+v", got)
	}
	if _, err := v.Load("vd2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if got := v.Manifests(); len(got) != 1 {
		t.Fatalf("list = %v", got)
	}
	v.Delete("vd1")
	if _, err := v.Load("vd1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("delete did not remove entry")
	}
}

func TestOrders(t *testing.T) {
	o := NewOrders()
	a, err := o.Create("alice", "survey-drone", json.RawMessage(`{"waypoints":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Create("bob", "b", json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatal("duplicate order ids")
	}
	if a.Status != OrderPending {
		t.Fatalf("status = %v", a.Status)
	}
	if err := o.Update(a.ID, func(ord *Order) { ord.Status = OrderFlying }); err != nil {
		t.Fatal(err)
	}
	got, _ := o.Get(a.ID)
	if got.Status != OrderFlying {
		t.Fatal("update lost")
	}
	if err := o.Update("nope", func(*Order) {}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if l := o.List("alice"); len(l) != 1 || l[0].User != "alice" {
		t.Fatalf("list(alice) = %v", l)
	}
	if l := o.List(""); len(l) != 2 {
		t.Fatalf("list all = %v", l)
	}
}

func TestOrdersListStatusFiltersListing(t *testing.T) {
	// ListStatus is List("") with the other statuses taken out, in the
	// same id order, across every shard.
	o := NewOrders()
	for i := 0; i < 60; i++ {
		ord, err := o.Create(fmt.Sprintf("tenant-%d", i%13), "", json.RawMessage(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		if i%3 != 0 {
			if err := o.Update(ord.ID, func(ord *Order) { ord.Status = OrderScheduled }); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, st := range []OrderStatus{OrderPending, OrderScheduled, OrderCompleted} {
		want := []Order{}
		for _, ord := range o.List("") {
			if ord.Status == st {
				want = append(want, ord)
			}
		}
		if got := o.ListStatus(st); !reflect.DeepEqual(got, want) {
			t.Fatalf("ListStatus(%s) = %d orders, listing holds %d", st, len(got), len(want))
		}
	}
}

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"Survey Drone #1": "survey-drone--1",
		"ok-name-9":       "ok-name-9",
		"":                "vdrone",
		"ALL_CAPS":        "all-caps",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

// --------------------------------------------------------------------------
// Portal HTTP tests

func newTestPortal(t *testing.T) (*Portal, *httptest.Server) {
	t.Helper()
	validate := func(def []byte) error {
		var v struct {
			Waypoints []json.RawMessage `json:"waypoints"`
		}
		if err := json.Unmarshal(def, &v); err != nil {
			return err
		}
		if len(v.Waypoints) == 0 {
			return errors.New("no waypoints")
		}
		return nil
	}
	estimate := func(def []byte) (float64, float64, float64, error) {
		return 0.42, 120, 420, nil
	}
	p := NewPortal(NewAppStore(), NewStorage(), NewVDR(), NewOrders(), validate, estimate)
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return p, srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestPortalOrderFlow(t *testing.T) {
	_, srv := newTestPortal(t)

	def := json.RawMessage(`{"waypoints":[{"latitude":43.6,"longitude":-85.8,"altitude":15,"max-radius":30}]}`)
	resp := postJSON(t, srv.URL+"/api/orders", map[string]any{
		"user": "alice", "name": "Survey Drone", "definition": def,
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var ord Order
	if err := json.NewDecoder(resp.Body).Decode(&ord); err != nil {
		t.Fatal(err)
	}
	if ord.ID == "" || ord.Name != "survey-drone" {
		t.Fatalf("order = %+v", ord)
	}
	if ord.EstimatedCharge != 0.42 || ord.WindowStartS != 120 {
		t.Fatalf("estimate not applied: %+v", ord)
	}

	// Retrieve it.
	got, err := http.Get(srv.URL + "/api/orders/" + ord.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Body.Close()
	if got.StatusCode != http.StatusOK {
		t.Fatalf("get status = %d", got.StatusCode)
	}

	// List by user.
	lst, err := http.Get(srv.URL + "/api/orders?user=alice")
	if err != nil {
		t.Fatal(err)
	}
	defer lst.Body.Close()
	var orders []Order
	if err := json.NewDecoder(lst.Body).Decode(&orders); err != nil {
		t.Fatal(err)
	}
	if len(orders) != 1 {
		t.Fatalf("orders = %v", orders)
	}
}

func TestPortalRejectsBadOrders(t *testing.T) {
	_, srv := newTestPortal(t)
	// Invalid definition (no waypoints).
	resp := postJSON(t, srv.URL+"/api/orders", map[string]any{
		"user": "alice", "definition": json.RawMessage(`{"waypoints":[]}`),
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// Missing user.
	resp = postJSON(t, srv.URL+"/api/orders", map[string]any{
		"definition": json.RawMessage(`{"waypoints":[1]}`),
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// Unknown order id.
	got, err := http.Get(srv.URL + "/api/orders/ord-9999")
	if err != nil {
		t.Fatal(err)
	}
	got.Body.Close()
	if got.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", got.StatusCode)
	}
}

func TestPortalAppStoreAPI(t *testing.T) {
	p, srv := newTestPortal(t)
	if err := p.Apps.Publish(surveyApp(t)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/api/apps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var apps []StoreApp
	if err := json.NewDecoder(resp.Body).Decode(&apps); err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 || apps[0].Package != "com.example.survey" {
		t.Fatalf("apps = %v", apps)
	}
	if apps[0].APK != nil {
		t.Fatal("listing leaked APK bytes")
	}

	one, err := http.Get(srv.URL + "/api/apps/com.example.survey")
	if err != nil {
		t.Fatal(err)
	}
	defer one.Body.Close()
	var app StoreApp
	if err := json.NewDecoder(one.Body).Decode(&app); err != nil {
		t.Fatal(err)
	}
	if len(app.APK) == 0 {
		t.Fatal("app fetch missing APK")
	}

	// Publish over HTTP.
	resp2 := postJSON(t, srv.URL+"/api/apps", surveyApp(t))
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("publish status = %d", resp2.StatusCode)
	}
	// Bad publish.
	resp3 := postJSON(t, srv.URL+"/api/apps", StoreApp{Package: "x"})
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad publish status = %d", resp3.StatusCode)
	}
}

func TestPortalFilesAPI(t *testing.T) {
	p, srv := newTestPortal(t)
	mustPut(t, p.Files, "alice", "/flight-1/survey.mp4", []byte("video-bytes"))

	resp, err := http.Get(srv.URL + "/api/files/alice")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var files []string
	if err := json.NewDecoder(resp.Body).Decode(&files); err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("files = %v", files)
	}

	got, err := http.Get(srv.URL + "/api/files/alice/flight-1/survey.mp4")
	if err != nil {
		t.Fatal(err)
	}
	defer got.Body.Close()
	if got.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", got.StatusCode)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(got.Body); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "video-bytes" {
		t.Fatalf("body = %q", buf.String())
	}

	missing, err := http.Get(srv.URL + "/api/files/alice/nope.txt")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d", missing.StatusCode)
	}
}

func TestPortalVDRAPI(t *testing.T) {
	p, srv := newTestPortal(t)
	if err := p.Repo.Save(VDREntry{Name: "vd1", Owner: "alice", Definition: []byte("{}"),
		Checkpoint: &container.Checkpoint{Name: "vd1", Upper: map[string][]byte{"/big": []byte("big")}}}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/api/vdr")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []VDREntry
	if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "vd1" {
		t.Fatalf("entries = %v", entries)
	}
	if entries[0].Checkpoint != nil {
		t.Fatal("listing leaked checkpoint bytes")
	}
}

func TestPortalOrderNameDefaults(t *testing.T) {
	_, srv := newTestPortal(t)
	resp := postJSON(t, srv.URL+"/api/orders", map[string]any{
		"user": "bob", "definition": json.RawMessage(`{"waypoints":[1]}`),
	})
	defer resp.Body.Close()
	var ord Order
	if err := json.NewDecoder(resp.Body).Decode(&ord); err != nil {
		t.Fatal(err)
	}
	if ord.Name != ord.ID {
		t.Fatalf("default name = %q, want order id %q", ord.Name, ord.ID)
	}
}

// TestOrderIDsSequential pins the sharded ID contract: every ID is unique
// across the whole book, carries its owning shard's prefix, and is
// monotonically increasing within that shard — the properties the old
// single-counter test checked, generalized to N counters.
func TestOrderIDsSequential(t *testing.T) {
	o := NewOrders()
	seen := make(map[string]bool)
	lastPerShard := make(map[int]string)
	for i := 0; i < 10; i++ {
		for _, user := range []string{"alice", "bob", "carol", "dave"} {
			ord, err := o.Create(user, "n", nil)
			if err != nil {
				t.Fatal(err)
			}
			if seen[ord.ID] {
				t.Fatalf("duplicate id %q", ord.ID)
			}
			seen[ord.ID] = true
			shard := ShardOf(user)
			if want := fmt.Sprintf("ord-%02d-", shard); !strings.HasPrefix(ord.ID, want) {
				t.Fatalf("id %q lacks shard prefix %q", ord.ID, want)
			}
			if last := lastPerShard[shard]; last != "" && ord.ID <= last {
				t.Fatalf("shard %d id %q not after %q", shard, ord.ID, last)
			}
			lastPerShard[shard] = ord.ID
		}
	}
}

// TestOrdersQuota pins the per-tenant order cap: the quota'd tenant is
// refused with ErrQuotaExceeded while other tenants keep ordering.
func TestOrdersQuota(t *testing.T) {
	o := NewOrdersWith(Quotas{MaxOrdersPerTenant: 2})
	for i := 0; i < 2; i++ {
		if _, err := o.Create("alice", "n", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := o.Create("alice", "n", nil); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
	if _, err := o.Create("bob", "n", nil); err != nil {
		t.Fatalf("other tenant refused: %v", err)
	}
	if n := o.Count("alice"); n != 2 {
		t.Fatalf("Count(alice) = %d", n)
	}
}
