package cloud

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"androne/internal/sdk"
)

// appWithDescription is a publishable app whose listing row carries desc.
func appWithDescription(t testing.TB, pkg, desc string) StoreApp {
	t.Helper()
	m, err := sdk.ParseManifest([]byte(`<androne-manifest package="` + pkg + `">
  <uses-permission name="camera" type="waypoint"/>
</androne-manifest>`))
	if err != nil {
		t.Fatal(err)
	}
	return StoreApp{Package: pkg, Description: desc, Manifest: m, APK: []byte("apk:" + pkg)}
}

// wantAppListing is the apps listing as encoding/json renders it.
func wantAppListing(t testing.TB, s *AppStore) []byte {
	t.Helper()
	apps := s.List()
	for i := range apps {
		apps[i].APK = nil
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(apps); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func wantVDRListing(t testing.TB, v *VDR) []byte {
	t.Helper()
	b, err := json.Marshal(v.Manifests())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestListingsTrackMutations checks sequentially that a listing read
// after a mutation returns reflects it exactly: each body equals the
// encoding/json rendering of the store at that moment, across Save of a
// new entry, Save over an existing one, a Save refused by quota, Delete
// (of a present and of an absent entry), and Publish of a new and of a
// replaced app.
func TestListingsTrackMutations(t *testing.T) {
	q := DefaultQuotas()
	q.MaxVDRLayersPerTenant = 3
	v := NewVDRWith(NewBlobStore(), q)
	check := func(step string) {
		t.Helper()
		got, err := v.ManifestsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want := wantVDRListing(t, v); !bytes.Equal(got, want) {
			t.Fatalf("%s: VDR listing\n %s\nwant\n %s", step, got, want)
		}
		again, _ := v.ManifestsJSON()
		if !bytes.Equal(again, got) {
			t.Fatalf("%s: a second read changed the listing", step)
		}
	}
	check("empty")
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	for i := 0; i < 3; i++ {
		if err := v.Save(VDREntry{Name: fmt.Sprintf("vd-%d", i), Owner: "alice",
			Definition: []byte(fmt.Sprintf(`{"n":%d}`, i)), SavedAt: at}); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("save vd-%d", i))
	}
	if err := v.Save(VDREntry{Name: "vd-1", Owner: "alice", Definition: []byte(`{"n":"again"}`),
		SavedAt: at.Add(time.Hour), Completed: true}); err != nil {
		t.Fatal(err)
	}
	check("save over vd-1")
	if err := v.Save(VDREntry{Name: "vd-9", Owner: "alice", Definition: []byte(`{}`), SavedAt: at}); err == nil {
		t.Fatal("save past the layer quota succeeded")
	}
	check("refused save")
	if err := v.Save(VDREntry{Name: "bare", Owner: "bob", SavedAt: at}); err != nil {
		t.Fatal(err)
	}
	check("save without layers")
	v.Delete("vd-0")
	check("delete vd-0")
	v.Delete("vd-0")
	check("delete absent")

	s := NewAppStore()
	checkApps := func(step string) {
		t.Helper()
		got, err := s.ListingJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want := wantAppListing(t, s); !bytes.Equal(got, want) {
			t.Fatalf("%s: app listing\n %s\nwant\n %s", step, got, want)
		}
	}
	checkApps("empty")
	for _, a := range []StoreApp{
		appWithDescription(t, "com.example.b", "first"),
		appWithDescription(t, "com.example.a", "second"),
		appWithDescription(t, "com.example.b", "replaced"),
	} {
		if err := s.Publish(a); err != nil {
			t.Fatal(err)
		}
		checkApps("publish " + a.Package + " " + a.Description)
	}
}

// TestListingsNeverInstallStale races listing rebuilds against writes
// (run it under -race). Readers hammer both listings while a writer
// saves, deletes and publishes; every read the writer makes after a
// write returns, until its next write, must show that write. Without the
// generation check a reader whose rebuild started before the write would
// install the old body after the write's invalidation, and the writer's
// reads would find it.
func TestListingsNeverInstallStale(t *testing.T) {
	v := NewVDR()
	s := NewAppStore()
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	// A listing long enough that a rebuild overlaps the writes.
	for i := 0; i < 64; i++ {
		if err := v.Save(VDREntry{Name: fmt.Sprintf("base-%02d", i), Owner: "fleet",
			Definition: []byte(fmt.Sprintf(`{"n":%d}`, i)), SavedAt: at}); err != nil {
			t.Fatal(err)
		}
		if err := s.Publish(appWithDescription(t, fmt.Sprintf("com.example.base%02d", i), "base")); err != nil {
			t.Fatal(err)
		}
	}
	// shows reads a listing a few times, yielding to the readers between
	// reads, and reports whether every read contains (or, with want
	// false, lacks) needle.
	shows := func(read func() ([]byte, error), needle string, want bool) bool {
		for k := 0; k < 4; k++ {
			body, err := read()
			if err != nil || bytes.Contains(body, []byte(needle)) != want {
				return false
			}
			runtime.Gosched()
		}
		return true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := v.ManifestsJSON(); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.ListingJSON(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	for i := 0; i < 250; i++ {
		name := fmt.Sprintf("w-%04d", i)
		if err := v.Save(VDREntry{Name: name, Owner: "writer", Definition: []byte(`{}`), SavedAt: at}); err != nil {
			t.Fatal(err)
		}
		if !shows(v.ManifestsJSON, `"name":"`+name+`"`, true) {
			t.Fatalf("round %d: a VDR listing read after Save(%s) returned lacks it", i, name)
		}
		v.Delete(name)
		if !shows(v.ManifestsJSON, `"name":"`+name+`"`, false) {
			t.Fatalf("round %d: a VDR listing read after Delete(%s) returned still has it", i, name)
		}
		desc := fmt.Sprintf("rev-%04d", i)
		if err := s.Publish(appWithDescription(t, "com.example.hot", desc)); err != nil {
			t.Fatal(err)
		}
		if !shows(s.ListingJSON, `"description":"`+desc+`"`, true) {
			t.Fatalf("round %d: an app listing read after Publish(%s) returned lacks it", i, desc)
		}
	}
}

// TestVDRWriterRebuildsOnlyListedListing checks who encodes the VDR
// listing: a VDR that has never been listed leaves the body for its first
// read, so a Save or Delete there encodes nothing; once the listing has
// been read, Save and Delete leave the body built.
func TestVDRWriterRebuildsOnlyListedListing(t *testing.T) {
	v := NewVDR()
	built := func() bool {
		v.mu.Lock()
		defer v.mu.Unlock()
		return v.listing.body != nil
	}
	save := func(name string) {
		t.Helper()
		if err := v.Save(VDREntry{Name: name, Owner: "alice", Definition: []byte(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	save("vd-0")
	save("vd-1")
	v.Delete("vd-1")
	if built() {
		t.Fatal("Save and Delete built the listing of a VDR nobody lists")
	}
	if _, err := v.ManifestsJSON(); err != nil {
		t.Fatal(err)
	}
	save("vd-2")
	if !built() {
		t.Fatal("Save left a read listing unbuilt")
	}
	v.Delete("vd-2")
	if !built() {
		t.Fatal("Delete left a read listing unbuilt")
	}
}
