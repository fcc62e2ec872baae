package cloud

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"androne/internal/container"
)

// testCheckpoint is a checkpoint of a container named name on the
// minimal image with the given writable layer.
func testCheckpoint(name string, upper map[string][]byte) *container.Checkpoint {
	return &container.Checkpoint{
		Name:      name,
		ImageName: "androne/minimal-android",
		Limits:    container.Limits{MemoryMB: 512, CPUShares: 1024},
		Upper:     upper,
	}
}

func layerKinds(m Manifest) []string {
	kinds := make([]string, 0, len(m.Layers))
	for _, l := range m.Layers {
		kinds = append(kinds, l.Kind)
	}
	return kinds
}

// TestVDRLayeredRoundTrip saves a checkpoint, checks it splits into the
// expected layers, and requires Load to return a checkpoint equal to the
// one Save was handed — the property the VDC's splice detection and the
// simharness restore invariants ride on.
func TestVDRLayeredRoundTrip(t *testing.T) {
	v := NewVDR()
	cp := testCheckpoint("survey", map[string][]byte{
		"/data/app/com.androne.photo/code":  []byte("apk"),
		"/data/data/com.androne.photo/shot": []byte("jpeg"),
		FlightProgressPath:                  []byte(`{"waypoint":1}`),
		"/out/photos/wp1.jpg":               []byte("payload"),
	})
	e := VDREntry{
		Name: "survey", Owner: "buildco",
		Definition: []byte(`{"name":"survey"}`),
		Checkpoint: cp,
		SavedAt:    time.Unix(1700000000, 0).UTC(),
	}
	if err := v.Save(e); err != nil {
		t.Fatal(err)
	}

	m, err := v.Manifest("survey")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{LayerDefinition, LayerBase, LayerAppSet, LayerState}
	if got := layerKinds(m); len(got) != len(want) {
		t.Fatalf("layers = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("layers = %v, want %v", got, want)
			}
		}
	}
	if m.ContainerName != "survey" {
		t.Fatalf("manifest container name %q", m.ContainerName)
	}

	got, err := v.Load("survey")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Checkpoint, cp) {
		t.Fatalf("checkpoint did not round-trip through the layers: %+v", got.Checkpoint)
	}
	if !bytes.Equal(got.Definition, e.Definition) || got.Owner != "buildco" || !got.SavedAt.Equal(e.SavedAt) {
		t.Fatalf("entry fields lost: %+v", got)
	}

	// The split rule: app files live in the appset layer, the per-flight
	// progress file and outputs in the state layer.
	appset, state, err := splitUpper(map[string][]byte{
		"/data/app/x":        []byte("a"),
		FlightProgressPath:   []byte("p"),
		"/out/result":        []byte("o"),
		"/data/data/x/prefs": []byte("s"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(appset) != 2 || len(state) != 2 {
		t.Fatalf("split: appset %v state %v", appset, state)
	}
	if _, inApp := appset[FlightProgressPath]; inApp {
		t.Fatal("progress file leaked into the stable appset layer")
	}
}

// TestVDRLayerDedupAcrossChurn pins why the format exists: across a
// save/restore churn only the state layer changes, and across tenants on
// the same image the base layer is shared — so physical bytes stay near
// one generation while logical bytes grow per save.
func TestVDRLayerDedupAcrossChurn(t *testing.T) {
	store := NewBlobStore()
	v := NewVDRWith(store, DefaultQuotas())
	upper := func(progress string) map[string][]byte {
		return map[string][]byte{
			"/data/app/com.androne.photo/code": bytes.Repeat([]byte("apk"), 1000),
			FlightProgressPath:                 []byte(progress),
		}
	}
	save := func(name, owner, progress string) {
		t.Helper()
		err := v.Save(VDREntry{
			Name: name, Owner: owner,
			Definition: []byte(`{"name":"` + name + `"}`),
			Checkpoint: testCheckpoint(name, upper(progress)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	save("drone-a", "alice", `{"wp":1}`)
	base := store.Stats()

	// Churn: same drone, new progress. Definition, base, and appset layers
	// must all dedup; only the small state layer is new.
	save("drone-a", "alice", `{"wp":2}`)
	st := store.Stats()
	if st.DedupHits < base.DedupHits+3 {
		t.Fatalf("churn save deduped %d layers, want >= 3 (stats %+v)", st.DedupHits-base.DedupHits, st)
	}
	newPhysical := st.PhysicalBytes - base.PhysicalBytes
	if newPhysical >= 1000 {
		t.Fatalf("churn save stored %d new bytes; the 3 KB appset should have deduped", newPhysical)
	}

	// A second tenant's drone on the same image shares the base layer.
	before := store.Stats().DedupHits
	save("drone-b", "bob", `{"wp":1}`)
	if store.Stats().DedupHits <= before {
		t.Fatal("cross-tenant save shared no layers (base should dedup)")
	}

	// An identical re-save is a 100% dedup hit: zero new physical bytes.
	phys := store.Stats().PhysicalBytes
	save("drone-a", "alice", `{"wp":2}`)
	if got := store.Stats().PhysicalBytes; got != phys {
		t.Fatalf("identical re-save stored %d new bytes", got-phys)
	}
	if ratio := store.Stats().DedupRatio(); ratio <= 1.5 {
		t.Fatalf("dedup ratio %.2f after churn, want > 1.5", ratio)
	}
}

// TestVDRLayerQuota exercises the per-tenant layer quota: saves past the
// cap fail typed, replacement of the same entry needs no headroom, and
// other tenants are unaffected.
func TestVDRLayerQuota(t *testing.T) {
	v := NewVDRWith(NewBlobStore(), Quotas{MaxVDRLayersPerTenant: 2})
	one := VDREntry{Name: "a1", Owner: "alice", Definition: []byte(`{"a":1}`)}
	if err := v.Save(one); err != nil {
		t.Fatal(err)
	}
	if err := v.Save(VDREntry{Name: "a2", Owner: "alice", Definition: []byte(`{"a":2}`)}); err != nil {
		t.Fatal(err)
	}
	err := v.Save(VDREntry{Name: "a3", Owner: "alice", Definition: []byte(`{"a":3}`)})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("third layer for alice: %v", err)
	}
	// Steady-state churn: replacing a1 swaps layers 1-for-1 and fits.
	one.Completed = true
	if err := v.Save(one); err != nil {
		t.Fatalf("replacement save should fit inside the quota: %v", err)
	}
	if err := v.Save(VDREntry{Name: "b1", Owner: "bob", Definition: []byte(`{"b":1}`)}); err != nil {
		t.Fatalf("bob must not be throttled by alice's quota: %v", err)
	}
	if got := v.OwnerLayers("alice"); got != 2 {
		t.Fatalf("alice holds %d layers, want 2", got)
	}
}

// TestVDRCorruptLayerSurfaces corrupts one stored layer and expects Load
// to fail loudly while the listing still shows the entry instead of
// crashing or hiding it.
func TestVDRCorruptLayerSurfaces(t *testing.T) {
	store := NewBlobStore()
	v := NewVDRWith(store, DefaultQuotas())
	cp := testCheckpoint("frail", map[string][]byte{FlightProgressPath: []byte("{}")})
	if err := v.Save(VDREntry{Name: "frail", Owner: "carol", Definition: []byte(`{}`), Checkpoint: cp}); err != nil {
		t.Fatal(err)
	}
	if err := CorruptLayer(v, "frail", LayerState); err != nil {
		t.Fatal(err)
	}

	if _, err := v.Load("frail"); !errors.Is(err, ErrLayerCorrupt) {
		t.Fatalf("Load of corrupt entry: %v", err)
	}
	listed := v.Manifests()
	if len(listed) != 1 || listed[0].Name != "frail" || listed[0].Owner != "carol" {
		t.Fatalf("the listing hid the corrupt entry: %+v", listed)
	}
	if len(listed[0].Layers) != 3 {
		t.Fatalf("the listing dropped the corrupt entry's layers: %v", layerKinds(listed[0]))
	}
}

// TestVDRDeleteReleasesLayers deletes an entry and checks the quota
// account drains and the layers drop to zero references (into the
// retention pool, where an unrelated future save could still revive them).
func TestVDRDeleteReleasesLayers(t *testing.T) {
	store := NewBlobStore()
	v := NewVDRWith(store, DefaultQuotas())
	if err := v.Save(VDREntry{Name: "gone", Owner: "erin", Definition: []byte(`{"x":1}`)}); err != nil {
		t.Fatal(err)
	}
	m, _ := v.Manifest("gone")
	v.Delete("gone")
	if got := v.OwnerLayers("erin"); got != 0 {
		t.Fatalf("erin still holds %d layers", got)
	}
	if _, err := v.Load("gone"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load after delete: %v", err)
	}
	if _, refs, ok := store.Stat(m.Layers[0].Digest); !ok || refs != 0 {
		t.Fatalf("deleted entry's layer refs = %d, %v; want retained at 0", refs, ok)
	}
	v.Delete("gone") // idempotent
}

// TestVDRLayerDigestsPinned pins every layer's kind, digest and size for
// three fixed entries: one with app-set and state layers, one with a base
// layer only, and one with a definition only. The digests were taken when
// the VDR still stored checkpoints as JSON bytes, so they show the typed
// layers encode to exactly the bytes — and dedup exactly as — before.
func TestVDRLayerDigestsPinned(t *testing.T) {
	limits := container.Limits{MemoryMB: 185, CPUShares: 512}
	cases := []struct {
		entry VDREntry
		want  []LayerRef
	}{
		{
			VDREntry{Name: "survey-7", Owner: "alice",
				Definition: []byte(`{"name":"survey-7","owner":"alice"}`),
				Checkpoint: &container.Checkpoint{Name: "survey-7", ImageName: "androne/android-things", Limits: limits,
					Upper: map[string][]byte{
						"/data/app/com.androne.photo/base.apk":             []byte("apk\x00\x01\xff"),
						"/data/data/com.androne.photo/instance-state.json": []byte(`{"shots":2}`),
						FlightProgressPath:                                 []byte(`{"started":true,"visited":[true,false]}`),
						"/out/photos/wp1.jpg":                              []byte("\xff\xd8jpeg"),
						"/system/etc/.wh.hosts":                            nil,
					}}},
			[]LayerRef{
				{LayerDefinition, "5dae738d2746fc7aad31571c010c20be6dc026bdb8141e087e23543202066860", 35},
				{LayerBase, "9b75e32192fb64b0925694e36628d8ecff1c73ce5b5cf5c84442b6203c7f874f", 76},
				{LayerAppSet, "94edb02fde3988cb1cf55fd2046e64da237679a10bda191d53c02d897bd7e7c8", 121},
				{LayerState, "6897744d425d4d348ed1f5100f39409a76e68a5f857a129072406ffe6ba22ad5", 148},
			},
		},
		{
			VDREntry{Name: "bare", Owner: "bob",
				Checkpoint: &container.Checkpoint{Name: "bare", ImageName: "androne/android-things", Limits: limits,
					Upper: map[string][]byte{}}},
			[]LayerRef{
				{LayerBase, "9b75e32192fb64b0925694e36628d8ecff1c73ce5b5cf5c84442b6203c7f874f", 76},
			},
		},
		{
			VDREntry{Name: "order-only", Owner: "carol", Definition: []byte(`{"name":"order-only"}`)},
			[]LayerRef{
				{LayerDefinition, "5899f75c26ae274c63556bd6e61d1eaaeb2771cecac0760a96938ba684887c28", 21},
			},
		},
	}
	v := NewVDR()
	for _, tc := range cases {
		if err := v.Save(tc.entry); err != nil {
			t.Fatal(err)
		}
		m, err := v.Manifest(tc.entry.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.Layers, tc.want) {
			t.Errorf("%s: layers\n%v\nwant\n%v", tc.entry.Name, m.Layers, tc.want)
		}
		got, err := v.Load(tc.entry.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.entry) {
			t.Errorf("%s: loaded %+v, saved %+v", tc.entry.Name, got, tc.entry)
		}
	}
}

// FuzzVDRRoundTrip saves entries with arbitrary writable layers — any
// paths, the flight-progress file, /data/ and other paths, nil, empty and
// binary contents — and requires Load to return exactly what Save was
// handed. Save refuses a path or image name that is not valid UTF-8, which
// the layers' JSON could not carry intact.
func FuzzVDRRoundTrip(f *testing.F) {
	f.Add("survey", "androne/minimal-android", "/data/app/x/code\n/out/wp1.jpg\n/etc/.wh.hosts", []byte("apk\x00jpeg\x00"), uint8(3))
	f.Add("bare", "img", "", []byte(nil), uint8(0))
	f.Add("only-def", "img", "/data/a", []byte("x"), uint8(8))
	f.Add("done", "img", "/data/data/p/state\n/data/app/p\n/tmp/x", []byte("\xff\x00\x00\xfe"), uint8(7))
	f.Add("bad-path", "img", "/data/\xff", []byte("x"), uint8(1))
	f.Add("bad-image", "img\xfe", "/data/x", []byte("x"), uint8(0))
	f.Fuzz(func(t *testing.T, name, image, paths string, blob []byte, flags uint8) {
		e := VDREntry{Name: name, Owner: "fuzz", SavedAt: time.Unix(1700000000, int64(flags)).UTC(), Completed: flags&4 != 0}
		if flags&2 != 0 {
			e.Definition = []byte(`{"name":"x"}`)
		}
		valid := true
		if flags&8 == 0 {
			upper := make(map[string][]byte)
			vals := bytes.Split(blob, []byte{0})
			for i, p := range strings.Split(paths, "\n") {
				b := vals[i%len(vals)]
				if len(b) == 0 && i%2 == 1 {
					b = nil // a whiteout marker's nil contents
				}
				upper[p] = b
				valid = valid && utf8.ValidString(p)
			}
			if flags&1 != 0 {
				upper[FlightProgressPath] = blob
			}
			e.Checkpoint = &container.Checkpoint{Name: name, ImageName: image,
				Limits: container.Limits{MemoryMB: int(flags), CPUShares: len(blob)}, Upper: upper}
			valid = valid && utf8.ValidString(image)
		}
		v := NewVDR()
		if err := v.Save(e); err != nil {
			if valid {
				t.Fatalf("Save: %v", err)
			}
			return
		}
		if !valid {
			t.Fatal("Save accepted a path or image name that is not valid UTF-8")
		}
		m, err := v.Manifest(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Checkpoint != nil && m.ContainerName != name {
			t.Fatalf("manifest container name %q, want %q", m.ContainerName, name)
		}
		got, err := v.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("loaded %+v\nsaved %+v", got, e)
		}
	})
}
