package core

import (
	"encoding/json"
	"errors"
	"slices"
	"testing"

	"androne/internal/cloud"
	"androne/internal/container"
	"androne/internal/mavproxy"
	"androne/internal/sdk"
)

// TestCreateRejectsInvalidDefinitions drives Create through every
// Definition.Validate error path and asserts each failure is clean: the
// right sentinel, nothing listed, no containers or memory leaked.
func TestCreateRejectsInvalidDefinitions(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Definition)
		want   error
	}{
		{"no name", func(d *Definition) { d.Name = "" }, ErrNoName},
		{"no waypoints", func(d *Definition) { d.Waypoints = nil }, ErrNoWaypoints},
		{"zero duration", func(d *Definition) { d.MaxDuration = 0 }, ErrBadBudget},
		{"negative energy", func(d *Definition) { d.EnergyAllotted = -1 }, ErrBadBudget},
		{"bad waypoint radius", func(d *Definition) { d.Waypoints[0].MaxRadius = 0 }, nil},
		{"unknown waypoint device", func(d *Definition) { d.WaypointDevices = []string{"tractor-beam"} }, ErrUnknownDevice},
		{"unknown continuous device", func(d *Definition) { d.ContinuousDevices = []string{"x-ray"} }, ErrUnknownDevice},
		{"flight control as continuous", func(d *Definition) { d.ContinuousDevices = []string{sdk.FlightControlDevice} }, ErrFlightContinuous},
	}
	d := newTestDrone(t)
	baseRunning := len(d.Runtime.Running())
	baseMem := d.Runtime.MemoryUsedMB()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			def := defWith("bad-vd", 1)
			tc.mutate(def)
			_, err := d.VDC.Create(def)
			if err == nil {
				t.Fatal("Create accepted an invalid definition")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if got := d.VDC.List(); len(got) != 0 {
				t.Fatalf("list after failed create = %v", got)
			}
			if n := len(d.Runtime.Running()); n != baseRunning {
				t.Fatalf("containers leaked: %d running, want %d", n, baseRunning)
			}
			if m := d.Runtime.MemoryUsedMB(); m != baseMem {
				t.Fatalf("memory leaked: %d MB, want %d", m, baseMem)
			}
		})
	}
}

// TestFailedAdmissionReleasesBinderState fails an admission after the
// Android boot has published the virtual drone's ActivityManager to the
// device container, because the VFC name is taken. The failure must leave
// the device container's registry and every binder handle table and death
// link as they were.
func TestFailedAdmissionReleasesBinderState(t *testing.T) {
	d := newTestDrone(t)
	sm := d.DevCon.Instance().ServiceManager()
	services := sm.Services()
	footprint := d.Driver.Footprint()
	if _, err := d.Proxy.NewVFC("vd-taken", mavproxy.TemplateStandard(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.VDC.Create(defWith("vd-taken", 1)); !errors.Is(err, mavproxy.ErrVFCExists) {
		t.Fatalf("Create with a taken VFC name: %v, want ErrVFCExists", err)
	}
	if got := sm.Services(); !slices.Equal(got, services) {
		t.Fatalf("device container registry after a failed admission = %v, want %v", got, services)
	}
	if got := d.Driver.Footprint(); got != footprint {
		t.Fatalf("binder footprint after a failed admission = %+v, want %+v", got, footprint)
	}
}

// TestFailedAdmissionKeepsTakenVFC fails an admission because its VFC name
// is taken. The teardown must leave that VFC to whoever made it.
func TestFailedAdmissionKeepsTakenVFC(t *testing.T) {
	d := newTestDrone(t)
	taken, err := d.Proxy.NewVFC("vd-taken", mavproxy.TemplateStandard(), false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.VDC.Create(defWith("vd-taken", 1)); !errors.Is(err, mavproxy.ErrVFCExists) {
		t.Fatalf("Create with a taken VFC name: %v, want ErrVFCExists", err)
	}
	if got, err := d.Proxy.VFCByName("vd-taken"); err != nil || got != taken {
		t.Fatalf("taken VFC after the failed admission: %v, %v", got, err)
	}
}

// savedEntry creates a virtual drone with progress, saves it, and returns
// the VDR entry — the fixture for the corrupt-restore table.
func savedEntry(t *testing.T, d *Drone, name string) cloud.VDREntry {
	t.Helper()
	if _, err := d.VDC.Create(defWith(name, 2)); err != nil {
		t.Fatal(err)
	}
	if err := d.VDC.WaypointReached(name, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.VDC.WaypointLeft(name, 0); err != nil {
		t.Fatal(err)
	}
	entry, err := d.VDC.Save(name)
	if err != nil {
		t.Fatal(err)
	}
	return entry
}

// TestRestoreRejectsCorruptEntries feeds Restore corrupt and partial VDR
// entries. Every rejection must leave the drone exactly as it was — no
// half-restored container running under the wrong identity.
func TestRestoreRejectsCorruptEntries(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, e *cloud.VDREntry, other cloud.VDREntry)
		want   error
	}{
		{
			"definition not json",
			func(t *testing.T, e *cloud.VDREntry, _ cloud.VDREntry) { e.Definition = []byte("{nope") },
			nil,
		},
		{
			"definition name stripped",
			func(t *testing.T, e *cloud.VDREntry, _ cloud.VDREntry) {
				var def Definition
				if err := json.Unmarshal(e.Definition, &def); err != nil {
					t.Fatal(err)
				}
				def.Name = ""
				raw, err := def.Encode()
				if err != nil {
					t.Fatal(err)
				}
				e.Definition = raw
			},
			ErrNoName,
		},
		{
			"definition waypoints stripped",
			func(t *testing.T, e *cloud.VDREntry, _ cloud.VDREntry) {
				var def Definition
				if err := json.Unmarshal(e.Definition, &def); err != nil {
					t.Fatal(err)
				}
				def.Waypoints = nil
				raw, err := def.Encode()
				if err != nil {
					t.Fatal(err)
				}
				e.Definition = raw
			},
			ErrNoWaypoints,
		},
		{
			"checkpoint from another drone",
			func(t *testing.T, e *cloud.VDREntry, other cloud.VDREntry) { e.Checkpoint = other.Checkpoint },
			ErrNameMismatch,
		},
		{
			"checkpoint references unknown image",
			func(t *testing.T, e *cloud.VDREntry, _ cloud.VDREntry) { e.Checkpoint.ImageName = "no-such-image" },
			nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := container.NewStore()
			d1, err := NewDroneWithStore(testHome, t.Name()+"-src", store)
			if err != nil {
				t.Fatal(err)
			}
			entry := savedEntry(t, d1, "vd1")
			other := savedEntry(t, d1, "vd2")

			d2, err := NewDroneWithStore(testHome, t.Name()+"-dst", store)
			if err != nil {
				t.Fatal(err)
			}
			baseRunning := len(d2.Runtime.Running())
			baseMem := d2.Runtime.MemoryUsedMB()

			tc.mutate(t, &entry, other)
			if _, err := d2.VDC.Restore(entry); err == nil {
				t.Fatal("Restore accepted a corrupt entry")
			} else if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if got := d2.VDC.List(); len(got) != 0 {
				t.Fatalf("list after failed restore = %v", got)
			}
			if n := len(d2.Runtime.Running()); n != baseRunning {
				t.Fatalf("containers leaked: %d running, want %d", n, baseRunning)
			}
			if m := d2.Runtime.MemoryUsedMB(); m != baseMem {
				t.Fatalf("memory leaked: %d MB, want %d", m, baseMem)
			}
		})
	}
}

// TestRestoreDuplicateName: an entry whose name collides with a live
// virtual drone is rejected with ErrVDExists and the live one is untouched.
func TestRestoreDuplicateName(t *testing.T) {
	store := container.NewStore()
	d1, err := NewDroneWithStore(testHome, "dup-src", store)
	if err != nil {
		t.Fatal(err)
	}
	entry := savedEntry(t, d1, "vd1")

	d2, err := NewDroneWithStore(testHome, "dup-dst", store)
	if err != nil {
		t.Fatal(err)
	}
	live, err := d2.VDC.Create(defWith("vd1", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.VDC.Restore(entry); !errors.Is(err, ErrVDExists) {
		t.Fatalf("restore over live vd: %v, want ErrVDExists", err)
	}
	got, err := d2.VDC.Get("vd1")
	if err != nil || got != live {
		t.Fatalf("live vd disturbed: %v, %v", got, err)
	}
}

// TestSpliceRejectedBeforeContainer: a checkpoint spliced in from a
// virtual drone that is live on the target drone is refused by name,
// before any container is created, and the live drone is untouched.
func TestSpliceRejectedBeforeContainer(t *testing.T) {
	store := container.NewStore()
	d1, err := NewDroneWithStore(testHome, "splice-src", store)
	if err != nil {
		t.Fatal(err)
	}
	entry := savedEntry(t, d1, "vd1")
	other := savedEntry(t, d1, "vd2")

	d2, err := NewDroneWithStore(testHome, "splice-dst", store)
	if err != nil {
		t.Fatal(err)
	}
	live, err := d2.VDC.Create(defWith("vd2", 1))
	if err != nil {
		t.Fatal(err)
	}
	running := len(d2.Runtime.Running())
	entry.Checkpoint = other.Checkpoint
	if _, err := d2.VDC.Restore(entry); !errors.Is(err, ErrNameMismatch) {
		t.Fatalf("restore of a spliced entry: %v, want ErrNameMismatch", err)
	}
	if got, err := d2.VDC.Get("vd2"); err != nil || got != live {
		t.Fatalf("live vd disturbed: %v, %v", got, err)
	}
	if n := len(d2.Runtime.Running()); n != running {
		t.Fatalf("%d containers running, want %d", n, running)
	}
}

// TestGetListAfterSave: Save removes the virtual drone from the drone; the
// name becomes free for a future flight.
func TestGetListAfterSave(t *testing.T) {
	d := newTestDrone(t)
	if _, err := d.VDC.Create(defWith("keep", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.VDC.Create(defWith("gone", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.VDC.Save("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.VDC.Get("gone"); !errors.Is(err, ErrNoVD) {
		t.Fatalf("get after save: %v, want ErrNoVD", err)
	}
	names := d.VDC.List()
	if len(names) != 1 || names[0] != "keep" {
		t.Fatalf("list after save = %v", names)
	}
	// Saving a name that is not resident fails cleanly.
	if _, err := d.VDC.Save("gone"); !errors.Is(err, ErrNoVD) {
		t.Fatalf("double save: %v, want ErrNoVD", err)
	}
	if _, err := d.VDC.Save("never-existed"); !errors.Is(err, ErrNoVD) {
		t.Fatalf("save unknown: %v, want ErrNoVD", err)
	}
	// The freed name is reusable.
	if _, err := d.VDC.Create(defWith("gone", 1)); err != nil {
		t.Fatalf("recreate after save: %v", err)
	}
}
