package core

import (
	"errors"
	"testing"

	"androne/internal/devices"
)

// figure2JSON is the paper's example construction-site survey definition.
const figure2JSON = `{
  "name": "survey-vd",
  "owner": "realestate-co",
  "waypoints": [
    { "latitude": 43.6084298, "longitude": -85.8110359, "altitude": 15, "max-radius": 30 },
    { "latitude": 43.6076409, "longitude": -85.8154457, "altitude": 15, "max-radius": 20 }
  ],
  "max-duration": 600,
  "energy-allotted": 45000,
  "continuous-devices": [],
  "waypoint-devices": ["camera", "flight-control"],
  "apps": ["com.example.survey"],
  "app-args": {
    "com.example.survey": {
      "survey-areas": [
        [[43.6087619, -85.8104110], [43.6087968, -85.8109877],
         [43.6084570, -85.8110225], [43.6084240, -85.8104646]]
      ]
    }
  }
}`

func TestParseFigure2Definition(t *testing.T) {
	d, err := ParseDefinition([]byte(figure2JSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Waypoints) != 2 {
		t.Fatalf("waypoints = %d", len(d.Waypoints))
	}
	if d.Waypoints[0].MaxRadius != 30 || d.Waypoints[1].MaxRadius != 20 {
		t.Fatalf("radii = %g, %g", d.Waypoints[0].MaxRadius, d.Waypoints[1].MaxRadius)
	}
	if d.MaxDuration != 600 || d.EnergyAllotted != 45000 {
		t.Fatalf("budgets = %g s, %g J", d.MaxDuration, d.EnergyAllotted)
	}
	if !d.HasFlightControl() {
		t.Fatal("flight control not detected")
	}
	if len(d.Apps) != 1 || d.Apps[0] != "com.example.survey" {
		t.Fatalf("apps = %v", d.Apps)
	}
	if d.ArgsFor("com.example.survey") == nil {
		t.Fatal("app args missing")
	}
	if d.ArgsFor("com.example.other") != nil {
		t.Fatal("args for unknown app")
	}
}

func TestDefinitionRoundTrip(t *testing.T) {
	d, err := ParseDefinition([]byte(figure2JSON))
	if err != nil {
		t.Fatal(err)
	}
	data, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := ParseDefinition(data)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Name != d.Name || len(d2.Waypoints) != len(d.Waypoints) ||
		d2.EnergyAllotted != d.EnergyAllotted {
		t.Fatalf("round trip lost data: %+v", d2)
	}
}

func TestDefinitionValidation(t *testing.T) {
	cases := []struct {
		name string
		json string
		err  error
	}{
		{"no waypoints", `{"waypoints":[],"max-duration":60,"energy-allotted":1000}`, ErrNoWaypoints},
		{"zero duration", `{"waypoints":[{"latitude":1,"longitude":1,"altitude":10,"max-radius":30}],"max-duration":0,"energy-allotted":1000}`, ErrBadBudget},
		{"zero energy", `{"waypoints":[{"latitude":1,"longitude":1,"altitude":10,"max-radius":30}],"max-duration":60,"energy-allotted":0}`, ErrBadBudget},
		{"unknown device", `{"waypoints":[{"latitude":1,"longitude":1,"altitude":10,"max-radius":30}],"max-duration":60,"energy-allotted":1000,"waypoint-devices":["xray"]}`, ErrUnknownDevice},
		{"continuous flight control", `{"waypoints":[{"latitude":1,"longitude":1,"altitude":10,"max-radius":30}],"max-duration":60,"energy-allotted":1000,"continuous-devices":["flight-control"]}`, ErrFlightContinuous},
		{"duplicate app", `{"waypoints":[{"latitude":1,"longitude":1,"altitude":10,"max-radius":30}],"max-duration":60,"energy-allotted":1000,"apps":["x","y","x"]}`, ErrDuplicateApp},
	}
	for _, tc := range cases {
		if _, err := ParseDefinition([]byte(tc.json)); !errors.Is(err, tc.err) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.err)
		}
	}
	// Waypoint-level validation propagates.
	bad := `{"waypoints":[{"latitude":99,"longitude":1,"altitude":10,"max-radius":30}],"max-duration":60,"energy-allotted":1000}`
	if _, err := ParseDefinition([]byte(bad)); err == nil {
		t.Error("invalid latitude accepted")
	}
	if err := ValidateDefinitionJSON([]byte("{")); err == nil {
		t.Error("garbage accepted")
	}
	if err := ValidateDefinitionJSON([]byte(figure2JSON)); err != nil {
		t.Errorf("valid definition rejected: %v", err)
	}
}

func TestDeviceKinds(t *testing.T) {
	d := &Definition{
		WaypointDevices:   []string{"camera", "flight-control"},
		ContinuousDevices: []string{"gps", "sensors"},
	}
	wk := d.WaypointKinds()
	if !hasKind(wk, devices.KindCamera) || !hasKind(wk, devices.KindFlightControl) {
		t.Fatalf("waypoint kinds = %v", wk)
	}
	ck := d.ContinuousKinds()
	// "sensors" expands to IMU, barometer, and magnetometer.
	for _, k := range []devices.Kind{devices.KindGPS, devices.KindIMU, devices.KindBarometer, devices.KindMagnetometer} {
		if !hasKind(ck, k) {
			t.Fatalf("continuous kinds missing %v: %v", k, ck)
		}
	}
	if len(DeviceNames()) != 5 {
		t.Fatalf("device names = %v", DeviceNames())
	}
}
