// Allocation budgets for the VFC hot path. BENCH_baseline.json (PR 4)
// recorded vfc-send at 2 allocs/op — the ack and its reply slice built
// fresh on every accepted command. The fleet work replaced both with
// per-endpoint scratch (flight.Controller.ackReply, VFC.deny), and these
// tests pin the budget at zero so a regression shows up as a test failure
// rather than a silent line in the next benchmark run.

package mavproxy

import (
	"testing"

	"androne/internal/flight"
	"androne/internal/geo"
	"androne/internal/mavlink"
	"androne/internal/telemetry"
)

// allocVFC builds an activated VFC in front of a live flight controller —
// the same assembly androne-bench measures as "vfc-send".
func allocVFC(t *testing.T) *VFC {
	t.Helper()
	_, vfc := allocVehicleVFC(t)
	return vfc
}

// allocVehicleVFC is allocVFC, with the vehicle behind the VFC.
func allocVehicleVFC(t *testing.T) (*flight.Vehicle, *VFC) {
	t.Helper()
	home := geo.Position{LatLon: geo.LatLon{Lat: 47.397742, Lon: 8.545594}, Alt: 488}
	v := flight.NewVehicle(home, "alloc-test", flight.WithRecorder(telemetry.NewRecorder()))
	v.StepSeconds(0.1)
	proxy := New(v.Controller)
	proxy.SetRecorder(telemetry.NewRecorder())
	if _, err := proxy.NewVFC("alloc", TemplateStandard(), false); err != nil {
		t.Fatal(err)
	}
	wp := geo.Waypoint{
		Position:  geo.Position{LatLon: geo.OffsetNE(home.LatLon, 40, 0), Alt: 15},
		MaxRadius: 40,
	}
	if err := proxy.Activate("alloc", wp); err != nil {
		t.Fatal(err)
	}
	vfc, err := proxy.VFCByName("alloc")
	if err != nil {
		t.Fatal(err)
	}
	return v, vfc
}

// TestSendAcceptedZeroAlloc pins the accepted-command path (whitelist pass,
// forward to the flight controller, ack from scratch) at 0 allocs/op.
func TestSendAcceptedZeroAlloc(t *testing.T) {
	vfc := allocVFC(t)
	yaw := &mavlink.CommandLong{Command: mavlink.CmdConditionYaw, Param1: 45}
	allocs := testing.AllocsPerRun(1000, func() {
		if vfc.Send(yaw) == nil {
			t.Fatal("whitelisted command was not acknowledged")
		}
	})
	if allocs != 0 {
		t.Fatalf("accepted vfc-send allocated %.1f/op, want 0", allocs)
	}
}

// TestSendDeniedZeroAlloc pins the denial path (whitelist miss, ack from
// the VFC's own scratch) at 0 allocs/op — idle fleets spam denials.
func TestSendDeniedZeroAlloc(t *testing.T) {
	vfc := allocVFC(t)
	arm := &mavlink.CommandLong{Command: mavlink.CmdComponentArmDisarm, Param1: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		replies := vfc.Send(arm)
		ack, ok := replies[0].(*mavlink.CommandAck)
		if !ok || ack.Result != mavlink.ResultDenied {
			t.Fatal("non-whitelisted command was not denied")
		}
	})
	if allocs != 0 {
		t.Fatalf("denied vfc-send allocated %.1f/op, want 0", allocs)
	}
}

// TestTickZeroAlloc pins the 10 Hz proxy tick over three VFCs at 0
// allocs/op: the name-ordered registry is walked as it stands, with no
// per-tick copy or sort.
func TestTickZeroAlloc(t *testing.T) {
	vfc := allocVFC(t)
	for _, name := range []string{"c", "a"} {
		if _, err := vfc.proxy.NewVFC(name, TemplateStandard(), false); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, vfc.proxy.Tick)
	if allocs != 0 {
		t.Fatalf("proxy tick over 3 VFCs allocated %.1f/op, want 0", allocs)
	}
}
