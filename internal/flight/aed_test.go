package flight

import (
	"math"
	"math/rand/v2"
	"testing"

	"androne/internal/detmath"
	"androne/internal/geo"
)

// Log is a flight log, the input to the Attitude Estimate Divergence
// analyzer the paper uses (DroneKit Log Analyzer) to show that virtual
// drone workloads do not destabilize the drone. It keeps every sample, so
// flying code attaches an AEDMonitor instead; Log and AnalyzeAED are the
// oracle TestAEDMonitorMatchesLog checks the monitor against.
type Log struct {
	samples []Sample
}

// AnalyzeAED runs the Attitude Estimate Divergence analysis over the log.
func AnalyzeAED(l *Log) AEDResult {
	f := newAEDFold()
	for i := range l.samples {
		f.add(&l.samples[i])
	}
	return f.result()
}

// loggedVehicle steps a Vehicle as StepSeconds and RunUntil do, and after
// each step feeds the log from outside: the controller's estimate and
// time, and the sim's attitude as truth.
type loggedVehicle struct {
	*Vehicle
	log *Log
}

func (lv loggedVehicle) step() {
	v := lv.Vehicle
	v.Sim.Step(FastLoopDT)
	v.Controller.Step(FastLoopDT)
	r, p, y := v.Sim.Attitude()
	v.Controller.RecordTruth(r, p, y)
	er, ep, ey := v.Controller.EstimatedAttitude()
	lv.log.samples = append(lv.log.samples, Sample{
		T: v.Controller.timeS, EstRoll: er, EstPitch: ep, EstYaw: ey,
		TrueRoll: r, TruePitch: p, TrueYaw: y, HasTruth: true,
	})
}

func (lv loggedVehicle) StepSeconds(seconds float64) {
	for i := 0; i < int(seconds*FastLoopHz); i++ {
		lv.step()
	}
}

func (lv loggedVehicle) RunUntil(cond func() bool, timeoutS float64) bool {
	for i := 0; i < int(timeoutS*FastLoopHz); i++ {
		lv.step()
		if i%40 == 0 && cond() {
			return true
		}
	}
	return cond()
}

// TestAEDMonitorMatchesLog is the differential oracle for the streaming
// AED: two identically seeded vehicles fly the same route, one feeding a
// full Log and one folding into an AEDMonitor, and the monitor's verdict
// must equal AnalyzeAED over the log bit for bit at every checkpoint. The
// faulted flight (gusty wind, then a dead motor that tumbles the drone
// into the ground) must fail AED, so the excursion path is exercised too.
func TestAEDMonitorMatchesLog(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fault    bool
		wantPass bool
	}{
		{"calm", false, true},
		{"wind-and-motor-fault", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log, mon := &Log{}, NewAEDMonitor()
			vl := loggedVehicle{NewVehicle(home, "aed-diff"), log}
			vm := NewVehicle(home, "aed-diff", WithAEDMonitor(mon))
			check := func(when string) AEDResult {
				t.Helper()
				want, got := AnalyzeAED(log), mon.Result()
				if math.Float64bits(got.MaxDivergenceDeg) != math.Float64bits(want.MaxDivergenceDeg) ||
					math.Float64bits(got.LongestExcursionS) != math.Float64bits(want.LongestExcursionS) ||
					got.Pass != want.Pass {
					t.Fatalf("%s: monitor %+v, AnalyzeAED %+v", when, got, want)
				}
				if vl.Sim.Position() != vm.Sim.Position() {
					t.Fatalf("%s: the vehicles diverged", when)
				}
				return got
			}
			check("before any sample")
			vl.StepSeconds(0.1)
			vm.StepSeconds(0.1)
			for _, v := range []flier{vl, vm} {
				takeoffTo(t, v, 12)
				if tc.fault {
					v.vehicle().Sim.SetWind(4, -2, 1.5)
				}
				target := geo.Position{LatLon: geo.OffsetNE(home.LatLon, 30, -20), Alt: 15}
				if err := v.vehicle().Controller.GotoPosition(target, 0); err != nil {
					t.Fatal(err)
				}
			}
			check("after takeoff")
			for _, v := range []flier{vl, vm} {
				v.StepSeconds(8)
			}
			check("mid-route")
			if tc.fault {
				for _, v := range []flier{vl, vm} {
					v.vehicle().Sim.SetMotorHealth(1, 0)
				}
			}
			for _, v := range []flier{vl, vm} {
				v.StepSeconds(12)
			}
			res := check("end of flight")
			t.Logf("AED %+v over %d samples", res, len(log.samples))
			if res.Pass != tc.wantPass {
				t.Fatalf("AED pass = %v, want %v (%+v)", res.Pass, tc.wantPass, res)
			}
		})
	}
}

// TestAEDDivergenceConvertsOnce holds divergenceDeg, the max of three
// radian differences converted to degrees once, to the max of the three
// differences each converted to degrees, over random and edge estimates:
// x ↦ x·180/π must round monotonically for the two to agree.
func TestAEDDivergenceConvertsOnce(t *testing.T) {
	deg := func(a, b float64) float64 { return math.Abs(detmath.WrapPi(a-b)) * 180 / math.Pi }
	r := rand.New(rand.NewPCG(35, 180))
	edge := []float64{0, math.Copysign(0, -1), 1e-300, math.Pi, -math.Pi, math.Nextafter(math.Pi, 4), math.NaN()}
	for i := 0; i < 1_000_000; i++ {
		var v [6]float64 // three estimates, then three truths
		e := (2*r.Float64() - 1) * math.Pi
		for k := 0; k < 3; k++ {
			tr := (2*r.Float64() - 1) * math.Pi
			switch r.IntN(3) {
			case 0:
				v[k], v[k+3] = edge[r.IntN(len(edge))], edge[r.IntN(len(edge))]
			case 1:
				v[k], v[k+3] = (2*r.Float64()-1)*math.Pi, tr
			default: // errors within a few ulps of one another
				v[k], v[k+3] = tr+e+float64(r.IntN(5)-2)*0x1p-51, tr
			}
		}
		s := Sample{EstRoll: v[0], EstPitch: v[1], EstYaw: v[2], TrueRoll: v[3], TruePitch: v[4], TrueYaw: v[5]}
		got := divergenceDeg(&s)
		want := max(deg(v[0], v[3]), deg(v[1], v[4]), deg(v[2], v[5]))
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("divergence of %v = %v, per-axis degrees give %v", v, got, want)
		}
	}
}
