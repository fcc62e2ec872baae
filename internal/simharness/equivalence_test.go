package simharness

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// violationLines renders violations the way the determinism hash sees
// them: one String() line per violation.
func violationLines(r *Result) string {
	var b strings.Builder
	for _, v := range r.Violations {
		b.WriteString(v.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// firstDiff returns the first differing line between two multi-line
// strings, for readable failure output.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		var la, lb string
		if i < len(al) {
			la = al[i]
		}
		if i < len(bl) {
			lb = bl[i]
		}
		if la != lb {
			return fmt.Sprintf("line %d:\n  lockstep: %q\n  event:    %q", i+1, la, lb)
		}
	}
	return "no differing line (lengths differ?)"
}

// TestEventModeEquivalence is the differential suite: every builtin and
// sabotaged scenario, across seed variants, must produce bit-identical
// results in event-driven mode and lockstep mode — same trace, same
// violations, same tick count, same sim duration. Lockstep is the
// oracle; any divergence is a bug in the event scheduler's leap logic.
func TestEventModeEquivalence(t *testing.T) {
	scens := append(Builtins(), Sabotaged()...)
	for _, base := range scens {
		base := base
		t.Run(base.Name, func(t *testing.T) {
			t.Parallel()
			for i := 0; i < equivSeeds; i++ {
				seed := base.Seed
				if i > 0 {
					seed = fmt.Sprintf("%s-eq%d", base.Seed, i)
				}
				lockSC := *base
				lockSC.Seed = seed
				lock, err := RunScenarioMode(&lockSC, ModeLockstep)
				if err != nil {
					t.Fatalf("seed %q lockstep: %v", seed, err)
				}
				evSC := *base
				evSC.Seed = seed
				ev, err := RunScenarioMode(&evSC, ModeEvent)
				if err != nil {
					t.Fatalf("seed %q event: %v", seed, err)
				}

				if lock.Ticks != ev.Ticks {
					t.Errorf("seed %q: ticks diverged: lockstep %d event %d",
						seed, lock.Ticks, ev.Ticks)
				}
				if lock.SimSeconds != ev.SimSeconds {
					t.Errorf("seed %q: sim seconds diverged: lockstep %v event %v",
						seed, lock.SimSeconds, ev.SimSeconds)
				}
				if lt, et := lock.Trace(), ev.Trace(); lt != et {
					t.Errorf("seed %q: trace diverged at %s", seed, firstDiff(lt, et))
				}
				if lv, evv := violationLines(lock), violationLines(ev); lv != evv {
					t.Errorf("seed %q: violations diverged at %s", seed, firstDiff(lv, evv))
				}
			}
		})
	}
}

// TestEventModeLeapsDutyCycle guards against the equivalence suite
// passing vacuously: the event runner must actually be event-driven, not
// a lockstep clone. The duty-cycle scenario holds parked for 10 minutes;
// if the run completes with bit-identical results (checked above), the
// only way it can also be cheap is if the holds were leapt. Here we just
// pin the structural signal: the scenario's tick count covers the holds.
func TestEventModeLeapsDutyCycle(t *testing.T) {
	res, err := RunScenarioMode(dutyCycle(), ModeEvent)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("duty-cycle violated invariants: %v", res.Violations)
	}
	if min := holdTicks(600); res.Ticks < min {
		t.Fatalf("duty-cycle ran %d ticks; pre-flight hold alone is %d", res.Ticks, min)
	}
}

// TestEventModeFaultDuringHold aims two faults into the post-flight
// ground hold — one anchored on liftoff, one on the first dwell grant —
// so the event runner must schedule fault wakeups mid-hold, step the
// squall (a parked drone in wind is not idle), and resume leaping after
// it expires, all while staying bit-identical to lockstep. This is the
// hardest equivalence case: a missing or misplaced wakeup fires the
// fault on the wrong tick and diverges the trace.
func TestEventModeFaultDuringHold(t *testing.T) {
	base := ByName("duty-cycle")
	sc := *base
	sc.Name = "duty-cycle-squall-hold"
	sc.Seed = "squall-hold-1"
	sc.HoldBeforeS = 30
	sc.HoldAfterS = 180
	sc.Faults = []Fault{
		{Kind: FaultWind, From: "start", AtS: 150, WindN: 6, WindE: -4, GustStd: 1.5, WindForS: 20},
		{Kind: FaultWind, From: "dwell", AtS: 120, WindN: -3, WindE: 5, GustStd: 1.0, WindForS: 10},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}

	lockSC, evSC := sc, sc
	lock, err := RunScenarioMode(&lockSC, ModeLockstep)
	if err != nil {
		t.Fatalf("lockstep: %v", err)
	}
	ev, err := RunScenarioMode(&evSC, ModeEvent)
	if err != nil {
		t.Fatalf("event: %v", err)
	}

	if lock.Ticks != ev.Ticks {
		t.Errorf("ticks: lockstep %d, event %d", lock.Ticks, ev.Ticks)
	}
	if lt, et := lock.Trace(), ev.Trace(); lt != et {
		t.Errorf("traces differ: %s", firstDiff(lt, et))
	}
	if lv, evl := violationLines(lock), violationLines(ev); lv != evl {
		t.Errorf("violations differ: %s", firstDiff(lv, evl))
	}

	// Non-vacuity: both squalls actually fired, and after the flight was
	// over — i.e. inside the post-landing hold, where only a scheduled
	// wakeup can place them.
	landed := -1
	var faults []int
	for _, e := range lock.Events {
		switch e.Kind {
		case "landed":
			landed = e.Tick
		case "fault":
			faults = append(faults, e.Tick)
		}
	}
	if landed < 0 {
		t.Fatal("no landed event in lockstep trace")
	}
	if len(faults) != 2 {
		t.Fatalf("want 2 fault events, got %d", len(faults))
	}
	for _, ft := range faults {
		if ft <= landed {
			t.Errorf("fault at tick %d fired before landing (tick %d); not a during-hold fault", ft, landed)
		}
	}
}

// TestEventModeLeapsPostFlightHold guards the post-flight leap against
// passing vacuously: after landing, the attitude estimate keeps settling
// for the whole hold, and the event runner must still leap it (replaying
// the estimate) rather than step every tick — while staying identical to
// lockstep.
func TestEventModeLeapsPostFlightHold(t *testing.T) {
	sc := *dutyCycle()
	sc.HoldAfterS = 600
	lockSC, evSC := sc, sc
	lock, err := RunScenarioMode(&lockSC, ModeLockstep)
	if err != nil {
		t.Fatalf("lockstep: %v", err)
	}
	r, err := newModeRunner(&evSC, ModeEvent, nil)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := r.Run()
	if err != nil {
		t.Fatalf("event: %v", err)
	}

	if lock.Ticks != ev.Ticks {
		t.Errorf("ticks: lockstep %d, event %d", lock.Ticks, ev.Ticks)
	}
	if lt, et := lock.Trace(), ev.Trace(); lt != et {
		t.Errorf("traces differ: %s", firstDiff(lt, et))
	}
	if lv, evl := violationLines(lock), violationLines(ev); lv != evl {
		t.Errorf("violations differ: %s", firstDiff(lv, evl))
	}

	// The post-flight hold is the run's last hold.
	hold := holdTicks(sc.HoldAfterS)
	t.Logf("event mode stepped %d of %d post-flight hold ticks", r.holdStepped, hold)
	if r.holdStepped*20 >= hold {
		t.Errorf("event mode stepped %d of %d post-flight hold ticks, want < 5%%", r.holdStepped, hold)
	}
}

// TestEventModeSoak24h runs 24 simulated hours of duty cycle — 23 hours
// parked before a short flight, one hour after — in event mode. Every
// checker must pass, and the live heap of the finished runner may not
// exceed that of the 10-minute builtin by more than 64 KiB: nothing in
// the drone grows with time parked. The event runner leaps both holds,
// so the run is cheap; the lockstep equivalence of both leap kinds is
// covered by the tests above and by core's TestBulkAdvance tests.
func TestEventModeSoak24h(t *testing.T) {
	liveHeap := func(sc *Scenario) (uint64, *Result, *Runner) {
		t.Helper()
		r, err := newModeRunner(sc, ModeEvent, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run()
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtime.KeepAlive(r)
		return ms.HeapAlloc, res, r
	}

	base, _, _ := liveHeap(dutyCycle())

	sc := dutyCycle()
	sc.Name = "duty-cycle-24h"
	sc.HoldBeforeS = 82800
	sc.HoldAfterS = 3600
	sc.MaxTicks = holdTicks(sc.HoldBeforeS) + 12000 // the flight's budget starts after the hold
	start := time.Now()
	soak, res, r := liveHeap(sc)
	t.Logf("24 h duty cycle: %d ticks in %v; live heap %d B vs %d B for the 10-minute builtin",
		res.Ticks, time.Since(start), soak, base)

	if !res.Passed() {
		t.Fatalf("24 h duty cycle violated invariants: %v", res.Violations)
	}
	if min := holdTicks(sc.HoldBeforeS) + holdTicks(sc.HoldAfterS); res.Ticks < min {
		t.Fatalf("ran %d ticks; the holds alone are %d", res.Ticks, min)
	}
	var reached, landed bool
	for _, e := range res.Events {
		reached = reached || e.Kind == "reached"
		landed = landed || e.Kind == "landed"
	}
	if !reached || !landed {
		t.Fatalf("the flight between the holds did not happen (reached %v, landed %v)", reached, landed)
	}
	if hold := holdTicks(sc.HoldAfterS); r.holdStepped*20 >= hold {
		t.Errorf("event mode stepped %d of %d post-flight hold ticks, want < 5%%", r.holdStepped, hold)
	}
	if soak > base+64<<10 {
		t.Errorf("live heap grew with time parked: %d B after 24 h vs %d B after 10 min", soak, base)
	}
}
