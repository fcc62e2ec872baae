package bench

import (
	"hash/fnv"

	"androne/internal/flight"
	"androne/internal/mavlink"
	"androne/internal/rtos"
)

// JitterResult couples Figure 11's scheduling latencies back into flight
// stability: a hover where fast-loop cycles whose wakeup latency exceeded
// the 2,500 µs period are skipped (the loop overran), then analyzed with
// the AED criterion — the mechanism behind §6.2's claim that "occasionally
// missing ArduPilot's fast loop deadline will not cause significant
// stability issues".
type JitterResult struct {
	Scenario    rtos.Scenario
	Cycles      int
	MissedLoops int
	AED         flight.AEDResult
}

// HoverUnderSchedulingLatency hovers for the given sim seconds while the
// controller's wakeups experience the scenario's latency distribution.
func HoverUnderSchedulingLatency(sc rtos.Scenario, seconds float64, seed string) (JitterResult, error) {
	sampler := rtos.NewSampler(sc, seed)
	return hoverWithMisses(seconds, seed, func() bool {
		return sampler.Next() > rtos.ArduPilotDeadlineUs
	})
}

// HoverWithLoopMissProb hovers while each control cycle is skipped with the
// given probability — the synthetic boundary case showing when loop misses
// do destabilize the vehicle.
func HoverWithLoopMissProb(missProb, seconds float64, seed string) (JitterResult, error) {
	r := newXorshift(seed)
	return hoverWithMisses(seconds, seed, func() bool {
		return r.uniform() < missProb
	})
}

func hoverWithMisses(seconds float64, seed string, miss func() bool) (JitterResult, error) {
	mon := flight.NewAEDMonitor()
	v := flight.NewVehicle(benchHome, "jitter/"+seed, flight.WithAEDMonitor(mon))
	// Gusty wind makes the hover demand active control, so missed control
	// cycles have a consequence to measure.
	v.Sim.SetWind(3, -2, 1.2)
	v.StepSeconds(0.1)
	c := v.Controller
	if err := c.SetModeNum(mavlink.ModeGuided); err != nil {
		return JitterResult{}, err
	}
	if err := c.Arm(); err != nil {
		return JitterResult{}, err
	}
	if err := c.Takeoff(12); err != nil {
		return JitterResult{}, err
	}
	v.RunUntil(func() bool { return v.Sim.AltitudeAGL() > 11.5 }, 30)

	res := JitterResult{}
	steps := int(seconds * flight.FastLoopHz)
	for i := 0; i < steps; i++ {
		v.Sim.Step(flight.FastLoopDT)
		res.Cycles++
		if miss() {
			// The controller overran this period: sensors age, motors hold
			// their last commands.
			res.MissedLoops++
			continue
		}
		c.Step(flight.FastLoopDT)
		r, p, y := v.Sim.Attitude()
		c.RecordTruth(r, p, y)
	}
	res.AED = mon.Result()
	return res, nil
}

// xorshift is a tiny local uniform source (bench-only).
type xorshift struct{ state uint64 }

func newXorshift(seed string) *xorshift {
	h := fnv.New64a()
	h.Write([]byte(seed))
	s := h.Sum64()
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &xorshift{state: s}
}

func (x *xorshift) uniform() float64 {
	x.state ^= x.state << 13
	x.state ^= x.state >> 7
	x.state ^= x.state << 17
	return (float64(x.state>>11) + 0.5) / (1 << 53)
}
