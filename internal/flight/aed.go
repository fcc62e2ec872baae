package flight

import (
	"math"

	"androne/internal/detmath"
)

// Sample is one fast-loop record for the Attitude Estimate Divergence
// analysis: the controller's attitude estimate and, when available, the
// canonical (ground-truth) attitude.
type Sample struct {
	T                            float64 // seconds since boot
	EstRoll, EstPitch, EstYaw    float64
	TrueRoll, TruePitch, TrueYaw float64
	HasTruth                     bool
}

// AEDResult is the Attitude Estimate Divergence verdict: the flight is
// unstable if yaw, pitch, or roll diverges more than ThresholdDeg from the
// canonical attitude for longer than ThresholdSec.
type AEDResult struct {
	MaxDivergenceDeg  float64
	LongestExcursionS float64
	Pass              bool
}

// AED analyzer thresholds (DroneKit Log Analyzer defaults cited in §6.2).
const (
	AEDThresholdDeg = 5.0
	AEDThresholdSec = 0.5
)

// aedFold is the AED analysis as a left fold over samples: the one
// implementation behind AEDMonitor (and the test-only AnalyzeAED oracle).
type aedFold struct {
	res            AEDResult
	excursionStart float64 // T of the open excursion, -1 when none
}

func newAEDFold() aedFold { return aedFold{excursionStart: -1} }

func (f *aedFold) add(s *Sample) {
	if !s.HasTruth {
		return
	}
	div := divergenceDeg(s)
	if div > f.res.MaxDivergenceDeg {
		f.res.MaxDivergenceDeg = div
	}
	if div > AEDThresholdDeg {
		if f.excursionStart < 0 {
			f.excursionStart = s.T
		}
		if dur := s.T - f.excursionStart; dur > f.res.LongestExcursionS {
			f.res.LongestExcursionS = dur
		}
	} else {
		f.excursionStart = -1
	}
}

// divergenceDeg is the largest of s's three estimate errors, in degrees.
// The builtin max, not math.Max: the same result here (NaN wins, +0 beats
// −0, and a divergence is never +Inf) without the call. The max is taken
// in radians and converted once: x ↦ x·180/π rounds monotonically, so it
// commutes with max.
func divergenceDeg(s *Sample) float64 {
	return max(angDiffRad(s.EstRoll, s.TrueRoll), angDiffRad(s.EstPitch, s.TruePitch),
		angDiffRad(s.EstYaw, s.TrueYaw)) * 180 / math.Pi
}

func (f *aedFold) result() AEDResult {
	res := f.res
	res.Pass = !(res.LongestExcursionS > AEDThresholdSec)
	return res
}

// AEDMonitor computes the AED verdict while the vehicle flies, in O(1)
// memory: each sample is folded in when the next one arrives, after
// RecordTruth has attached its ground truth. Its result equals the
// test-only AnalyzeAED over a log of every sample. It has no lock: the
// goroutine that steps the controller owns it, and reads Result between
// steps.
type AEDMonitor struct {
	fold       aedFold
	pending    Sample
	hasPending bool
}

// NewAEDMonitor creates a monitor that has seen no samples.
func NewAEDMonitor() *AEDMonitor { return &AEDMonitor{fold: newAEDFold()} }

// add folds in the pending sample, in place, and makes the estimate at
// time t the pending one.
func (m *AEDMonitor) add(t, roll, pitch, yaw float64) {
	if m.hasPending {
		m.fold.add(&m.pending)
	}
	m.pending = Sample{T: t, EstRoll: roll, EstPitch: pitch, EstYaw: yaw}
	m.hasPending = true
}

func (m *AEDMonitor) setTruth(roll, pitch, yaw float64) {
	if !m.hasPending {
		return
	}
	m.pending.TrueRoll, m.pending.TruePitch, m.pending.TrueYaw = roll, pitch, yaw
	m.pending.HasTruth = true
}

// Result returns the verdict over every sample so far.
func (m *AEDMonitor) Result() AEDResult {
	f := m.fold
	if m.hasPending {
		f.add(&m.pending)
	}
	return f.result()
}

// angDiffRad is the absolute angle between a and b, in radians.
func angDiffRad(a, b float64) float64 {
	return math.Abs(detmath.WrapPi(a - b))
}
