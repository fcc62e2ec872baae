package flight

import (
	"math"
	"sync"
)

// Sample is one flight log record: the controller's attitude estimate and,
// when available, the canonical (ground-truth) attitude.
type Sample struct {
	T                            float64 // seconds since boot
	EstRoll, EstPitch, EstYaw    float64
	TrueRoll, TruePitch, TrueYaw float64
	HasTruth                     bool
}

// Log is a flight log, the input to the Attitude Estimate Divergence
// analyzer the paper uses (DroneKit Log Analyzer) to show that virtual
// drone workloads do not destabilize the drone. It keeps every sample, so
// every flying caller attaches an AEDMonitor instead; Log and AnalyzeAED
// remain only as test oracles, the one TestAEDMonitorMatchesLog checks the
// monitor against in particular.
type Log struct {
	mu      sync.Mutex
	samples []Sample
}

// NewLog creates an empty flight log.
func NewLog() *Log { return &Log{} }

func (l *Log) add(s Sample) {
	l.mu.Lock() //vet:allow hotpath Log is a test-only oracle; no production caller attaches one (they attach the lock-free AEDMonitor), 0 allocs pinned by core.TestDroneStepZeroAlloc
	defer l.mu.Unlock()
	l.samples = append(l.samples, s)
}

func (l *Log) setTruth(roll, pitch, yaw float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return
	}
	s := &l.samples[len(l.samples)-1]
	s.TrueRoll, s.TruePitch, s.TrueYaw = roll, pitch, yaw
	s.HasTruth = true
}

// Samples returns a copy of the recorded samples.
func (l *Log) Samples() []Sample {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Sample(nil), l.samples...)
}

// Len returns the number of samples.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.samples)
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

// AnalyzeAED runs the Attitude Estimate Divergence analysis over the log.
func AnalyzeAED(l *Log) AEDResult {
	f := newAEDFold()
	for _, s := range l.Samples() {
		f.add(s)
	}
	return f.result()
}

// aedFold is the AED analysis as a left fold over samples: the one
// implementation behind both AnalyzeAED and AEDMonitor.
type aedFold struct {
	res            AEDResult
	excursionStart float64 // T of the open excursion, -1 when none
}

func newAEDFold() aedFold { return aedFold{excursionStart: -1} }

func (f *aedFold) add(s Sample) {
	if !s.HasTruth {
		return
	}
	div := math.Max(angDiffDeg(s.EstRoll, s.TrueRoll),
		math.Max(angDiffDeg(s.EstPitch, s.TruePitch), angDiffDeg(s.EstYaw, s.TrueYaw)))
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

func (f *aedFold) result() AEDResult {
	res := f.res
	res.Pass = !(res.LongestExcursionS > AEDThresholdSec)
	return res
}

// AEDMonitor computes the AED verdict while the vehicle flies, in O(1)
// memory: each sample is folded in when the next one arrives, after
// RecordTruth has attached its ground truth. Its result equals AnalyzeAED
// over a Log fed the same samples. It has no lock: the goroutine that
// steps the controller owns it, and reads Result between steps.
type AEDMonitor struct {
	fold       aedFold
	pending    Sample
	hasPending bool
}

// NewAEDMonitor creates a monitor that has seen no samples.
func NewAEDMonitor() *AEDMonitor { return &AEDMonitor{fold: newAEDFold()} }

func (m *AEDMonitor) add(s Sample) {
	if m.hasPending {
		m.fold.add(m.pending)
	}
	m.pending, m.hasPending = s, true
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
		f.add(m.pending)
	}
	return f.result()
}

func angDiffDeg(a, b float64) float64 {
	return math.Abs(wrapPi(a-b)) * 180 / math.Pi
}
