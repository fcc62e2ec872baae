//go:build !race

// Overhead guardrails for the flight-recorder hot path. These assertions
// are about the recorder's own cost, so they are skipped under the race
// detector (whose instrumentation multiplies atomics cost) and use
// allocation counts plus generous min-of-trials wall-clock bounds rather
// than tight ratios, to stay honest on loaded CI machines. The committed
// BENCH_baseline.json carries the precise enabled-vs-disabled numbers.

package telemetry

import (
	"testing"
	"time"
)

// TestEmitZeroAlloc pins the core hot-path promise: once a drone's rings
// have committed their slots, Emit allocates nothing.
func TestEmitZeroAlloc(t *testing.T) {
	r := NewRecorderSized(256, 64)
	d, kind := K("alloc-probe"), K("test.op")
	for i := 0; i < 256; i++ {
		r.Emit(d, kind, 0, 0, "warm") // fill the global and drone rings
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Emit(d, kind, 1, 2, "steady")
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCounterZeroAlloc pins the metrics hot path.
func TestCounterZeroAlloc(t *testing.T) {
	c := NewCounterIn(NewRegistry(), "alloc_probe_total", "x")
	allocs := testing.AllocsPerRun(1000, func() { c.Inc() })
	if allocs != 0 {
		t.Fatalf("Counter.Inc allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEmitCostBudget bounds the absolute per-event cost. The DESIGN.md
// budget is ~100 ns/event on the instrumented paths; the test allows 2 µs
// so it only fails on a real regression (an allocation, a lock convoy, a
// syscall), never on scheduler noise.
func TestEmitCostBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	r := NewRecorderSized(1024, 256)
	d, kind := K("cost-probe"), K("test.op")
	r.Emit(d, kind, 0, 0, "warm")
	const iters = 50000
	best := time.Duration(1 << 62)
	for trial := 0; trial < 5; trial++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			r.Emit(d, kind, int64(i), 0, "steady")
		}
		if el := time.Since(start); el < best {
			best = el
		}
	}
	perOp := best / iters
	if perOp > 2*time.Microsecond {
		t.Fatalf("Emit costs %v/op, budget is 2µs", perOp)
	}
}

// TestDisabledEmitIsCheaper proves the SetEnabled(false) escape hatch:
// with telemetry off, Emit must degrade to (at most) a fraction of the
// enabled cost — it is a single atomic load and a branch.
func TestDisabledEmitIsCheaper(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	r := NewRecorderSized(1024, 256)
	d, kind := K("disabled-probe"), K("test.op")
	r.Emit(d, kind, 0, 0, "warm")
	const iters = 50000
	measure := func() time.Duration {
		best := time.Duration(1 << 62)
		for trial := 0; trial < 5; trial++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				r.Emit(d, kind, int64(i), 0, "steady")
			}
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return best
	}
	on := measure()
	SetEnabled(false)
	off := measure()
	SetEnabled(true)
	// Generous: disabled must not cost more than enabled plus noise.
	if off > on*2 {
		t.Fatalf("disabled emit (%v) slower than enabled (%v)", off, on)
	}
}
