package main

import (
	"reflect"
	"testing"
	"time"

	"androne/internal/fleet"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {21, 52}, {36, 72}, {100, 90},
		{1000, 99}, {4000, 99}, {9999, 99}, {10000, 99.9},
	}
	for _, c := range cases {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if got > 50 && c.n-rank(got, c.n) < minBeyond {
			t.Errorf("tailPercentile(%d) = %g leaves %d samples beyond it", c.n, got, c.n-rank(got, c.n))
		}
	}
}

func TestSummarize(t *testing.T) {
	ds := make([]time.Duration, 100)
	for i := range ds {
		ds[i] = time.Duration(100-i) * time.Millisecond // 100..1 ms, unsorted
	}
	s := summarize(ds, 0)
	if s.N != 100 || s.P50 != 50 || s.TailAt != 90 || s.Tail != 90 {
		t.Fatalf("summarize = %+v, want n=100 p50=50 p90=90", s)
	}
	// Four 250-sample windows of 1..1000 ms in order: each window's tail
	// is its p96 (240, 490, 740, 990 ms) and the tail is their median.
	ds = make([]time.Duration, 1000)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	if s := summarize(ds, 250); s.TailAt != 96 || s.Tail != 615 || s.P50 != 500 {
		t.Fatalf("summarize windows = %+v, want p50=500 p96 tail=615", s)
	}
}

// TestOpenLoopBillsStalls stalls one operation and checks that the
// operations due during the stall start late and are billed for the
// wait, and that no operation starts before its due time.
func TestOpenLoopBillsStalls(t *testing.T) {
	const stall = 30 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	var began [6]time.Time
	at := func(i int) time.Duration { return time.Duration(i) * time.Millisecond }
	took, late := runOpenLoop(start, len(began), genSpin, at,
		func(int) {},
		func(i int) {
			began[i] = time.Now()
			if i == 2 {
				time.Sleep(stall)
			}
		})
	lat := queueLatency(at, took)
	for i := range began {
		due := start.Add(time.Duration(i) * time.Millisecond)
		if began[i].Before(due) {
			t.Errorf("operation %d started %v before its due time", i, due.Sub(began[i]))
		}
		if late[i] < 0 || lat[i] < took[i] {
			t.Errorf("operation %d: late %v, took %v, latency %v", i, late[i], took[i], lat[i])
		}
	}
	if lat[2] < stall {
		t.Errorf("stalled operation latency %v, want >= %v", lat[2], stall)
	}
	// Operation 3 was due 1 ms after the stalled one started, so it
	// waited at least stall-1ms before it could start.
	for i := 3; i < len(began); i++ {
		if min := stall - time.Duration(i-2)*time.Millisecond; late[i] < min || lat[i] < min {
			t.Errorf("operation %d after the stall: late %v, latency %v, want both >= %v", i, late[i], lat[i], min)
		}
	}
}

// TestQueueLatency checks that a slow operation bills the ones queued
// behind it and no others.
func TestQueueLatency(t *testing.T) {
	ms := time.Millisecond
	at := func(i int) time.Duration { return time.Duration(i) * 10 * ms }
	got := queueLatency(at, []time.Duration{1 * ms, 25 * ms, 1 * ms, 2 * ms, 1 * ms})
	want := []time.Duration{1 * ms, 25 * ms, 16 * ms, 8 * ms, 1 * ms}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("queueLatency = %v, want %v", got, want)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	a, err := makeSchedule(7, 500, portalRate)
	if err != nil {
		t.Fatal(err)
	}
	b, err := makeSchedule(7, 500, portalRate)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	c, err := makeSchedule(8, 500, portalRate)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	var kinds [len(kindNames)]int
	var perTenant [len(kindNames)][portalTenants]int
	for i, r := range a {
		kinds[r.kind]++
		perTenant[r.kind][r.tenant]++
		if want := time.Duration(float64(i) / portalRate * float64(time.Second)); r.at != want {
			t.Fatalf("request %d due at %v, want %v", i, r.at, want)
		}
		if (r.kind == kindOrderPost) != (r.body != nil) {
			t.Fatalf("request %d (%s) has body %q", i, kindNames[r.kind], r.body)
		}
	}
	for k, n := range kinds {
		if want := 500 / 20 * kindBlock[k]; n != want {
			t.Errorf("%d %s requests in 500, want exactly %d", n, kindNames[k], want)
		}
		lo, hi := n, 0
		for _, c := range perTenant[k] {
			lo, hi = min(lo, c), max(hi, c)
		}
		if hi-lo > 1 {
			t.Errorf("%s requests per tenant range over %d..%d, want an even deal", kindNames[k], lo, hi)
		}
	}
}

// TestQuotaCheck checks that a run sized within the per-tenant order
// quota is accepted and one sized past it is refused before it starts.
func TestQuotaCheck(t *testing.T) {
	for _, c := range []struct {
		seconds int
		ok      bool
	}{{20, true}, {60, true}, {150, false}} {
		sched, err := makeSchedule(1, int(portalRate)*c.seconds, portalRate)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkQuota(sched); (err == nil) != c.ok {
			t.Errorf("--seconds %d: checkQuota = %v, want ok=%v", c.seconds, err, c.ok)
		}
	}
}

// TestSampledLayersSplitTheirBlock checks that sampled layers share the
// measured block time by their sampled means, and that a layer timed on
// every call keeps its own total.
func TestSampledLayersSplitTheirBlock(t *testing.T) {
	l := newLedger()
	for i := 0; i < 4; i++ {
		l.sample("a", clockCost+time.Microsecond)
		l.sample("b", clockCost+3*time.Microsecond)
	}
	l.block(clockCost + 800*time.Microsecond)
	l.add("c", clockCost+50*time.Microsecond)
	if a, b, c := l.selfTime("a"), l.selfTime("b"), l.selfTime("c"); a != 200*time.Microsecond || b != 600*time.Microsecond || c != 50*time.Microsecond {
		t.Fatalf("self times a=%v b=%v c=%v, want 200µs, 600µs, 50µs", a, b, c)
	}
	if got := l.attributed(); got != 850*time.Microsecond {
		t.Fatalf("attributed %v, want 850µs", got)
	}
}

func TestDroneSeedsAreSeeded(t *testing.T) {
	seeds := func(seed int64) []string {
		var out []string
		for k := 0; k < 3; k++ {
			for i := 0; i < 2; i++ {
				out = append(out, fleet.DroneSeed(roundSeed(seedString(seed), k, 0), i))
			}
		}
		return out
	}
	a, b, c := seeds(7), seeds(7), seeds(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different drone seeds")
	}
	seen := make(map[string]bool)
	for i := range a {
		if a[i] == c[i] {
			t.Errorf("seeds 7 and 8 share drone seed %s", a[i])
		}
		if seen[a[i]] {
			t.Errorf("drone seed %s repeats within a run", a[i])
		}
		seen[a[i]] = true
	}
}
