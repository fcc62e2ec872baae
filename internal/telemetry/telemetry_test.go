package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestKeyInterning(t *testing.T) {
	a := K("drone-a")
	if a == 0 {
		t.Fatalf("K returned the reserved zero key")
	}
	if K("drone-a") != a {
		t.Fatalf("interning is not idempotent")
	}
	if got := KeyName(a); got != "drone-a" {
		t.Fatalf("KeyName = %q, want drone-a", got)
	}
	if got := KeyName(0); got != "" {
		t.Fatalf("KeyName(0) = %q, want empty", got)
	}
	if got := KeyName(Key(1 << 30)); got != "" {
		t.Fatalf("KeyName(unknown) = %q, want empty", got)
	}
}

func TestNilAndDisabledRecorder(t *testing.T) {
	var r *Recorder
	r.Emit(K("x"), K("y"), 1, 2, "nil-safe")
	r.SetTick(7)
	if r.Tick() != 0 || r.Snapshot(0) != nil || r.Records() != nil {
		t.Fatalf("nil recorder must be inert")
	}

	r = NewRecorder()
	SetEnabled(false)
	r.Emit(K("x"), K("y"), 1, 2, "dropped")
	SetEnabled(true)
	if got := len(r.Snapshot(0)); got != 0 {
		t.Fatalf("disabled Emit recorded %d events", got)
	}
}

func TestEmitSnapshotAndMerge(t *testing.T) {
	r := NewRecorderSized(16, 4)
	alice, bob := K("alice"), K("bob")
	kind := K("test.op")

	r.SetTick(3)
	r.Emit(0, K("sys.mode"), 4, 0, "loiter") // system-wide
	r.Emit(alice, kind, 1, 0, "")
	r.Emit(bob, kind, 2, 0, "")
	r.Emit(alice, kind, 3, 0, "")

	got := r.Snapshot(alice)
	if len(got) != 3 {
		t.Fatalf("alice snapshot has %d events, want 3 (2 own + 1 system)", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("snapshot not Seq-ordered: %+v", got)
		}
	}
	if got[0].Drone != 0 || got[0].Tick != 3 {
		t.Fatalf("first event should be the tick-3 system event, got %+v", got[0])
	}
	if len(r.Snapshot(0)) != 4 {
		t.Fatalf("global snapshot should hold all 4 events")
	}
}

func TestPerDroneRingIsolation(t *testing.T) {
	r := NewRecorderSized(8, 4)
	quiet, chatty := K("quiet"), K("chatty")
	kind := K("test.op")
	r.Emit(quiet, kind, 42, 0, "keep-me")
	for i := 0; i < 100; i++ {
		r.Emit(chatty, kind, int64(i), 0, "")
	}
	// The chatty drone evicted quiet's event from the global ring, but not
	// from quiet's own ring.
	got := r.Snapshot(quiet)
	if len(got) != 1 || got[0].A != 42 {
		t.Fatalf("quiet drone lost its history: %+v", got)
	}
	if own := r.Snapshot(chatty); len(own) != 4 {
		t.Fatalf("chatty ring should be capped at 4, got %d", len(own))
	}
}

// TestRingWrap checks that a ring keeps the newest min(n, capacity)
// events oldest first at every fill level — while its slots are still
// growing toward the cap (100 here: 16, 32, 64, then 100) and after it
// wraps — and that it commits no more slots than it holds events, up to
// the first 16.
func TestRingWrap(t *testing.T) {
	for _, capacity := range []int{4, 100} {
		r := NewRecorderSized(capacity, 4)
		for i := 0; i < 3*capacity; i++ {
			r.Emit(0, K("wrap"), int64(i), 0, "")
			got := r.Snapshot(0)
			want := min(i+1, capacity)
			if len(got) != want || got[0].A != int64(i+1-want) || got[want-1].A != int64(i) {
				t.Fatalf("cap %d after %d events: kept %d events %+v, want the last %d", capacity, i+1, len(got), got, want)
			}
			if slots := cap(r.global.buf); slots > max(ringFirstSlots, 2*want) || slots > capacity {
				t.Fatalf("cap %d after %d events: %d slots committed", capacity, i+1, slots)
			}
		}
	}
}

func TestDumpAndRecords(t *testing.T) {
	r := NewRecorderSized(32, 8)
	d := K("dumper")
	r.SetTick(11)
	r.Emit(d, K("test.op"), 5, 6, "hello")
	rec := r.Dump(d, "unit-test", map[string]float64{"tries": 3})
	if rec.Drone != "dumper" || rec.Trigger != "unit-test" || rec.Tick != 11 {
		t.Fatalf("bad record header: %+v", rec)
	}
	if rec.Meta["tries"] != 3 {
		t.Fatalf("meta lost: %+v", rec.Meta)
	}
	if len(rec.Events) != 1 || rec.Events[0].Kind != "test.op" ||
		rec.Events[0].Note != "hello" || rec.Events[0].A != 5 {
		t.Fatalf("bad decoded events: %+v", rec.Events)
	}

	for i := 0; i < maxRecords+10; i++ {
		r.Dump(d, "flood", nil)
	}
	if got := len(r.Records()); got != maxRecords {
		t.Fatalf("records not bounded: %d", got)
	}
	since := r.RecordsSince(rec.Seq)
	if len(since) != maxRecords {
		t.Fatalf("RecordsSince = %d, want %d", len(since), maxRecords)
	}
}

func TestParseRecords(t *testing.T) {
	single := []byte(`{"trigger":"t","tick":1,"seq":2,"events":[]}`)
	recs, err := ParseRecords(single)
	if err != nil || len(recs) != 1 || recs[0].Trigger != "t" {
		t.Fatalf("single parse: %v %+v", err, recs)
	}
	array := []byte(`[{"trigger":"a","events":[]},{"trigger":"b","events":[]}]`)
	recs, err = ParseRecords(array)
	if err != nil || len(recs) != 2 || recs[1].Trigger != "b" {
		t.Fatalf("array parse: %v %+v", err, recs)
	}
	if _, err := ParseRecords([]byte("  ")); err == nil {
		t.Fatalf("empty input should error")
	}
	if _, err := ParseRecords([]byte("{nope")); err == nil {
		t.Fatalf("bad json should error")
	}
}

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := NewCounterIn(reg, "test_counter_total", "a counter")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %g, want 3.5", got)
	}
	g := NewGaugeIn(reg, "test_gauge", "a gauge")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %g, want 6", got)
	}
	exp := reg.Exposition()
	for _, want := range []string{
		"# TYPE test_counter_total counter",
		"test_counter_total 3.5",
		"# TYPE test_gauge gauge",
		"test_gauge 6",
	} {
		if !strings.Contains(exp, want) {
			t.Fatalf("exposition missing %q:\n%s", want, exp)
		}
	}
	// Sorted by name: counter before gauge.
	if strings.Index(exp, "test_counter_total") > strings.Index(exp, "test_gauge") {
		t.Fatalf("exposition not sorted:\n%s", exp)
	}
}

func TestDisabledMetricsDropUpdates(t *testing.T) {
	reg := NewRegistry()
	c := NewCounterIn(reg, "test_disabled_total", "d")
	SetEnabled(false)
	c.Inc()
	SetEnabled(true)
	if c.Value() != 0 {
		t.Fatalf("disabled counter still counted")
	}
}

func TestHistogram(t *testing.T) {
	reg := NewRegistry()
	h := NewHistogramIn(reg, "test_latency_ns", "latency",
		ExponentialBounds(100, 10, 4)) // 100, 1000, 10000, 100000
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile should be 0")
	}
	for i := 0; i < 90; i++ {
		h.Observe(50) // bucket le=100
	}
	for i := 0; i < 9; i++ {
		h.Observe(5000) // bucket le=10000
	}
	h.Observe(1e9) // beyond last bound -> +Inf
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d", got)
	}
	if q := h.Quantile(0.5); q != 100 {
		t.Fatalf("p50 = %g, want 100", q)
	}
	if q := h.Quantile(0.99); q != 10000 {
		t.Fatalf("p99 = %g, want 10000", q)
	}
	if q := h.Quantile(1); !math.IsInf(q, 1) {
		t.Fatalf("p100 = %g, want +Inf", q)
	}
	exp := reg.Exposition()
	for _, want := range []string{
		`test_latency_ns{quantile="0.5"} 100`,
		"test_latency_ns_count 100",
	} {
		if !strings.Contains(exp, want) {
			t.Fatalf("exposition missing %q:\n%s", want, exp)
		}
	}
}

func TestDuplicateMetricPanics(t *testing.T) {
	reg := NewRegistry()
	NewCounterIn(reg, "dup_total", "x")
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate registration should panic")
		}
	}()
	NewCounterIn(reg, "dup_total", "y")
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("descending bounds should panic")
		}
	}()
	NewHistogramIn(NewRegistry(), "bad_bounds", "x", []float64{10, 5})
}

func TestConcurrentEmit(t *testing.T) {
	r := NewRecorderSized(64, 16)
	kind := K("race.op")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			d := K("worker")
			for i := 0; i < 200; i++ {
				r.Emit(d, kind, int64(id), int64(i), "")
			}
		}(w)
	}
	wg.Wait()
	if got := len(r.Snapshot(0)); got != 64 {
		t.Fatalf("global ring should be full: %d", got)
	}
}

func TestFlusher(t *testing.T) {
	r := NewRecorderSized(16, 8)
	got := make(chan []FlightRecord, 8)
	stop := r.StartFlusher(5*time.Millisecond, func(recs []FlightRecord) {
		got <- recs
	})
	defer stop()
	r.Emit(K("f"), K("test.op"), 1, 0, "")
	r.Dump(K("f"), "flush-me", nil)
	select {
	case recs := <-got:
		if len(recs) != 1 || recs[0].Trigger != "flush-me" {
			t.Fatalf("flusher delivered %+v", recs)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("flusher never delivered")
	}
	stop()
	stop() // idempotent
}
