package cloud

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRateLimiterTable drives the token bucket over an injected clock
// through refill and burst edge cases — no sleeping, exact arithmetic.
func TestRateLimiterTable(t *testing.T) {
	base := time.Unix(1000, 0)
	cases := []struct {
		name  string
		rate  float64
		burst float64
		// steps: advance the clock by dt, call Allow n times, expect ok
		// admitted.
		steps []struct {
			dt time.Duration
			n  int
			ok int
		}
	}{
		{
			name: "burst-then-dry", rate: 10, burst: 3,
			steps: []struct {
				dt time.Duration
				n  int
				ok int
			}{
				{0, 5, 3}, // full burst admits 3, then dry
			},
		},
		{
			name: "exact-refill", rate: 10, burst: 3,
			steps: []struct {
				dt time.Duration
				n  int
				ok int
			}{
				{0, 3, 3},
				{100 * time.Millisecond, 2, 1}, // 0.1s * 10/s = exactly 1 token
				{50 * time.Millisecond, 1, 0},  // 0.5 tokens: under the whole-token bar
				{50 * time.Millisecond, 1, 1},  // the other half arrives
			},
		},
		{
			name: "refill-caps-at-burst", rate: 100, burst: 2,
			steps: []struct {
				dt time.Duration
				n  int
				ok int
			}{
				{0, 2, 2},
				{time.Hour, 5, 2}, // an idle hour never banks more than burst
			},
		},
		{
			name: "sustained-rate", rate: 5, burst: 1,
			steps: []struct {
				dt time.Duration
				n  int
				ok int
			}{
				{0, 1, 1},
				{200 * time.Millisecond, 1, 1},
				{200 * time.Millisecond, 1, 1},
				{0, 1, 0}, // same instant: no refill
			},
		},
		{
			name: "zero-rate-disables", rate: 0, burst: 0,
			steps: []struct {
				dt time.Duration
				n  int
				ok int
			}{
				{0, 100, 100},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			now := base
			l := NewRateLimiter(tc.rate, tc.burst, func() time.Time { return now })
			for i, st := range tc.steps {
				now = now.Add(st.dt)
				admitted := 0
				for j := 0; j < st.n; j++ {
					if l.Allow("tenant") {
						admitted++
					}
				}
				if admitted != st.ok {
					t.Fatalf("step %d: admitted %d of %d, want %d (balance %v)",
						i, admitted, st.n, st.ok, l.Tokens("tenant"))
				}
			}
		})
	}
}

// TestRateLimiterPerTenantBuckets checks one tenant draining its bucket
// leaves a fresh tenant's burst untouched.
func TestRateLimiterPerTenantBuckets(t *testing.T) {
	now := time.Unix(0, 0)
	l := NewRateLimiter(1, 2, func() time.Time { return now })
	for i := 0; i < 5; i++ {
		l.Allow("greedy")
	}
	if l.Allow("greedy") {
		t.Fatal("greedy should be dry")
	}
	if !l.Allow("modest") || !l.Allow("modest") {
		t.Fatal("modest tenant's burst was consumed by greedy")
	}
}

// TestAdmissionQueueOverflowSheds saturates MaxInFlight with parked
// handlers, then exceeds MaxQueued from many goroutines: the overflow must
// shed 429 with Retry-After, and releasing the parked handlers must drain
// everything with no goroutine stuck. Run under -race in CI.
func TestAdmissionQueueOverflowSheds(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{
		RatePerTenant: -1, // isolate the queue path from the rate limiter
		MaxInFlight:   2,
		MaxQueued:     3,
		MaxWait:       2 * time.Second,
		RetryAfter:    7 * time.Second,
	})
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	h := adm.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	}))

	var ok, shed atomic.Int64
	var wg sync.WaitGroup
	do := func(tenant string) {
		defer wg.Done()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/api/orders", nil)
		req.Header.Set(TenantHeader, tenant)
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK:
			ok.Add(1)
		case http.StatusTooManyRequests:
			shed.Add(1)
			if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra != 7 {
				t.Errorf("Retry-After = %q, want 7", rec.Header().Get("Retry-After"))
			}
		default:
			t.Errorf("status %d", rec.Code)
		}
	}

	// Fill both in-flight slots and wait until they are actually serving.
	wg.Add(2)
	go do("t-0")
	go do("t-1")
	<-entered
	<-entered

	// 8 more arrivals compete for 3 queue slots: at least 5 shed at once,
	// the rest drain when the parked handlers release.
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go do("t-" + strconv.Itoa(2+i))
	}
	for deadline := time.Now().Add(5 * time.Second); shed.Load() < 5; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d shed (want >= 5)", shed.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 3; i++ {
		<-entered // the queued requests get their turn
	}
	wg.Wait()
	if got := ok.Load() + shed.Load(); got != 10 {
		t.Fatalf("accounted %d of 10 requests (ok %d, shed %d)", got, ok.Load(), shed.Load())
	}
	if ok.Load() != 5 {
		t.Fatalf("ok = %d, want 5 (2 in flight + 3 queued)", ok.Load())
	}
}

// TestAdmissionMaxWaitSheds parks the only in-flight slot and checks a
// queued request is shed once MaxWait elapses instead of waiting forever.
func TestAdmissionMaxWaitSheds(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{
		RatePerTenant: -1,
		MaxInFlight:   1,
		MaxQueued:     4,
		MaxWait:       10 * time.Millisecond,
	})
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	h := adm.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
	}))
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/vdr", nil))
	}()
	<-entered

	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/vdr", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if waited := time.Since(start); waited < 10*time.Millisecond {
		t.Fatalf("shed after %v, before MaxWait", waited)
	}
	close(release)
}

// TestTenantOf pins the identity fallback chain: header, then user query
// parameter, then the shared anonymous bucket.
func TestTenantOf(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/api/orders?user=bob", nil)
	req.Header.Set(TenantHeader, "alice")
	if got := TenantOf(req); got != "alice" {
		t.Fatalf("header tenant = %q", got)
	}
	req.Header.Del(TenantHeader)
	if got := TenantOf(req); got != "bob" {
		t.Fatalf("query tenant = %q", got)
	}
	if got := TenantOf(httptest.NewRequest(http.MethodGet, "/api/orders", nil)); got != "anon" {
		t.Fatalf("anonymous tenant = %q", got)
	}
}

// TestEndpointClassification pins the endpoint labels the latency
// histograms are keyed by.
func TestEndpointClassification(t *testing.T) {
	cases := map[string]string{
		"/api/apps":              "apps",
		"/api/apps/com.x.y":      "apps",
		"/api/orders":            "orders",
		"/api/orders/ord-03-000": "order",
		"/api/files/alice/a.jpg": "files",
		"/api/vdr":               "vdr",
		"/metrics":               "other",
	}
	for path, want := range cases {
		if got := endpointOf(httptest.NewRequest(http.MethodGet, path, nil)); got != want {
			t.Errorf("endpointOf(%s) = %q, want %q", path, got, want)
		}
	}
}

// queued reports how many requests wait for an in-flight slot.
func (a *Admission) queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.waiters)
}

// TestAdmissionServesQueueInOrder parks the only in-flight slot, queues
// three requests one after another, and checks that each release hands
// the slot to the longest waiter.
func TestAdmissionServesQueueInOrder(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{RatePerTenant: -1, MaxInFlight: 1, MaxQueued: 3, MaxWait: 5 * time.Second})
	release := make(chan struct{})
	entered := make(chan string)
	h := adm.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- TenantOf(r)
		<-release
	}))
	var wg sync.WaitGroup
	do := func(tenant string) {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodGet, "/api/vdr", nil)
		req.Header.Set(TenantHeader, tenant)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	wg.Add(1)
	go do("first")
	<-entered
	for i, tenant := range []string{"q1", "q2", "q3"} {
		wg.Add(1)
		go do(tenant)
		for adm.queued() != i+1 {
			time.Sleep(time.Millisecond)
		}
	}
	for _, want := range []string{"q1", "q2", "q3"} {
		release <- struct{}{}
		if got := <-entered; got != want {
			t.Fatalf("slot went to %s, want %s", got, want)
		}
	}
	release <- struct{}{}
	wg.Wait()
	if adm.inFlight != 0 || adm.queued() != 0 {
		t.Fatalf("after the queue drained: %d in flight, %d queued", adm.inFlight, adm.queued())
	}
}

// TestAdmissionLateHandoffPassesSlotOn times a waiter out while a release
// is handing it the slot: the waiter is shed and passes the slot on, so
// no slot leaks.
func TestAdmissionLateHandoffPassesSlotOn(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{RatePerTenant: -1, MaxInFlight: 1, MaxQueued: 1, MaxWait: 50 * time.Millisecond})
	if !adm.acquire() {
		t.Fatal("free slot refused")
	}
	got := make(chan bool)
	go func() { got <- adm.acquire() }()
	for adm.queued() != 1 {
		runtime.Gosched()
	}
	// Hold the lock past MaxWait, so the waiter's timer fires before it
	// can look for itself in the queue, then release as release does.
	adm.mu.Lock()
	time.Sleep(100 * time.Millisecond)
	next := adm.waiters[0]
	adm.waiters = adm.waiters[1:]
	adm.mu.Unlock()
	next <- struct{}{}
	if <-got {
		t.Fatal("waiter admitted after MaxWait")
	}
	if adm.inFlight != 0 {
		t.Fatalf("%d slots in flight after the handoff was passed on, want 0", adm.inFlight)
	}
	if !adm.acquire() {
		t.Fatal("slot leaked")
	}
}

// TestAdmissionSlotsUnderContention races admitted requests through two
// slots and a queue deep enough for all of them (run it under -race):
// requests take free slots, and hand them on in FIFO order while somebody
// waits. No more than two requests may ever be served at once, none may
// be shed, and once every request is done no slot may stay held or
// queued.
func TestAdmissionSlotsUnderContention(t *testing.T) {
	const workers, rounds = 8, 200
	adm := NewAdmission(AdmissionConfig{RatePerTenant: -1, MaxInFlight: 2, MaxQueued: workers, MaxWait: time.Minute})
	var serving, most atomic.Int64
	h := adm.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := serving.Add(1)
		for m := most.Load(); n > m && !most.CompareAndSwap(m, n); m = most.Load() {
		}
		runtime.Gosched()
		serving.Add(-1)
	}))
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/vdr", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("status %d", rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if m := most.Load(); m > 2 {
		t.Fatalf("%d requests served at once through 2 slots", m)
	}
	if adm.inFlight != 0 || adm.queued() != 0 {
		t.Fatalf("after every request: %d in flight, %d queued", adm.inFlight, adm.queued())
	}
}

// TestAdmissionReadsClockOnce counts an injected clock's reads: an
// admitted request reads it once for its bucket and latency start and
// once when done; a request shed by its bucket reads it once.
func TestAdmissionReadsClockOnce(t *testing.T) {
	reads := 0
	at := time.Unix(1700000000, 0)
	adm := NewAdmission(AdmissionConfig{RatePerTenant: 1, Burst: 1, Now: func() time.Time {
		reads++
		return at
	}})
	h := adm.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	for _, c := range []struct {
		status, reads int
	}{{http.StatusOK, 2}, {http.StatusTooManyRequests, 1}} {
		reads = 0
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/apps", nil))
		if rec.Code != c.status || reads != c.reads {
			t.Fatalf("status %d after %d clock reads, want %d after %d", rec.Code, reads, c.status, c.reads)
		}
	}
}

// FuzzQueryValue holds queryValue to url.ParseQuery(raw).Get(key).
func FuzzQueryValue(f *testing.F) {
	for _, raw := range []string{"", "user=bob", "a=1&user=bob&user=eve", "user", "user=", "&&user=b%20o+b",
		"us%65r=x", "user=%zz&user=ok", "user=a;b&user=c", "%zz=1&user=2", "x=1;user=2&user=3", "user=%", "=user"} {
		f.Add(raw, "user")
	}
	f.Fuzz(func(t *testing.T, raw, key string) {
		want, _ := url.ParseQuery(raw)
		if got := queryValue(raw, key); got != want.Get(key) {
			t.Fatalf("queryValue(%q, %q) = %q, url.ParseQuery's %q", raw, key, got, want.Get(key))
		}
	})
}
