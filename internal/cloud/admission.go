package cloud

import (
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"time"

	"androne/internal/telemetry"
)

// Admission control is the portal's front door (ROADMAP item 2): per-tenant
// token buckets bound each tenant's request rate, and a bounded in-service
// queue bounds total concurrency. Requests past either bound are shed with
// 429 + Retry-After instead of queuing without limit — under overload the
// portal answers some requests fast and refuses the rest cheaply, rather
// than answering all of them late. One flooding tenant exhausts its own
// bucket, not the service: the isolation contract is pinned by
// TestFloodingTenantDoesNotRaiseVictimP99 (internal/loadgen).

// TenantHeader carries the tenant identity on portal requests. Admission
// falls back to the user query parameter, then to "anon" — so unauthenticated
// probes share one bucket instead of each minting a fresh one.
const TenantHeader = "X-Androne-User"

// RateLimiter applies a token bucket per tenant: capacity burst, refilled
// at rate tokens/second, one token per request. The zero rate disables
// limiting. The clock is injectable so refill arithmetic is testable
// without sleeping.
type RateLimiter struct {
	rate  float64
	burst float64
	now   func() time.Time

	mu      sync.Mutex
	buckets map[string]*tokenBucket
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

// NewRateLimiter builds a limiter; now may be nil for the wall clock.
func NewRateLimiter(rate, burst float64, now func() time.Time) *RateLimiter {
	if now == nil {
		now = time.Now
	}
	return &RateLimiter{rate: rate, burst: burst, now: now,
		buckets: make(map[string]*tokenBucket)}
}

// Allow consumes one token from tenant's bucket, reporting false when the
// bucket is dry. New tenants start with a full burst.
func (l *RateLimiter) Allow(tenant string) bool {
	return l.allowAt(tenant, l.now())
}

// allowAt is Allow at time now, read from the limiter's clock.
func (l *RateLimiter) allowAt(tenant string, now time.Time) bool {
	if l.rate <= 0 {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[tenant]
	if !ok {
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Tokens reports tenant's current balance without refilling — a test hook.
func (l *RateLimiter) Tokens(tenant string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if b, ok := l.buckets[tenant]; ok {
		return b.tokens
	}
	return l.burst
}

// AdmissionConfig tunes the front door. Zero values take the defaults
// noted per field.
type AdmissionConfig struct {
	// RatePerTenant is each tenant's sustained requests/second (default
	// 200; <0 disables rate limiting).
	RatePerTenant float64
	// Burst is each tenant's bucket capacity (default 2×rate).
	Burst float64
	// MaxInFlight bounds requests being served at once (default 64).
	MaxInFlight int
	// MaxQueued bounds requests waiting for an in-flight slot; arrivals
	// beyond it are shed immediately (default 256).
	MaxQueued int
	// MaxWait is how long a queued request waits for a slot before being
	// shed (default 250ms).
	MaxWait time.Duration
	// RetryAfter is the hint sent with 429 responses (default 1s).
	RetryAfter time.Duration
	// Now is the test clock (nil = wall clock). Admission reads it once
	// per request, for the token bucket and the latency start, and once
	// more when the request is done, so the latency histograms record
	// this clock's durations.
	Now func() time.Time
}

// Admission is the portal's admission-control middleware.
type Admission struct {
	limiter     *RateLimiter
	maxInFlight int
	maxQueued   int
	maxWait     time.Duration
	retryAfter  time.Duration

	mu       sync.Mutex
	inFlight int
	// waiters queue, first come first served, for an in-flight slot. A
	// release hands its slot to waiters[0] through its 1-buffered channel
	// instead of freeing it.
	waiters []chan struct{}
}

// NewAdmission builds the middleware from cfg.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.RatePerTenant == 0 {
		cfg.RatePerTenant = 200
	}
	if cfg.Burst == 0 {
		cfg.Burst = 2 * cfg.RatePerTenant
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 64
	}
	if cfg.MaxQueued == 0 {
		cfg.MaxQueued = 256
	}
	if cfg.MaxWait == 0 {
		cfg.MaxWait = 250 * time.Millisecond
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = time.Second
	}
	return &Admission{
		limiter:     NewRateLimiter(cfg.RatePerTenant, cfg.Burst, cfg.Now),
		maxInFlight: cfg.MaxInFlight,
		maxQueued:   cfg.MaxQueued,
		maxWait:     cfg.MaxWait,
		retryAfter:  cfg.RetryAfter,
	}
}

// TenantOf extracts the tenant identity from a request.
func TenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	if t := queryValue(r.URL.RawQuery, "user"); t != "" {
		return t
	}
	return "anon"
}

// queryValue returns url.ParseQuery(rawQuery).Get(key) without building
// the map: the first value of key among the &-separated pairs, unescaped
// as ParseQuery unescapes it. Pairs ParseQuery drops (those with a
// semicolon, or a bad escape in key or value) are skipped. A pair without
// escapes is compared and returned without allocating.
func queryValue(rawQuery, key string) string {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// endpointOf classifies a request for the per-endpoint latency histograms.
// (Manual classification: http.Request.Pattern needs a newer Go than the
// module targets.)
func endpointOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/api/apps", strings.HasPrefix(p, "/api/apps/"):
		return "apps"
	case p == "/api/orders":
		return "orders"
	case strings.HasPrefix(p, "/api/orders/"):
		return "order"
	case strings.HasPrefix(p, "/api/files/"):
		return "files"
	case p == "/api/vdr":
		return "vdr"
	default:
		return "other"
	}
}

// acquire takes an in-flight slot, waiting up to maxWait in the bounded
// queue. It reports false when the request must be shed.
func (a *Admission) acquire() bool {
	a.mu.Lock()
	if a.inFlight < a.maxInFlight {
		a.inFlight++
		a.mu.Unlock()
		return true
	}
	if len(a.waiters) >= a.maxQueued {
		a.mu.Unlock()
		return false
	}
	ready := make(chan struct{}, 1)
	a.waiters = append(a.waiters, ready)
	a.mu.Unlock()

	t := time.NewTimer(a.maxWait)
	defer t.Stop()
	select {
	case <-ready:
		return true
	case <-t.C:
	}
	a.mu.Lock()
	if i := slices.Index(a.waiters, ready); i >= 0 {
		a.waiters = slices.Delete(a.waiters, i, i+1)
		a.mu.Unlock()
		return false
	}
	a.mu.Unlock()
	// A release handed this request a slot as its wait ran out: pass the
	// slot on.
	<-ready
	a.release()
	return false
}

// release frees an in-flight slot, or hands it to the longest waiter.
func (a *Admission) release() {
	a.mu.Lock()
	if len(a.waiters) == 0 {
		a.inFlight--
		a.mu.Unlock()
		return
	}
	next := a.waiters[0]
	a.waiters[0] = nil
	a.waiters = a.waiters[1:]
	a.mu.Unlock()
	next <- struct{}{} // never blocks: next was dequeued once, and holds one
}

func (a *Admission) shed(w http.ResponseWriter, reason string) {
	w.Header().Set("Retry-After", fmt.Sprintf("%d", int(a.retryAfter.Seconds()+0.5)))
	WriteJSON(w, http.StatusTooManyRequests,
		map[string]string{"error": "overloaded: " + reason + ", retry later"})
}

// admit runs r through the tenant's token bucket, then the bounded queue.
// A request shed by either is answered 429 and admit reports false; an
// admitted one holds an in-flight slot until done. The clock is read once,
// for the bucket and for start, the time done measures latency from.
func (a *Admission) admit(w http.ResponseWriter, r *http.Request) (start time.Time, ok bool) {
	start = a.limiter.now()
	if !a.limiter.allowAt(TenantOf(r), start) {
		mShedRate.Inc()
		a.shed(w, "tenant rate limit")
		return start, false
	}
	if !a.acquire() {
		mShedQueue.Inc()
		a.shed(w, "service queue full")
		return start, false
	}
	return start, true
}

// done releases an admitted request's slot and times it, from start, in
// its endpoint's latency histogram lat (nil: not timed). Wrap and a route
// table share admit and done as their one admit path.
func (a *Admission) done(lat *telemetry.Histogram, start time.Time) {
	a.release()
	mAdmitted.Inc()
	if lat != nil {
		lat.Observe(a.limiter.now().Sub(start).Seconds())
	}
}

// Wrap applies admission control around next: token bucket per tenant,
// then the bounded queue, then per-endpoint latency accounting, the
// endpoint named by endpointOf. A route table admits its rows itself.
func (a *Admission) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lat := mEndpointLatency[endpointOf(r)]
		start, ok := a.admit(w, r)
		if !ok {
			return
		}
		next.ServeHTTP(w, r)
		a.done(lat, start)
	})
}
