// Package telemetry is AnDrone's flight recorder: an always-on,
// low-overhead observability subsystem for the virtual-drone stack.
//
// It has three planes:
//
//   - A trace Recorder: bounded, mutex-striped ring buffers (one global
//     ring plus one ring per drone) of tick-stamped Events. The hot path
//     allocates nothing in steady state — a ring commits its slots as it
//     fills, then events are written in place into them (the slots are
//     the event pool) — and all label strings are interned to small
//     integer Keys up front.
//   - A metrics registry (metrics.go): counters, gauges, and bounded
//     histograms with exported quantiles, surfaced as a text exposition.
//   - Black-box dumps (record.go): on an invariant violation, geofence
//     breach, permission revocation, or VDR save, Dump snapshots the last
//     N events for a drone into a JSON-serializable FlightRecord.
//
// Timestamps are simulation ticks, not wall clock: the owner of the
// Recorder (core.Drone) advances the tick as it steps the simulation, so
// identical seeds produce identical traces and FlightRecords. Callers must
// never emit while holding a production lock — Emit takes the recorder's
// own stripe locks, and the locksafe analyzer enforces the ordering.
package telemetry

import (
	"sync"
	"sync/atomic"
)

// Key is an interned label. Key 0 is the empty string and addresses the
// global (system-wide) scope when used as a drone label.
type Key uint32

var keyTab = struct {
	mu     sync.RWMutex
	byName map[string]Key
	names  []string
}{
	byName: map[string]Key{"": 0},
	names:  []string{""},
}

// K interns name and returns its Key. Interning is idempotent and safe for
// concurrent use; hot paths should intern once at construction time and
// emit with the cached Key.
func K(name string) Key {
	keyTab.mu.RLock()
	k, ok := keyTab.byName[name]
	keyTab.mu.RUnlock()
	if ok {
		return k
	}
	keyTab.mu.Lock()
	defer keyTab.mu.Unlock()
	if k, ok := keyTab.byName[name]; ok {
		return k
	}
	k = Key(len(keyTab.names))
	keyTab.names = append(keyTab.names, name)
	keyTab.byName[name] = k
	return k
}

// Lookup returns the Key for name without interning it — for callers
// handling untrusted input (HTTP query parameters) that must not grow the
// intern table.
func Lookup(name string) (Key, bool) {
	keyTab.mu.RLock()
	defer keyTab.mu.RUnlock()
	k, ok := keyTab.byName[name]
	return k, ok
}

// KeyName resolves an interned Key back to its string.
func KeyName(k Key) string {
	keyTab.mu.RLock()
	defer keyTab.mu.RUnlock()
	if int(k) >= len(keyTab.names) {
		return ""
	}
	return keyTab.names[k]
}

// enabled is the global kill switch. Telemetry is on by default
// ("always-on"); SetEnabled(false) exists for overhead A/B measurement and
// for callers that must run with zero observability cost.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns all recording and metric updates on or off.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether telemetry is recording.
func Enabled() bool { return enabled.Load() }

// Event is one trace record. A and B are event-specific operands (a
// command id, a pid, a millijoule count); Note is a short static string —
// emitters must pass constants or preformatted strings, never build one
// per event on a hot path.
type Event struct {
	Seq   uint64 // global emission order within one Recorder
	Tick  uint64 // simulation tick at emission time
	Kind  Key
	Drone Key // 0 = system-wide
	A, B  int64
	Note  string
}

// ring is a bounded circular event buffer. It does not lock itself; the
// owner (Recorder.gmu or a stripe mutex) serializes access. Its slots are
// committed as events arrive, doubling up to capacity, so a recorder
// holds what its drone emitted rather than capacity empty slots: a
// duty-cycle drone emits about 30 events into a 1024-slot global ring.
// Once full, put overwrites the oldest slot and allocates nothing.
type ring struct {
	buf      []Event // the min(n, capacity) newest events, wrapped
	capacity int
	n        uint64 // total events ever written
}

// ringFirstSlots is the slot count a ring commits on its first event.
const ringFirstSlots = 16

func newRing(capacity int) *ring { return &ring{capacity: capacity} } //vet:allow hotpath one-time lazy ring init per drone; amortized to zero

func (g *ring) put(ev Event) {
	if len(g.buf) == g.capacity {
		g.buf[g.n%uint64(g.capacity)] = ev
	} else {
		if len(g.buf) == cap(g.buf) {
			grown := make([]Event, len(g.buf), min(g.capacity, max(ringFirstSlots, 2*len(g.buf)))) //vet:allow hotpath slots double toward the cap: at most log2(cap/16)+1 allocations per ring, none once full
			copy(grown, g.buf)
			g.buf = grown
		}
		g.buf = append(g.buf, ev)
	}
	g.n++
}

// snapshot copies the buffered events oldest-first.
func (g *ring) snapshot() []Event {
	size := uint64(len(g.buf))
	count := g.n
	if count > size {
		count = size
	}
	out := make([]Event, 0, count)
	for i := g.n - count; i < g.n; i++ {
		out = append(out, g.buf[i%size])
	}
	return out
}

// nStripes is the number of lock stripes over the per-drone rings. A small
// power of two: a physical drone hosts a handful of virtual drones, so the
// goal is lock independence between drones, not massive fan-out.
const nStripes = 8

type stripe struct {
	mu    sync.Mutex
	rings map[Key]*ring
}

// Recorder is a per-physical-drone flight recorder: one global ring of all
// events plus a striped ring per drone label, a monotonic simulation tick,
// and the bounded list of black-box FlightRecords dumped so far.
type Recorder struct {
	seq  atomic.Uint64
	tick atomic.Uint64

	gmu    sync.Mutex
	global *ring

	stripes     [nStripes]stripe
	perDroneCap int

	rmu     sync.Mutex
	records []FlightRecord
}

// Ring sizing (see DESIGN.md "Telemetry & flight recorder"): the global
// ring holds the last ~100 s of a busy 8-virtual-drone flight at the
// harness's 10 Hz decision rate; per-drone rings hold the last ~25 s of
// one drone's own activity, which is what a black-box dump wants.
const (
	DefaultGlobalCap   = 1024
	DefaultPerDroneCap = 256
	maxRecords         = 64 // bounded black-box archive per Recorder
)

// NewRecorder returns a Recorder with the default ring sizes.
func NewRecorder() *Recorder {
	return NewRecorderSized(DefaultGlobalCap, DefaultPerDroneCap)
}

// NewRecorderSized returns a Recorder with explicit global and per-drone
// ring capacities.
func NewRecorderSized(globalCap, perDroneCap int) *Recorder {
	if globalCap < 1 {
		globalCap = 1
	}
	if perDroneCap < 1 {
		perDroneCap = 1
	}
	r := &Recorder{global: newRing(globalCap), perDroneCap: perDroneCap}
	for i := range r.stripes {
		r.stripes[i].rings = make(map[Key]*ring)
	}
	return r
}

// SetTick advances the recorder's monotonic simulation tick. The drone's
// stepping loop calls this; nothing else should.
func (r *Recorder) SetTick(t uint64) {
	if r == nil {
		return
	}
	r.tick.Store(t)
}

// AdvanceTick increments the monotonic simulation tick by one — the
// stepping loop's convenience over SetTick.
func (r *Recorder) AdvanceTick() {
	if r == nil {
		return
	}
	r.tick.Add(1)
}

// AdvanceTicks advances the monotonic simulation tick by n at once — the
// event-driven stepping loop's bulk leap over quiescent ticks. Equivalent
// to n AdvanceTick calls with no events in between.
func (r *Recorder) AdvanceTicks(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.tick.Add(uint64(n))
}

// Tick returns the current simulation tick.
func (r *Recorder) Tick() uint64 {
	if r == nil {
		return 0
	}
	return r.tick.Load()
}

// Emit records one event. Safe on a nil Recorder and when telemetry is
// disabled (both are cheap no-ops). Every event lands in the global ring;
// drone-scoped events additionally land in that drone's own ring so a
// chatty neighbor cannot evict another drone's history.
//
//vet:hotpath steady-state emit writes into committed ring slots
func (r *Recorder) Emit(drone, kind Key, a, b int64, note string) {
	if r == nil || !enabled.Load() {
		return
	}
	ev := Event{
		Seq:   r.seq.Add(1),
		Tick:  r.tick.Load(),
		Kind:  kind,
		Drone: drone,
		A:     a,
		B:     b,
		Note:  note,
	}
	r.gmu.Lock()
	r.global.put(ev)
	r.gmu.Unlock()
	if drone != 0 {
		s := &r.stripes[uint32(drone)%nStripes]
		s.mu.Lock()
		rg := s.rings[drone]
		if rg == nil {
			rg = newRing(r.perDroneCap)
			s.rings[drone] = rg
		}
		rg.put(ev)
		s.mu.Unlock()
	}
	mEvents.Inc()
}

// Snapshot returns the buffered events relevant to drone, oldest first:
// the drone's own ring merged (by Seq) with the system-wide events from
// the global ring. Snapshot(0) returns the whole global ring.
func (r *Recorder) Snapshot(drone Key) []Event {
	if r == nil {
		return nil
	}
	r.gmu.Lock()
	glob := r.global.snapshot()
	r.gmu.Unlock()
	if drone == 0 {
		return glob
	}
	var own []Event
	s := &r.stripes[uint32(drone)%nStripes]
	s.mu.Lock()
	if rg := s.rings[drone]; rg != nil {
		own = rg.snapshot()
	}
	s.mu.Unlock()
	sys := glob[:0:0]
	for _, ev := range glob {
		if ev.Drone == 0 {
			sys = append(sys, ev)
		}
	}
	return mergeBySeq(own, sys)
}

// mergeBySeq merges two Seq-ascending event slices into one.
func mergeBySeq(a, b []Event) []Event {
	out := make([]Event, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].Seq <= b[j].Seq {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
