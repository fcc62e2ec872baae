// The incremental annealing kernel. The annealing objective is evaluated in
// integer cost units (1 unit = 1 µs of duration = 1 µJ of energy): integer
// addition is exact and associative, so a move's delta applied to running
// aggregates leaves exactly the cost a from-scratch recomputation would
// produce — the incremental kernel and the naive kernel agree bit-for-bit on
// any move sequence, which recompute() and the parity gates verify.
//
// Routes live in one doubly-linked list per fleet drone: nodes 0..n-1 are
// stops, nodes n..n+R-1 are route sentinels (base). A swap or relocate move
// touches at most eight legs, so evaluation is O(1) leg-delta arithmetic
// over the lazy leg table, and a rejected move is undone in place. The warm
// move loop (step) performs no allocation and takes no locks.

package planner

import (
	"math"

	"androne/internal/geo"
)

const (
	// unitScale converts planner seconds/joules into kernel cost units.
	unitScale = 1e6
	// orderPenaltyUnits mirrors the float objective's 1e5-second penalty
	// per ordering/capacity violation.
	orderPenaltyUnits = int64(1e5 * unitScale)
	// batteryPenaltyFactor mirrors the float objective's 10x penalty per
	// joule of battery-budget excess.
	batteryPenaltyFactor = 10
)

func toUnits(x float64) int64 { return int64(x*unitScale + 0.5) }

// problem is the immutable planning instance shared by all restart chains:
// stop metadata flattened into dense arrays, integer dwell costs, and the
// lazily-filled leg table factory inputs.
type problem struct {
	stops   []Stop
	n       int // stop count; node ids n..n+nRoutes-1 are route sentinels
	nRoutes int
	nTasks  int

	task     []int32 // stop -> dense task index
	wpIdx    []int32 // stop -> waypoint index within its task
	orderedT []bool  // task -> must be visited in index order
	dwellDur []int64 // stop dwell time, units
	dwellEn  []int64 // stop dwell energy, units

	durPerM    float64 // cruise seconds per meter
	enPerM     float64 // cruise joules per meter (LegEnergyJ is linear in distance)
	budget     int64   // per-flight energy budget, units
	cap        int32   // MaxTasksPerRoute (0 = unlimited)
	anyOrdered bool
	base       geo.Position
}

// newProblem flattens the stops into the kernel's dense representation.
func (cfg *Config) newProblem(stops []Stop, ordered map[string]bool) *problem {
	n := len(stops)
	p := &problem{
		stops: stops, n: n, nRoutes: cfg.FleetSize, base: cfg.Base,
		task:     make([]int32, n),
		wpIdx:    make([]int32, n),
		dwellDur: make([]int64, n),
		dwellEn:  make([]int64, n),
		durPerM:  1 / cfg.CruiseMS,
		enPerM:   cfg.Model.LegEnergyJ(1, cfg.CruiseMS, 0),
		budget:   toUnits(cfg.BatteryJ * (1 - cfg.ReserveFrac)),
		cap:      int32(cfg.MaxTasksPerRoute),
	}
	ids := make(map[string]int32, n)
	for i, s := range stops {
		id, ok := ids[s.Task]
		if !ok {
			id = int32(len(p.orderedT))
			ids[s.Task] = id
			p.orderedT = append(p.orderedT, ordered[s.Task])
			if ordered[s.Task] {
				p.anyOrdered = true
			}
		}
		p.task[i] = id
		p.wpIdx[i] = int32(s.Index)
		p.dwellDur[i] = toUnits(s.DwellS)
		p.dwellEn[i] = toUnits(s.DwellJ)
	}
	p.nTasks = len(p.orderedT)
	return p
}

// kernel is one chain's mutable annealing state. A kernel is confined to a
// single worker goroutine; workers reuse one kernel (and its leg table)
// across the restarts they execute.
type kernel struct {
	p      *problem
	legs   *legTable
	nNodes int

	next, prev []int32 // doubly-linked tour per route
	routeOf    []int32 // node -> route index

	// Incremental aggregates. durTot/batPen are sums over routes; the
	// violation counters weight into the cost via orderPenaltyUnits.
	routeDur   []int64 // per route, includes dwells
	routeEn    []int64
	durTot     int64
	batPen     int64
	trc        []int32 // task-route count, indexed task*nRoutes+route
	distinct   []int32 // route -> distinct task count
	taskRoutes []int32 // ordered task -> number of routes holding it
	capOver    int64   // Σ max(0, distinct[r] - cap)
	splitViol  int64   // Σ max(0, taskRoutes[t] - 1), ordered tasks only
	adjViol    int64   // adjacent-edge order inversions

	bestNext []int32
	bestCost int64
}

func newKernel(p *problem) *kernel {
	nn := p.n + p.nRoutes
	return &kernel{
		p: p, legs: newLegTable(p.stops, p.base), nNodes: nn,
		next: make([]int32, nn), prev: make([]int32, nn),
		routeOf:  make([]int32, nn),
		routeDur: make([]int64, p.nRoutes), routeEn: make([]int64, p.nRoutes),
		trc:        make([]int32, p.nTasks*p.nRoutes),
		distinct:   make([]int32, p.nRoutes),
		taskRoutes: make([]int32, p.nTasks),
		bestNext:   make([]int32, nn),
	}
}

// id maps a node to its leg-table id (all sentinels collapse onto base).
func (k *kernel) id(x int32) int {
	if int(x) >= k.p.n {
		return k.p.n
	}
	return int(x)
}

// leg returns the (duration, energy) cost in units of the edge i -> j.
func (k *kernel) leg(i, j int32) (dur, en int64) {
	d := k.legs.dist(k.id(i), k.id(j))
	return int64(d*k.p.durPerM*unitScale + 0.5), int64(d*k.p.enPerM*unitScale + 0.5)
}

func penalty(en, budget int64) int64 {
	if en > budget {
		return batteryPenaltyFactor * (en - budget)
	}
	return 0
}

// isViol reports whether the edge u -> v breaks an ordering constraint:
// both are stops of the same ordered task with the second waypoint index
// below the first.
func (k *kernel) isViol(u, v int32) bool {
	p := k.p
	if int(u) >= p.n || int(v) >= p.n {
		return false
	}
	t := p.task[u]
	return t == p.task[v] && p.orderedT[t] && p.wpIdx[v] < p.wpIdx[u]
}

// cost is the current objective in units: total duration, battery-excess
// penalty, and the ordering/split/capacity violation penalties.
func (k *kernel) cost() int64 {
	return k.durTot + k.batPen + (k.adjViol+k.splitViol+k.capOver)*orderPenaltyUnits
}

// load (re)builds the linked lists and aggregates from seed routes of stop
// indices. O(N); called once per restart.
func (k *kernel) load(routes [][]int32) {
	p := k.p
	for i := range k.trc {
		k.trc[i] = 0
	}
	for i := range k.taskRoutes {
		k.taskRoutes[i] = 0
	}
	k.durTot, k.batPen, k.capOver, k.splitViol, k.adjViol = 0, 0, 0, 0, 0
	for r := 0; r < p.nRoutes; r++ {
		s := int32(p.n + r)
		k.next[s], k.prev[s] = s, s
		k.routeOf[s] = int32(r)
		k.routeDur[r], k.routeEn[r] = 0, 0
		k.distinct[r] = 0
	}
	for r, route := range routes {
		s := int32(p.n + r)
		tail := s
		for _, x := range route {
			k.next[tail], k.prev[x] = x, tail
			k.routeOf[x] = int32(r)
			tail = x
		}
		k.next[tail], k.prev[s] = s, tail
	}
	for r := 0; r < p.nRoutes; r++ {
		s := int32(p.n + r)
		var dur, en int64
		for x := k.next[s]; x != s; x = k.next[x] {
			d, e := k.leg(k.prev[x], x)
			dur += d + p.dwellDur[x]
			en += e + p.dwellEn[x]
			t := p.task[x]
			c := &k.trc[int(t)*p.nRoutes+r]
			if *c == 0 {
				k.distinct[r]++
				if p.orderedT[t] {
					k.taskRoutes[t]++
				}
			}
			*c++
			if k.isViol(k.prev[x], x) {
				k.adjViol++
			}
		}
		d, e := k.leg(k.prev[s], s)
		dur += d
		en += e
		k.routeDur[r], k.routeEn[r] = dur, en
		k.durTot += dur
		k.batPen += penalty(en, p.budget)
		if p.cap > 0 && k.distinct[r] > p.cap {
			k.capOver += int64(k.distinct[r] - p.cap)
		}
	}
	for t := 0; t < p.nTasks; t++ {
		if k.taskRoutes[t] > 1 {
			k.splitViol += int64(k.taskRoutes[t] - 1)
		}
	}
	k.bestCost = k.cost()
	copy(k.bestNext, k.next)
}

// unlink removes stop x from its route, updating every aggregate by the
// exact integer delta.
func (k *kernel) unlink(x int32) {
	p := k.p
	a, b := k.prev[x], k.next[x]
	r := k.routeOf[x]
	axD, axE := k.leg(a, x)
	xbD, xbE := k.leg(x, b)
	abD, abE := k.leg(a, b)
	dDur := abD - axD - xbD - p.dwellDur[x]
	dEn := abE - axE - xbE - p.dwellEn[x]
	k.routeDur[r] += dDur
	k.durTot += dDur
	oldEn := k.routeEn[r]
	k.routeEn[r] = oldEn + dEn
	k.batPen += penalty(oldEn+dEn, p.budget) - penalty(oldEn, p.budget)
	if p.anyOrdered {
		if k.isViol(a, x) {
			k.adjViol--
		}
		if k.isViol(x, b) {
			k.adjViol--
		}
		if k.isViol(a, b) {
			k.adjViol++
		}
	}
	t := p.task[x]
	c := &k.trc[int(t)*p.nRoutes+int(r)]
	*c--
	if *c == 0 {
		k.distinct[r]--
		if p.cap > 0 && k.distinct[r] >= p.cap {
			k.capOver--
		}
		if p.orderedT[t] {
			k.taskRoutes[t]--
			if k.taskRoutes[t] >= 1 {
				k.splitViol--
			}
		}
	}
	k.next[a], k.prev[b] = b, a
}

// insertAfter links stop x back in immediately after node at (a stop or a
// route sentinel), mirroring unlink's aggregate deltas.
func (k *kernel) insertAfter(x, at int32) {
	p := k.p
	b := k.next[at]
	r := k.routeOf[at]
	axD, axE := k.leg(at, x)
	xbD, xbE := k.leg(x, b)
	abD, abE := k.leg(at, b)
	dDur := axD + xbD - abD + p.dwellDur[x]
	dEn := axE + xbE - abE + p.dwellEn[x]
	k.routeDur[r] += dDur
	k.durTot += dDur
	oldEn := k.routeEn[r]
	k.routeEn[r] = oldEn + dEn
	k.batPen += penalty(oldEn+dEn, p.budget) - penalty(oldEn, p.budget)
	if p.anyOrdered {
		if k.isViol(at, b) {
			k.adjViol--
		}
		if k.isViol(at, x) {
			k.adjViol++
		}
		if k.isViol(x, b) {
			k.adjViol++
		}
	}
	t := p.task[x]
	c := &k.trc[int(t)*p.nRoutes+int(r)]
	if *c == 0 {
		k.distinct[r]++
		if p.cap > 0 && k.distinct[r] > p.cap {
			k.capOver++
		}
		if p.orderedT[t] {
			k.taskRoutes[t]++
			if k.taskRoutes[t] > 1 {
				k.splitViol++
			}
		}
	}
	*c++
	k.next[at], k.prev[x] = x, at
	k.next[x], k.prev[b] = b, x
	k.routeOf[x] = r
}

// Move kinds.
const (
	moveSwap     = int32(0)
	moveRelocate = int32(1)
)

// move is one candidate mutation. Relocate records the original predecessor
// so a rejected move is undone in place; swap is its own inverse.
type move struct {
	kind  int32
	a, b  int32 // swap: the two stops; relocate: stop and insertion anchor
	prevA int32
}

func kintn(r *rng, n int) int {
	i := int(r.uniform() * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// randomMove draws the next move. The caller guarantees a move exists
// (n >= 2, or n == 1 with more than one route).
func (k *kernel) randomMove(r *rng) move {
	n := k.p.n
	if n >= 2 && r.uniform() < 0.5 {
		a := kintn(r, n)
		b := kintn(r, n)
		for b == a {
			b = kintn(r, n)
		}
		return move{kind: moveSwap, a: int32(a), b: int32(b)}
	}
	a := int32(kintn(r, n))
	t := int32(kintn(r, k.nNodes))
	for t == a || t == k.prev[a] {
		t = int32(kintn(r, k.nNodes))
	}
	return move{kind: moveRelocate, a: a, b: t}
}

// swap exchanges the tour positions of stops a and b. It is an involution:
// applying it twice restores the links and, because every aggregate delta
// is exact integer arithmetic over pure leg values, the aggregates too.
func (k *kernel) swap(a, b int32) {
	switch {
	case k.next[a] == b:
		k.unlink(a)
		k.insertAfter(a, b)
	case k.next[b] == a:
		k.unlink(b)
		k.insertAfter(b, a)
	default:
		pa, pb := k.prev[a], k.prev[b]
		k.unlink(a)
		k.unlink(b)
		k.insertAfter(a, pb)
		k.insertAfter(b, pa)
	}
}

// apply performs the move and returns it annotated for undo.
func (k *kernel) apply(m move) move {
	if m.kind == moveSwap {
		k.swap(m.a, m.b)
		return m
	}
	m.prevA = k.prev[m.a]
	k.unlink(m.a)
	k.insertAfter(m.a, m.b)
	return m
}

// undo reverts a move applied by apply.
func (k *kernel) undo(m move) {
	if m.kind == moveSwap {
		k.swap(m.a, m.b)
		return
	}
	k.unlink(m.a)
	k.insertAfter(m.a, m.prevA)
}

// step is one warm-loop annealing iteration: draw a move, apply it, accept
// by the Metropolis criterion or undo in place, and snapshot the tour on
// improvement. No allocation, no locking.
//
//vet:hotpath the annealing move loop runs O(iterations x restarts) per plan
func (k *kernel) step(r *rng, temp float64) {
	m := k.randomMove(r)
	before := k.cost()
	m = k.apply(m)
	after := k.cost()
	if after < before || r.uniform() < math.Exp(float64(before-after)/temp) {
		if after < k.bestCost {
			k.bestCost = after
			copy(k.bestNext, k.next)
		}
		return
	}
	k.undo(m)
}

// anneal runs one chain over the loaded state with geometric cooling,
// leaving the best tour found in bestNext/bestCost. load must have been
// called first.
func (k *kernel) anneal(r *rng, iterations int) {
	if k.p.n == 0 || (k.p.n == 1 && k.p.nRoutes == 1) {
		return
	}
	temp := math.Max(float64(k.bestCost)*0.1, unitScale)
	cooling := math.Pow(0.001*unitScale/temp, 1/float64(iterations))
	for i := 0; i < iterations; i++ {
		k.step(r, temp)
		temp *= cooling
	}
}

// recompute walks the link structure and rebuilds the objective from
// scratch — the naive kernel. The incremental aggregates must match its
// result bit-for-bit after any move sequence; the parity tests and the
// benchmark gate enforce exactly that.
func (k *kernel) recompute() int64 {
	p := k.p
	var durTot, batPen, capOver, splitViol, adjViol int64
	taskRoutes := make([]int32, p.nTasks)
	cnt := make([]int32, p.nTasks)
	touched := make([]int32, 0, p.nTasks)
	for r := 0; r < p.nRoutes; r++ {
		s := int32(p.n + r)
		var dur, en int64
		var distinct int32
		touched = touched[:0]
		for x := k.next[s]; x != s; x = k.next[x] {
			d, e := k.leg(k.prev[x], x)
			dur += d + p.dwellDur[x]
			en += e + p.dwellEn[x]
			t := p.task[x]
			if cnt[t] == 0 {
				distinct++
				touched = append(touched, t)
				if p.orderedT[t] {
					taskRoutes[t]++
				}
			}
			cnt[t]++
			if k.isViol(k.prev[x], x) {
				adjViol++
			}
		}
		d, e := k.leg(k.prev[s], s)
		dur += d
		en += e
		durTot += dur
		batPen += penalty(en, p.budget)
		if p.cap > 0 && distinct > p.cap {
			capOver += int64(distinct - p.cap)
		}
		for _, t := range touched {
			cnt[t] = 0
		}
	}
	for t := 0; t < p.nTasks; t++ {
		if taskRoutes[t] > 1 {
			splitViol += int64(taskRoutes[t] - 1)
		}
	}
	return durTot + batPen + (adjViol+splitViol+capOver)*orderPenaltyUnits
}

// extractRoutes materializes the tour into per-route stop slices.
func extractRoutes(p *problem, next []int32) [][]Stop {
	routes := make([][]Stop, p.nRoutes)
	for r := 0; r < p.nRoutes; r++ {
		s := int32(p.n + r)
		for x := next[s]; x != s; x = next[x] {
			routes[r] = append(routes[r], p.stops[x])
		}
	}
	return routes
}
