// The incremental annealing kernel. The annealing objective is evaluated in
// integer cost units (1 unit = 1 µs of duration = 1 µJ of energy): integer
// addition is exact and associative, so a move's delta applied to running
// aggregates leaves exactly the cost a from-scratch recomputation would
// produce — the incremental kernel and the naive kernel agree bit-for-bit on
// any move sequence, which recompute() and the parity gates verify.
//
// Routes live in one doubly-linked list per fleet drone: nodes 0..n-1 are
// stops, nodes n..n+R-1 are route sentinels (base). Every node keeps the
// integer cost of its tour edge to next. A move is priced before it is made:
// eval takes the legs the move removes from those edge costs, looks up the
// at most four legs it creates in the lazy leg-cost table (legtable.go), and
// reads the pre-move counters; step applies the move only when the
// Metropolis test accepts it. The test skips math.Exp where it cannot pass, and a one-route
// problem of at most seven stops has its optimum enumerated up front, so a
// chain that reaches it stops. The warm move loop (step) performs no
// allocation and takes no locks.

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
// inputs of each chain's lazily-filled leg-cost table.
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
	legs   legTable
	nNodes int

	next, prev []int32   // doubly-linked tour per route
	routeOf    []int32   // node -> route index
	edge       []legCost // node x -> cost of its tour edge x -> next[x]

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
	floor    int64 // optimum(): the least cost any tour has, or noFloor
}

func newKernel(p *problem) *kernel {
	nn := p.n + p.nRoutes
	k := &kernel{
		p: p, legs: newLegTable(p), nNodes: nn,
		next: make([]int32, nn), prev: make([]int32, nn),
		routeOf: make([]int32, nn), edge: make([]legCost, nn),
		routeDur: make([]int64, p.nRoutes), routeEn: make([]int64, p.nRoutes),
		trc:        make([]int32, p.nTasks*p.nRoutes),
		distinct:   make([]int32, p.nRoutes),
		taskRoutes: make([]int32, p.nTasks),
		bestNext:   make([]int32, nn),
	}
	k.floor = k.optimum()
	return k
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
			l := k.legs.cost(k.prev[x], x)
			k.edge[k.prev[x]] = l
			dur += l.dur + p.dwellDur[x]
			en += l.en + p.dwellEn[x]
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
		l := k.legs.cost(k.prev[s], s)
		k.edge[k.prev[s]] = l
		dur += l.dur
		en += l.en
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
	ax, xb, ab := k.edge[a], k.edge[x], k.legs.cost(a, b)
	dDur := ab.dur - ax.dur - xb.dur - p.dwellDur[x]
	dEn := ab.en - ax.en - xb.en - p.dwellEn[x]
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
	k.edge[a] = ab
}

// insertAfter links stop x back in immediately after node at (a stop or a
// route sentinel), mirroring unlink's aggregate deltas.
func (k *kernel) insertAfter(x, at int32) {
	p := k.p
	b := k.next[at]
	r := k.routeOf[at]
	ax, xb, ab := k.legs.cost(at, x), k.legs.cost(x, b), k.edge[at]
	dDur := ax.dur + xb.dur - ab.dur + p.dwellDur[x]
	dEn := ax.en + xb.en - ab.en + p.dwellEn[x]
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
	k.edge[at], k.edge[x] = ax, xb
	k.routeOf[x] = r
}

// Move kinds.
const (
	moveSwap     = int32(0)
	moveRelocate = int32(1)
)

// move is one candidate mutation.
type move struct {
	kind int32
	a, b int32 // swap: the two stops; relocate: stop and insertion anchor
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

// swap exchanges the tour positions of stops a and b. Adjacent stops swap
// by relocating the first after the second.
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

// apply performs the move.
func (k *kernel) apply(m move) {
	if m.kind == moveSwap {
		k.swap(m.a, m.b)
		return
	}
	k.unlink(m.a)
	k.insertAfter(m.a, m.b)
}

// eval returns the cost the tour would have after apply(m), without
// touching the tour: the cached costs of the edges the move removes, leg
// lookups for the legs it adds, the touched routes' battery penalties, the
// inversions on those edges, and the cap and split counters, all from the
// pre-move counts. Every aggregate is a pure function of the tour and all
// arithmetic is integer, so the result equals cost() after apply(m) bit for
// bit.
func (k *kernel) eval(m move) int64 {
	a, b := m.a, m.b
	switch {
	case m.kind == moveRelocate || k.next[a] == b:
		return k.evalRelocate(a, b)
	case k.next[b] == a:
		return k.evalRelocate(b, a)
	}
	return k.evalSwap(a, b)
}

// evalRelocate prices moving stop x from between a and b to between at and
// c = next[at]: three tour edges out, three legs in. at is neither x nor
// prev[x], so next[at] is the same before and after x leaves.
func (k *kernel) evalRelocate(x, at int32) int64 {
	p := k.p
	a, b, c := k.prev[x], k.next[x], k.next[at]
	rx, rt := k.routeOf[x], k.routeOf[at]
	ax, xb, tc := k.edge[a], k.edge[x], k.edge[at]
	ab, tx, xc := k.legs.cost(a, b), k.legs.cost(at, x), k.legs.cost(x, c)
	outD := ab.dur - ax.dur - xb.dur - p.dwellDur[x]
	outE := ab.en - ax.en - xb.en - p.dwellEn[x]
	inD := tx.dur + xc.dur - tc.dur + p.dwellDur[x]
	inE := tx.en + xc.en - tc.en + p.dwellEn[x]
	batPen := k.batPen + k.penaltyDelta(rx, rt, outE, inE)
	capOver, splitViol := k.capOver, k.splitViol
	if rx != rt {
		t := int(p.task[x])
		leaves := b2i(k.trc[t*p.nRoutes+int(rx)] == 1)
		joins := b2i(k.trc[t*p.nRoutes+int(rt)] == 0)
		if p.cap > 0 {
			capOver += k.overCap(k.distinct[rx]-leaves) - k.overCap(k.distinct[rx]) +
				k.overCap(k.distinct[rt]+joins) - k.overCap(k.distinct[rt])
		}
		if p.orderedT[t] {
			tr := k.taskRoutes[t]
			splitViol += split(tr-leaves+joins) - split(tr)
		}
	}
	adjViol := k.adjViol
	if p.anyOrdered {
		adjViol += k.viol(a, b) - k.viol(a, x) - k.viol(x, b) +
			k.viol(at, x) + k.viol(x, c) - k.viol(at, c)
	}
	return k.durTot + outD + inD + batPen + (adjViol+splitViol+capOver)*orderPenaltyUnits
}

// evalSwap prices exchanging non-adjacent stops a and b: four tour edges
// out, four legs in, a's slot pa -> a -> na becoming pa -> b -> na and b's
// slot likewise.
func (k *kernel) evalSwap(a, b int32) int64 {
	p := k.p
	pa, na, pb, nb := k.prev[a], k.next[a], k.prev[b], k.next[b]
	ra, rb := k.routeOf[a], k.routeOf[b]
	paA, aNa, pbB, bNb := k.edge[pa], k.edge[a], k.edge[pb], k.edge[b]
	paB, bNa := k.legs.cost(pa, b), k.legs.cost(b, na)
	pbA, aNb := k.legs.cost(pb, a), k.legs.cost(a, nb)
	dwD := p.dwellDur[b] - p.dwellDur[a]
	dwE := p.dwellEn[b] - p.dwellEn[a]
	inAD := paB.dur + bNa.dur - paA.dur - aNa.dur + dwD // route ra: a's slot now holds b
	inAE := paB.en + bNa.en - paA.en - aNa.en + dwE
	inBD := pbA.dur + aNb.dur - pbB.dur - bNb.dur - dwD // route rb: b's slot now holds a
	inBE := pbA.en + aNb.en - pbB.en - bNb.en - dwE
	batPen := k.batPen + k.penaltyDelta(ra, rb, inAE, inBE)
	capOver, splitViol := k.capOver, k.splitViol
	ta, tb := int(p.task[a]), int(p.task[b])
	if ra != rb && ta != tb {
		R := p.nRoutes
		aLeaves := b2i(k.trc[ta*R+int(ra)] == 1)
		aJoins := b2i(k.trc[ta*R+int(rb)] == 0)
		bLeaves := b2i(k.trc[tb*R+int(rb)] == 1)
		bJoins := b2i(k.trc[tb*R+int(ra)] == 0)
		if p.cap > 0 {
			capOver += k.overCap(k.distinct[ra]-aLeaves+bJoins) - k.overCap(k.distinct[ra]) +
				k.overCap(k.distinct[rb]-bLeaves+aJoins) - k.overCap(k.distinct[rb])
		}
		if p.orderedT[ta] {
			tr := k.taskRoutes[ta]
			splitViol += split(tr-aLeaves+aJoins) - split(tr)
		}
		if p.orderedT[tb] {
			tr := k.taskRoutes[tb]
			splitViol += split(tr-bLeaves+bJoins) - split(tr)
		}
	}
	adjViol := k.adjViol
	if p.anyOrdered {
		adjViol += k.viol(pa, b) + k.viol(b, na) + k.viol(pb, a) + k.viol(a, nb) -
			k.viol(pa, a) - k.viol(a, na) - k.viol(pb, b) - k.viol(b, nb)
	}
	return k.durTot + inAD + inBD + batPen + (adjViol+splitViol+capOver)*orderPenaltyUnits
}

// penaltyDelta is the battery-penalty change when route ra's energy moves
// by da and route rb's by db; ra and rb may be the same route.
func (k *kernel) penaltyDelta(ra, rb int32, da, db int64) int64 {
	budget := k.p.budget
	if ra == rb {
		e := k.routeEn[ra]
		return penalty(e+da+db, budget) - penalty(e, budget)
	}
	ea, eb := k.routeEn[ra], k.routeEn[rb]
	return penalty(ea+da, budget) - penalty(ea, budget) + penalty(eb+db, budget) - penalty(eb, budget)
}

// viol is isViol as a count.
func (k *kernel) viol(u, v int32) int64 {
	if k.isViol(u, v) {
		return 1
	}
	return 0
}

// overCap is a route's capacity overage with d distinct tasks.
func (k *kernel) overCap(d int32) int64 {
	if d > k.p.cap {
		return int64(d - k.p.cap)
	}
	return 0
}

// split is an ordered task's split count when it spans tr routes.
func split(tr int32) int64 {
	if tr > 1 {
		return int64(tr - 1)
	}
	return 0
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// metropolisFloor is the exponent below which the Metropolis test cannot
// pass: uniform never returns less than 2^-54, and e^x < 2^-54 for every
// x < -40 (e^-40 is about 4.2e-18, 2^-54 about 5.6e-17).
const metropolisFloor = -40

// accept is the Metropolis test u < e^(delta/temp) for a move that raises
// the cost by -delta units. It draws u whatever the verdict, so the RNG
// stream is the one the plain test consumes, and skips math.Exp where the
// test cannot pass.
func accept(r *rng, delta int64, temp float64) bool {
	u := r.uniform()
	x := float64(delta) / temp
	return x >= metropolisFloor && u < math.Exp(x)
}

// step is one warm-loop annealing iteration: draw a move, price it, apply
// it only if the Metropolis criterion accepts it, and snapshot the tour on
// improvement. No allocation, no locking.
//
//vet:hotpath the annealing move loop runs O(iterations x restarts) per plan
func (k *kernel) step(r *rng, temp float64) {
	m := k.randomMove(r)
	before := k.cost()
	after := k.eval(m)
	if after < before || accept(r, before-after, temp) {
		k.apply(m)
		if after < k.bestCost {
			k.bestCost = after
			copy(k.bestNext, k.next)
		}
	}
}

// anneal runs one chain over the loaded state with geometric cooling,
// leaving the best tour found in bestNext/bestCost. load must have been
// called first. A chain whose best reaches the kernel's proven floor stops
// there: a snapshot needs after < bestCost, which no tour can then give, so
// the rest of the chain could not change bestNext or bestCost.
func (k *kernel) anneal(r *rng, iterations int) {
	if k.p.n == 0 || (k.p.n == 1 && k.p.nRoutes == 1) {
		return
	}
	temp := math.Max(float64(k.bestCost)*0.1, unitScale)
	cooling := math.Pow(0.001*unitScale/temp, 1/float64(iterations))
	for i := 0; i < iterations && k.bestCost != k.floor; i++ {
		k.step(r, temp)
		temp *= cooling
	}
}

// floorStops bounds the problems whose optimum optimum enumerates.
const floorStops = 7

// noFloor is the floor of a problem optimum does not solve; no cost equals
// it, since every cost is non-negative.
const noFloor = int64(-1)

// optimum returns the least cost any tour can have when the problem is one
// route of at most floorStops stops, and noFloor otherwise. It enumerates
// the stop orders depth first under the objective recompute sums — legs,
// dwells, battery penalty, inversions and cap overage (one route cannot
// split a task) — pruning a prefix once its partial sum, which only grows
// as stops are appended, reaches the best complete order.
func (k *kernel) optimum() int64 {
	p := k.p
	if p.nRoutes != 1 || p.n > floorStops {
		return noFloor
	}
	var fixedDur, dwellEn int64 // dwells and cap overage: the same in every order
	for x := 0; x < p.n; x++ {
		fixedDur += p.dwellDur[x]
		dwellEn += p.dwellEn[x]
	}
	if p.cap > 0 && int32(p.nTasks) > p.cap {
		fixedDur += int64(int32(p.nTasks)-p.cap) * orderPenaltyUnits
	}
	home := int32(p.n)
	all := uint32(1)<<p.n - 1
	best := int64(math.MaxInt64)
	var visit func(last int32, used uint32, dur, en, adj int64)
	visit = func(last int32, used uint32, dur, en, adj int64) {
		if used == all {
			l := k.legs.cost(last, home)
			dur, en = dur+l.dur, en+l.en
		}
		c := fixedDur + dur + penalty(en+dwellEn, p.budget) + adj*orderPenaltyUnits
		if c >= best {
			return
		}
		if used == all {
			best = c
			return
		}
		for x := int32(0); x < int32(p.n); x++ {
			if used&(1<<x) == 0 {
				l := k.legs.cost(last, x)
				visit(x, used|1<<x, dur+l.dur, en+l.en, adj+k.viol(last, x))
			}
		}
	}
	visit(home, 0, 0, 0, 0)
	return best
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
			l := k.legs.cost(k.prev[x], x)
			dur += l.dur + p.dwellDur[x]
			en += l.en + p.dwellEn[x]
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
		l := k.legs.cost(k.prev[s], s)
		dur += l.dur
		en += l.en
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
