// Package planner implements AnDrone's cloud flight planner: it allocates
// virtual drones to physical drone flights and orders their waypoints, based
// on the multirotor energy consumption model and drone-delivery vehicle
// routing algorithm of Dorling et al. (simulated annealing over routes,
// minimizing completion time subject to a fleet size constraint). Virtual
// drone waypoints play the role of delivery locations, with the energy
// allotted to each virtual drone at its waypoints added to the route's
// energy cost.
//
// Faithful to the paper, the algorithm treats all waypoints independently:
// users may not prescribe a traversal order, and the planner may visit
// waypoints of one virtual drone in the middle of another's set.
package planner

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"androne/internal/energy"
	"androne/internal/geo"
)

// Task is one virtual drone's flight request.
type Task struct {
	// ID is the virtual drone name.
	ID string
	// Waypoints the virtual drone must visit.
	Waypoints []geo.Waypoint
	// EnergyJ is the energy allotted for the virtual drone's operation at
	// its waypoints (energy-allotted in the definition).
	EnergyJ float64
	// DurationS is the maximum dwell across waypoints (max-duration).
	DurationS float64
	// Ordered requires the task's waypoints to be visited in declaration
	// order on a single flight. The paper's base algorithm treats all
	// waypoints independently and calls ordering support future work; this
	// implements that extension via annealing penalties plus a repair pass.
	Ordered bool
}

// Stop is one waypoint visit in a route.
type Stop struct {
	Task     string
	Index    int // waypoint index within the task
	Waypoint geo.Waypoint
	// DwellJ and DwellS are the energy/time reserved for the virtual drone
	// at this stop.
	DwellJ float64
	DwellS float64
}

// Route is the ordered plan for one physical drone flight, starting and
// ending at base.
type Route struct {
	Drone     int
	Stops     []Stop
	EnergyJ   float64 // total estimated energy including dwells
	DurationS float64 // total estimated duration including dwells
}

// Plan is the planner's output.
type Plan struct {
	Base   geo.Position
	Routes []Route
}

// TotalDurationS returns the summed duration of all routes (the Dorling
// objective minimizes total delivery time).
func (p *Plan) TotalDurationS() float64 {
	var total float64
	for _, r := range p.Routes {
		total += r.DurationS
	}
	return total
}

// TotalEnergyJ returns the summed energy of all routes.
func (p *Plan) TotalEnergyJ() float64 {
	var total float64
	for _, r := range p.Routes {
		total += r.EnergyJ
	}
	return total
}

// Config parameterizes the planner.
type Config struct {
	// Base is the launch/landing location.
	Base geo.Position
	// FleetSize is the number of physical drones (the constraint).
	FleetSize int
	// BatteryJ is usable energy per drone per flight.
	BatteryJ float64
	// ReserveFrac is the battery fraction held in reserve (e.g. 0.2).
	ReserveFrac float64
	// CruiseMS is planning cruise speed.
	CruiseMS float64
	// Model is the energy model.
	Model energy.Multirotor
	// MaxTasksPerRoute caps how many distinct virtual drones share one
	// flight (0 = unlimited). The prototype's memory supports three
	// simultaneous virtual drones, so its planner uses 3.
	MaxTasksPerRoute int
	// Iterations bounds each annealing chain (0 = default).
	Iterations int
	// Seed makes planning deterministic.
	Seed string
	// Restarts is the number of independent annealing chains; the best
	// result wins (0 = single chain). Chain i derives its own RNG from
	// Seed as "<Seed>/restart-%02d".
	Restarts int
	// Workers bounds how many restart chains run concurrently (0 = serial).
	// The winning plan is bit-identical at any worker count: chains are
	// seeded independently and the winner is picked by (cost, restart
	// index), never by completion order.
	Workers int

	// ordered is populated from the tasks at Plan time.
	ordered map[string]bool
}

// DefaultConfig returns a config for the prototype drone.
func DefaultConfig(base geo.Position) Config {
	return Config{
		Base:        base,
		FleetSize:   1,
		BatteryJ:    199800,
		ReserveFrac: 0.25,
		CruiseMS:    8,
		Model:       energy.DefaultMultirotor(),
		Iterations:  20000,
		Seed:        "androne",
		Restarts:    4,
	}
}

// Errors.
var (
	ErrNoFleet       = errors.New("planner: fleet size must be positive")
	ErrInfeasible    = errors.New("planner: no feasible plan within battery limits")
	ErrDuplicateTask = errors.New("planner: duplicate task id")
)

// Plan computes routes for the tasks.
//
//vet:detpath plans must be bit-identical across runs and worker counts
func (cfg Config) Plan(tasks []Task) (*Plan, error) {
	if cfg.FleetSize <= 0 {
		return nil, ErrNoFleet
	}
	seen := make(map[string]bool, len(tasks))
	var orderedIDs []string
	for _, t := range tasks {
		if seen[t.ID] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateTask, t.ID)
		}
		seen[t.ID] = true
		if t.Ordered {
			orderedIDs = append(orderedIDs, t.ID)
		}
	}
	return cfg.PlanStops(explode(tasks), orderedIDs)
}

// PlanStops plans a raw stop set — the entry point for re-planning the
// unflown remainder of a delivery campaign, where tasks are already
// exploded into stops. orderedIDs lists tasks whose remaining waypoints
// must still be visited in ascending index order.
//
//vet:detpath plans must be bit-identical across runs and worker counts
func (cfg Config) PlanStops(stops []Stop, orderedIDs []string) (*Plan, error) {
	if cfg.FleetSize <= 0 {
		return nil, ErrNoFleet
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 20000
	}
	if len(stops) == 0 {
		return &Plan{Base: cfg.Base}, nil
	}
	// Any single stop that cannot be served on a full battery is infeasible.
	budget := cfg.BatteryJ * (1 - cfg.ReserveFrac)
	for _, s := range stops {
		if cfg.routeEnergy([]Stop{s}) > budget {
			return nil, fmt.Errorf("%w: stop %s/%d needs %.0f J > budget %.0f J",
				ErrInfeasible, s.Task, s.Index, cfg.routeEnergy([]Stop{s}), budget)
		}
	}

	ordered := make(map[string]bool, len(orderedIDs))
	for _, id := range orderedIDs {
		ordered[id] = true
	}
	cfg.ordered = ordered

	prob := cfg.newProblem(stops, ordered)
	seed := cfg.greedyOrder(stops)
	win := cfg.annealRestarts(prob, seed)
	routes := extractRoutes(prob, win)
	repairOrder(routes, ordered)

	// Post-process: split any route that exceeds the battery budget into
	// multiple flights by the same drone (appended as extra routes).
	var final []Route
	for _, r := range routes {
		final = append(final, cfg.splitByBattery(Route{Stops: r}, budget)...)
	}
	for i := range final {
		final[i].Drone = i % cfg.FleetSize
		final[i].EnergyJ = cfg.routeEnergy(final[i].Stops)
		final[i].DurationS = cfg.routeDuration(final[i].Stops)
	}
	return &Plan{Base: cfg.Base, Routes: final}, nil
}

// annealRestarts runs the configured number of independent annealing chains
// on the caller's goroutine and Workers-1 more, and returns the winning tour
// (the next-links array of the best chain). Each chain depends only on its
// own derived seed and the shared immutable problem, and the winner is
// selected by (cost, restart index), so the result does not depend on how
// many workers ran the chains or in what order they finished.
func (cfg Config) annealRestarts(prob *problem, seed [][]int32) []int32 {
	restarts := cfg.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	if workers > restarts {
		workers = restarts
	}
	type result struct {
		cost int64
		next []int32
	}
	results := make([]result, restarts)
	// Each worker builds one kernel (and leg table) and reuses it across
	// the restarts it claims.
	var nextRestart atomic.Int64
	work := func() {
		k := newKernel(prob)
		for {
			ri := int(nextRestart.Add(1)) - 1
			if ri >= restarts {
				return
			}
			k.load(seed)
			k.anneal(newRNG(fmt.Sprintf("%s/restart-%02d", cfg.Seed, ri)), cfg.Iterations)
			results[ri] = result{cost: k.bestCost, next: append([]int32(nil), k.bestNext...)}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	best := 0
	for ri := 1; ri < restarts; ri++ {
		if results[ri].cost < results[best].cost {
			best = ri
		}
	}
	return results[best].next
}

// explode flattens tasks into independent stops with dwell costs split
// evenly across each task's waypoints.
func explode(tasks []Task) []Stop {
	var out []Stop
	for _, t := range tasks {
		if len(t.Waypoints) == 0 {
			continue
		}
		n := float64(len(t.Waypoints))
		for i, wp := range t.Waypoints {
			out = append(out, Stop{
				Task: t.ID, Index: i, Waypoint: wp,
				DwellJ: t.EnergyJ / n, DwellS: t.DurationS / n,
			})
		}
	}
	return out
}

// routeEnergy estimates the energy for base -> stops... -> base.
func (cfg Config) routeEnergy(stops []Stop) float64 {
	if len(stops) == 0 {
		return 0
	}
	var total float64
	prev := cfg.Base
	for _, s := range stops {
		total += cfg.Model.LegEnergyJ(geo.Distance3D(prev, s.Waypoint.Position), cfg.CruiseMS, 0)
		total += s.DwellJ
		prev = s.Waypoint.Position
	}
	total += cfg.Model.LegEnergyJ(geo.Distance3D(prev, cfg.Base), cfg.CruiseMS, 0)
	return total
}

// routeDuration estimates the duration for base -> stops... -> base.
func (cfg Config) routeDuration(stops []Stop) float64 {
	if len(stops) == 0 {
		return 0
	}
	var total float64
	prev := cfg.Base
	for _, s := range stops {
		total += geo.Distance3D(prev, s.Waypoint.Position) / cfg.CruiseMS
		total += s.DwellS
		prev = s.Waypoint.Position
	}
	total += geo.Distance3D(prev, cfg.Base) / cfg.CruiseMS
	return total
}

// greedy builds initial routes: nearest-neighbor assignment over the fleet.
func (cfg Config) greedy(stops []Stop) [][]Stop {
	order := cfg.greedyOrder(stops)
	routes := make([][]Stop, len(order))
	for r, ids := range order {
		for _, i := range ids {
			routes[r] = append(routes[r], stops[i])
		}
	}
	return routes
}

// greedyOrder is the cached-distance nearest-neighbor seed: every stop is
// projected once onto the base's local tangent plane, candidates are ranked
// by squared Euclidean distance, and removal from the remaining set is a
// swap with the tail — the O(N²) haversine evaluations of the old seed
// become N projections plus cheap float compares.
func (cfg Config) greedyOrder(stops []Stop) [][]int32 {
	n := len(stops)
	north := make([]float64, n)
	east := make([]float64, n)
	alt := make([]float64, n)
	for i, s := range stops {
		north[i], east[i] = geo.NE(cfg.Base.LatLon, s.Waypoint.Position.LatLon)
		alt[i] = s.Waypoint.Position.Alt - cfg.Base.Alt
	}
	routes := make([][]int32, cfg.FleetSize)
	cn := make([]float64, cfg.FleetSize) // per-drone cursor, base = origin
	ce := make([]float64, cfg.FleetSize)
	ca := make([]float64, cfg.FleetSize)
	remaining := make([]int32, n)
	for i := range remaining {
		remaining[i] = int32(i)
	}
	drone := 0
	for len(remaining) > 0 {
		// Pick the unvisited stop closest to this drone's current position.
		best, bestD := 0, math.Inf(1)
		for i, id := range remaining {
			dn := north[id] - cn[drone]
			de := east[id] - ce[drone]
			da := alt[id] - ca[drone]
			if d := dn*dn + de*de + da*da; d < bestD {
				best, bestD = i, d
			}
		}
		id := remaining[best]
		remaining[best] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
		routes[drone] = append(routes[drone], id)
		cn[drone], ce[drone], ca[drone] = north[id], east[id], alt[id]
		drone = (drone + 1) % cfg.FleetSize
	}
	return routes
}

// cost is the annealing objective: total duration plus large penalties for
// battery violations and (for ordered tasks) order violations.
func (cfg Config) cost(routes [][]Stop) float64 {
	budget := cfg.BatteryJ * (1 - cfg.ReserveFrac)
	var total float64
	for _, r := range routes {
		total += cfg.routeDuration(r)
		if e := cfg.routeEnergy(r); e > budget {
			total += (e - budget) * 10 // heavy penalty per excess joule
		}
	}
	total += 1e5 * float64(orderViolations(routes, cfg.ordered))
	if cfg.MaxTasksPerRoute > 0 {
		for _, r := range routes {
			if n := distinctTasks(r); n > cfg.MaxTasksPerRoute {
				total += 1e5 * float64(n-cfg.MaxTasksPerRoute)
			}
		}
	}
	return total
}

func distinctTasks(stops []Stop) int {
	seen := make(map[string]bool, len(stops))
	for _, s := range stops {
		seen[s.Task] = true
	}
	return len(seen)
}

// orderViolations counts ordering constraint breaks: inversions of an
// ordered task within a route, plus splits of an ordered task across routes.
func orderViolations(routes [][]Stop, ordered map[string]bool) int {
	if len(ordered) == 0 {
		return 0
	}
	violations := 0
	routeOf := make(map[string]int)
	for ri, r := range routes {
		lastIdx := make(map[string]int)
		for _, s := range r {
			if !ordered[s.Task] {
				continue
			}
			if prevRoute, seen := routeOf[s.Task]; seen && prevRoute != ri {
				violations++ // split across routes
			}
			routeOf[s.Task] = ri
			if prev, seen := lastIdx[s.Task]; seen && s.Index < prev {
				violations++ // inversion
			}
			lastIdx[s.Task] = s.Index
		}
	}
	return violations
}

// repairOrder rewrites each ordered task's stops into ascending waypoint
// order across the whole plan — slots are collected route-major, the task's
// stops are sorted by index, and written back into the same slots — so the
// final route sequence always complies even if annealing left an inversion
// or scattered an ordered task across routes. (Tasks are iterated in
// first-seen order, not map order, to keep plans deterministic.)
func repairOrder(routes [][]Stop, ordered map[string]bool) {
	if len(ordered) == 0 {
		return
	}
	type slotList struct {
		stops []Stop
		slots [][2]int // (route, position) pairs in route-major order
	}
	var firstSeen []string
	byTask := make(map[string]*slotList)
	for ri, r := range routes {
		for i, s := range r {
			if !ordered[s.Task] {
				continue
			}
			sl := byTask[s.Task]
			if sl == nil {
				sl = &slotList{}
				byTask[s.Task] = sl
				firstSeen = append(firstSeen, s.Task)
			}
			sl.stops = append(sl.stops, s)
			sl.slots = append(sl.slots, [2]int{ri, i})
		}
	}
	for _, task := range firstSeen {
		sl := byTask[task]
		sort.Slice(sl.stops, func(a, b int) bool { return sl.stops[a].Index < sl.stops[b].Index })
		for k, pos := range sl.slots {
			routes[pos[0]][pos[1]] = sl.stops[k]
		}
	}
}

// baselineAnneal is the pre-kernel annealer, retained as the benchmark
// baseline: every iteration clones all routes and recomputes the full O(N)
// float objective. Plan no longer uses it — the incremental integer kernel
// in kernel.go replaced it — but androne-bench times it against the kernel
// to quantify the rewrite.
func (cfg Config) baselineAnneal(routes [][]Stop) [][]Stop {
	r := newRNG(cfg.Seed)
	cur := cloneRoutes(routes)
	best := cloneRoutes(routes)
	curCost := cfg.cost(cur)
	bestCost := curCost

	temp := math.Max(curCost*0.1, 1)
	cooling := math.Pow(0.001/temp, 1/float64(cfg.Iterations))
	for i := 0; i < cfg.Iterations; i++ {
		cand := cloneRoutes(cur)
		if !mutate(cand, r) {
			break // nothing to mutate
		}
		c := cfg.cost(cand)
		if c < curCost || r.uniform() < math.Exp((curCost-c)/temp) {
			cur, curCost = cand, c
			if c < bestCost {
				best, bestCost = cloneRoutes(cand), c
			}
		}
		temp *= cooling
	}
	return best
}

// mutate applies a random relocate or swap move in place. Returns false if
// there are no stops.
func mutate(routes [][]Stop, r *rng) bool {
	var total int
	for _, rt := range routes {
		total += len(rt)
	}
	if total == 0 {
		return false
	}
	if total == 1 && len(routes) == 1 {
		return false
	}
	if r.uniform() < 0.5 && total >= 2 {
		// Swap two stops (possibly across routes).
		i1, j1 := pick(routes, r)
		i2, j2 := pick(routes, r)
		routes[i1][j1], routes[i2][j2] = routes[i2][j2], routes[i1][j1]
		return true
	}
	// Relocate a stop to a random position in a random route.
	i, j := pick(routes, r)
	s := routes[i][j]
	routes[i] = append(routes[i][:j], routes[i][j+1:]...)
	k := int(r.uniform() * float64(len(routes)))
	if k >= len(routes) {
		k = len(routes) - 1
	}
	pos := int(r.uniform() * float64(len(routes[k])+1))
	if pos > len(routes[k]) {
		pos = len(routes[k])
	}
	routes[k] = append(routes[k][:pos], append([]Stop{s}, routes[k][pos:]...)...)
	return true
}

// pick selects a random (route, index) among non-empty routes.
func pick(routes [][]Stop, r *rng) (int, int) {
	for {
		i := int(r.uniform() * float64(len(routes)))
		if i >= len(routes) {
			i = len(routes) - 1
		}
		if len(routes[i]) == 0 {
			continue
		}
		j := int(r.uniform() * float64(len(routes[i])))
		if j >= len(routes[i]) {
			j = len(routes[i]) - 1
		}
		return i, j
	}
}

// splitByBattery splits a route into feasible flights greedily: each flight
// respects the battery budget and, when configured, the per-flight virtual
// drone capacity. The prefix energy of the flight under construction is
// accumulated incrementally — in the exact left-to-right addition order
// routeEnergy uses, so every trial energy (and therefore every split
// decision) is bit-identical to re-summing the whole prefix — turning the
// old O(N²) re-evaluation into O(N) total work.
func (cfg Config) splitByBattery(r Route, budget float64) []Route {
	if len(r.Stops) == 0 {
		return nil
	}
	var out []Route
	var cur []Stop
	var prefix float64 // base -> ... -> last, dwells included, return leg excluded
	var last geo.Position
	var tasks []string // distinct tasks in cur; tracked only when capped
	hasTask := func(t string) bool {
		for _, x := range tasks {
			if x == t {
				return true
			}
		}
		return false
	}
	start := func(s Stop) {
		cur = []Stop{s}
		prefix = cfg.Model.LegEnergyJ(geo.Distance3D(cfg.Base, s.Waypoint.Position), cfg.CruiseMS, 0) + s.DwellJ
		last = s.Waypoint.Position
		tasks = tasks[:0]
		if cfg.MaxTasksPerRoute > 0 {
			tasks = append(tasks, s.Task)
		}
	}
	for _, s := range r.Stops {
		if len(cur) == 0 {
			start(s)
			continue
		}
		legIn := cfg.Model.LegEnergyJ(geo.Distance3D(last, s.Waypoint.Position), cfg.CruiseMS, 0)
		legBack := cfg.Model.LegEnergyJ(geo.Distance3D(s.Waypoint.Position, cfg.Base), cfg.CruiseMS, 0)
		overBudget := prefix+legIn+s.DwellJ+legBack > budget
		newTask := cfg.MaxTasksPerRoute > 0 && !hasTask(s.Task)
		overCap := newTask && len(tasks)+1 > cfg.MaxTasksPerRoute
		if overBudget || overCap {
			out = append(out, Route{Stops: cur})
			start(s)
			continue
		}
		cur = append(cur, s)
		prefix += legIn
		prefix += s.DwellJ
		last = s.Waypoint.Position
		if newTask {
			tasks = append(tasks, s.Task)
		}
	}
	if len(cur) > 0 {
		out = append(out, Route{Stops: cur})
	}
	return out
}

func cloneRoutes(routes [][]Stop) [][]Stop {
	out := make([][]Stop, len(routes))
	for i, r := range routes {
		out[i] = append([]Stop(nil), r...)
	}
	return out
}

// OperatingWindow estimates when a task's first waypoint will be reached
// within a plan, as offsets in seconds from flight start — the estimate the
// portal shows users so they can take over control on time.
func (p *Plan) OperatingWindow(cfg Config, task string) (startS, endS float64, err error) {
	for _, r := range p.Routes {
		var t float64
		prev := p.Base
		for _, s := range r.Stops {
			t += geo.Distance3D(prev, s.Waypoint.Position) / cfg.CruiseMS
			if s.Task == task {
				return t, t + s.DwellS, nil
			}
			t += s.DwellS
			prev = s.Waypoint.Position
		}
	}
	return 0, 0, fmt.Errorf("planner: task %q not in plan", task)
}

// Validate checks plan invariants: every task waypoint appears exactly once
// and every route respects the battery budget.
func (p *Plan) Validate(cfg Config, tasks []Task) error {
	want := make(map[string]bool)
	for _, t := range tasks {
		for i := range t.Waypoints {
			want[fmt.Sprintf("%s/%d", t.ID, i)] = true
		}
	}
	budget := cfg.BatteryJ * (1 - cfg.ReserveFrac)
	for _, r := range p.Routes {
		if e := cfg.routeEnergy(r.Stops); e > budget+1e-6 {
			return fmt.Errorf("planner: route %d energy %.0f exceeds budget %.0f", r.Drone, e, budget)
		}
		if cfg.MaxTasksPerRoute > 0 {
			if n := distinctTasks(r.Stops); n > cfg.MaxTasksPerRoute {
				return fmt.Errorf("planner: route %d carries %d virtual drones, cap %d",
					r.Drone, n, cfg.MaxTasksPerRoute)
			}
		}
		for _, s := range r.Stops {
			key := fmt.Sprintf("%s/%d", s.Task, s.Index)
			if !want[key] {
				return fmt.Errorf("planner: stop %s duplicated or unknown", key)
			}
			delete(want, key)
		}
	}
	if len(want) > 0 {
		return fmt.Errorf("planner: %d waypoints unplanned", len(want))
	}
	// Ordered tasks must be visited in ascending index order across the
	// plan's route sequence.
	lastIdx := make(map[string]int)
	for _, t := range tasks {
		if t.Ordered {
			lastIdx[t.ID] = -1
		}
	}
	for _, r := range p.Routes {
		for _, s := range r.Stops {
			prev, tracked := lastIdx[s.Task]
			if !tracked {
				continue
			}
			if s.Index <= prev {
				return fmt.Errorf("planner: ordered task %s visited out of order (%d after %d)",
					s.Task, s.Index, prev)
			}
			lastIdx[s.Task] = s.Index
		}
	}
	return nil
}

// --------------------------------------------------------------------------

type rng struct{ state uint64 }

func newRNG(seed string) *rng {
	h := fnv.New64a()
	h.Write([]byte(seed))
	s := h.Sum64()
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	return &rng{state: s}
}

func (r *rng) next() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

func (r *rng) uniform() float64 { return (float64(r.next()>>11) + 0.5) / (1 << 53) }
