package planner

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"androne/internal/geo"
)

// genTasks builds a deterministic random instance around the test base.
func genTasks(r *rng, nTasks, maxWp int, orderedFrac float64) []Task {
	tasks := make([]Task, 0, nTasks)
	for i := 0; i < nTasks; i++ {
		nw := 1 + int(r.uniform()*float64(maxWp))
		if nw > maxWp {
			nw = maxWp
		}
		wps := make([]geo.Waypoint, nw)
		for j := range wps {
			wps[j] = wpAt(r.uniform()*1600-800, r.uniform()*1600-800)
		}
		tasks = append(tasks, Task{
			ID: fmt.Sprintf("t%03d", i), Waypoints: wps,
			EnergyJ:   2000 + r.uniform()*28000,
			DurationS: 30 + r.uniform()*240,
			Ordered:   r.uniform() < orderedFrac,
		})
	}
	return tasks
}

// loadKernel builds a problem + kernel seeded by greedy for the tasks.
func loadKernel(cfg Config, tasks []Task) (*problem, *kernel) {
	ordered := orderedSet(tasks)
	cfg.ordered = ordered
	stops := explode(tasks)
	prob := cfg.newProblem(stops, ordered)
	k := newKernel(prob)
	k.load(cfg.greedyOrder(stops))
	return prob, k
}

func TestKernelParityRandomMoves(t *testing.T) {
	// The incremental cost must equal the naive from-scratch cost
	// bit-for-bit after every move, across fleet sizes, ordering
	// constraints, and capacity caps.
	for _, tc := range parityCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(base)
			cfg.FleetSize = tc.fleet
			cfg.MaxTasksPerRoute = tc.cap
			cfg.Seed = "parity-" + tc.name
			tasks := genTasks(newRNG(tc.name), 30, 3, tc.ordered)
			if n, err := cfg.KernelParity(tasks, 2000); err != nil {
				t.Fatalf("after %d moves: %v", n, err)
			}
		})
	}
}

// parityCases are the kernel configurations the parity and eval tests run.
var parityCases = []struct {
	name    string
	fleet   int
	cap     int
	ordered float64
}{
	{"single-route", 1, 0, 0},
	{"fleet", 4, 0, 0},
	{"ordered", 3, 0, 0.5},
	{"capped", 3, 3, 0.3},
}

func TestKernelEvalExact(t *testing.T) {
	// eval(m) must equal cost() after apply(m) bit for bit. Every 500
	// moves the kernel is reloaded with every stop on route 0, so the walk
	// keeps meeting empty routes as well as adjacent swaps.
	const moves = 20000
	for _, tc := range parityCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(base)
			cfg.FleetSize = tc.fleet
			cfg.MaxTasksPerRoute = tc.cap
			prob, k := loadKernel(cfg, genTasks(newRNG("eval-"+tc.name), 30, 3, tc.ordered))
			all := make([]int32, prob.n)
			for i := range all {
				all[i] = int32(i)
			}
			r := newRNG("eval/" + tc.name)
			var adjacent, intoEmpty int
			for i := 0; i < moves; i++ {
				if i%500 == 0 {
					k.load([][]int32{all})
				}
				m := k.randomMove(r)
				if m.kind == moveSwap && (k.next[m.a] == m.b || k.next[m.b] == m.a) {
					adjacent++
				}
				if m.kind == moveRelocate && k.next[m.b] == m.b {
					intoEmpty++
				}
				want := k.eval(m)
				k.apply(m)
				if got := k.cost(); got != want {
					t.Fatalf("move %d %+v: eval %d, cost after apply %d", i, m, want, got)
				}
				if i%1000 == 999 {
					if got, naive := k.cost(), k.recompute(); got != naive {
						t.Fatalf("move %d: incremental %d != naive %d", i, got, naive)
					}
					for x := int32(0); x < int32(k.nNodes); x++ {
						if got, want := k.edge[x], k.legs.cost(x, k.next[x]); got != want {
							t.Fatalf("move %d: edge %d -> %d cached as %+v, costs %+v", i, x, k.next[x], got, want)
						}
					}
				}
			}
			if adjacent == 0 || (tc.fleet > 1 && intoEmpty == 0) {
				t.Fatalf("walk met %d adjacent swaps and %d relocations into empty routes", adjacent, intoEmpty)
			}
		})
	}
}

func TestKernelLegCostsExact(t *testing.T) {
	// Every leg cost the kernel reads, route sentinels included, is the
	// unit conversion of geo.Distance3D between the two positions, whether
	// the lookup fills the cache, hits it (each pair is read in both
	// orders) or goes through the probe table above legDenseLimit.
	check := func(name string, cfg Config, tasks []Task) {
		t.Helper()
		_, k := loadKernel(cfg, tasks)
		p := k.p
		pos := func(x int) geo.Position {
			if x >= p.n {
				return p.base
			}
			return p.stops[x].Waypoint.Position
		}
		for i := 0; i < k.nNodes; i++ {
			for j := 0; j < k.nNodes; j++ {
				d := geo.Distance3D(pos(i), pos(j))
				want := legCost{int64(d*p.durPerM*unitScale + 0.5), int64(d*p.enPerM*unitScale + 0.5)}
				if got := k.legs.cost(int32(i), int32(j)); got != want {
					t.Fatalf("%s: leg %d -> %d costs %+v, Distance3D gives %+v", name, i, j, got, want)
				}
			}
		}
	}
	for _, in := range pinCorpus() {
		check(in.cfg.Seed, in.cfg, in.tasks)
	}
	cfg := DefaultConfig(base)
	cfg.FleetSize = 3
	tasks := genTasks(newRNG("legs-probe"), legDenseLimit+40, 1, 0)
	if n := len(explode(tasks)); n+1 <= legDenseLimit {
		t.Fatalf("%d stops fit the dense cache", n)
	}
	check("probe", cfg, tasks)
}

// permutations calls f with every order of 0..n-1 (Heap's algorithm).
func permutations(n int, f func([]int32)) {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	var gen func(m int)
	gen = func(m int) {
		if m <= 1 {
			f(perm)
			return
		}
		for i := 0; i < m; i++ {
			gen(m - 1)
			if m%2 == 0 {
				perm[i], perm[m-1] = perm[m-1], perm[i]
			} else {
				perm[0], perm[m-1] = perm[m-1], perm[0]
			}
		}
	}
	gen(n)
}

func TestKernelFloor(t *testing.T) {
	// On every one-route instance of the pinned corpus with at most
	// floorStops stops, the floor equals the least recompute() over all
	// stop orders; larger or multi-route problems have none.
	checked := 0
	for _, in := range pinCorpus() {
		cfg := in.cfg
		prob, k := loadKernel(cfg, in.tasks)
		if cfg.FleetSize != 1 || prob.n > floorStops {
			if k.floor != noFloor {
				t.Fatalf("%s: %d stops on %d routes, floor %d", in.group, prob.n, cfg.FleetSize, k.floor)
			}
			continue
		}
		brute := int64(math.MaxInt64)
		permutations(prob.n, func(perm []int32) {
			k.load([][]int32{perm})
			if c := k.recompute(); c < brute {
				brute = c
			}
		})
		if k.floor != brute {
			t.Fatalf("%s %s: floor %d, brute-force minimum %d", in.group, cfg.Seed, k.floor, brute)
		}
		checked++
	}
	if checked != 432 {
		t.Fatalf("checked %d one-route instances, want 432", checked)
	}
}

func TestKernelMetropolisShortcut(t *testing.T) {
	// accept refuses without math.Exp when x < metropolisFloor. That is
	// the plain test's verdict only because uniform's least value, at
	// next()>>11 == 0, is 2^-54 and e^x lies below it for every such x.
	r := &rng{state: unxorshift(1)}
	if got := r.uniform(); got != 0x1p-54 {
		t.Fatalf("uniform at next()==1 is %g, want 2^-54", got)
	}
	for x := float64(metropolisFloor); x > -800; x -= 0.37 {
		if math.Exp(x) >= 0x1p-54 {
			t.Fatalf("e^%g is not below 2^-54", x)
		}
	}
}

// unxorshift returns the state whose next() is y, inverting each of
// rng.next's three xorshift steps in reverse order.
func unxorshift(y uint64) uint64 {
	undoLeft := func(y uint64, s uint) uint64 {
		x := y
		for i := s; i < 64; i += s {
			x ^= y << i
		}
		return x
	}
	undoRight := func(y uint64, s uint) uint64 {
		x := y
		for i := s; i < 64; i += s {
			x ^= y >> i
		}
		return x
	}
	return undoLeft(undoRight(undoLeft(y, 17), 7), 13)
}

func TestKernelStepZeroAlloc(t *testing.T) {
	// The warm move loop is pinned at zero allocations per step.
	cfg := DefaultConfig(base)
	cfg.FleetSize = 3
	tasks := genTasks(newRNG("alloc"), 40, 3, 0.3)
	_, k := loadKernel(cfg, tasks)
	r := newRNG("alloc/run")
	for i := 0; i < 5000; i++ {
		k.step(r, 1e9)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			k.step(r, 1e9)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm move loop allocates %.2f times per 100 steps, want 0", allocs)
	}
}

func TestKernelAnnealNeverWorseThanSeed(t *testing.T) {
	// Property: anneal never returns a tour costlier than its input, and
	// the best snapshot really has the reported cost.
	for _, seed := range []string{"p1", "p2", "p3"} {
		cfg := DefaultConfig(base)
		cfg.FleetSize = 2
		tasks := genTasks(newRNG(seed), 25, 3, 0.3)
		prob, k := loadKernel(cfg, tasks)
		seedCost := k.cost()
		k.anneal(newRNG(seed+"/chain"), 4000)
		if k.bestCost > seedCost {
			t.Fatalf("seed %s: anneal best %d worse than input %d", seed, k.bestCost, seedCost)
		}
		// Reload the kernel from the best snapshot: its cost must equal
		// the reported bestCost bit-for-bit.
		routes := make([][]int32, prob.nRoutes)
		for ri := 0; ri < prob.nRoutes; ri++ {
			s := int32(prob.n + ri)
			for x := k.bestNext[s]; x != s; x = k.bestNext[x] {
				routes[ri] = append(routes[ri], x)
			}
		}
		best := k.bestCost
		k.load(routes)
		if k.cost() != best {
			t.Fatalf("seed %s: snapshot cost %d != reported best %d", seed, k.cost(), best)
		}
	}
}

func TestPlanRestartDeterminism(t *testing.T) {
	// The winning plan is bit-identical at any worker count.
	cfg := DefaultConfig(base)
	cfg.FleetSize = 3
	cfg.Restarts = 6
	cfg.Iterations = 3000
	tasks := genTasks(newRNG("det"), 30, 3, 0.3)

	cfg.Workers = 1
	serial, err := cfg.Plan(tasks)
	if err != nil {
		t.Fatal(err)
	}
	// At least 4 workers so the pool really interleaves on small hosts.
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	cfg.Workers = workers
	parallel, err := cfg.Plan(tasks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("plan differs between workers=1 and workers=%d", workers)
	}
	if err := serial.Validate(cfg, tasks); err != nil {
		t.Fatal(err)
	}
}

// splitByBatteryRef is the pre-incremental splitByBattery, kept verbatim as
// the reference: the incremental version must reproduce its output exactly.
func splitByBatteryRef(cfg Config, r Route, budget float64) []Route {
	if len(r.Stops) == 0 {
		return nil
	}
	var out []Route
	var cur []Stop
	for _, s := range r.Stops {
		trial := append(append([]Stop(nil), cur...), s)
		overBudget := cfg.routeEnergy(trial) > budget
		overCap := cfg.MaxTasksPerRoute > 0 && distinctTasks(trial) > cfg.MaxTasksPerRoute
		if (overBudget || overCap) && len(cur) > 0 {
			out = append(out, Route{Stops: cur})
			cur = []Stop{s}
			continue
		}
		cur = trial
	}
	if len(cur) > 0 {
		out = append(out, Route{Stops: cur})
	}
	return out
}

func TestSplitByBatteryMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		cap  int
		frac float64 // budget as a fraction of the route's total energy
	}{
		{"loose", 0, 1.5},
		{"tight", 0, 0.3},
		{"very-tight", 0, 0.12},
		{"capped", 2, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(base)
			cfg.MaxTasksPerRoute = tc.cap
			stops := explode(genTasks(newRNG("split-"+tc.name), 20, 3, 0))
			total := cfg.routeEnergy(stops)
			budget := total * tc.frac
			got := cfg.splitByBattery(Route{Stops: stops}, budget)
			want := splitByBatteryRef(cfg, Route{Stops: stops}, budget)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("incremental split differs from reference: %d vs %d flights", len(got), len(want))
			}
		})
	}
}

func TestGreedySeedQuality(t *testing.T) {
	// The nearest-neighbor seed must never cost more than a random-order
	// round-robin seed on the benchmark-style instances.
	for _, seed := range []string{"g1", "g2", "g3"} {
		cfg := DefaultConfig(base)
		cfg.FleetSize = 3
		stops := explode(genTasks(newRNG(seed), 40, 2, 0))
		cfg.ordered = map[string]bool{}

		greedyCost := cfg.cost(cfg.greedy(stops))

		// Random-order seed: shuffle, then deal round-robin.
		r := newRNG(seed + "/shuffle")
		perm := make([]int, len(stops))
		for i := range perm {
			perm[i] = i
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := kintn(r, i+1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		random := make([][]Stop, cfg.FleetSize)
		for i, pi := range perm {
			random[i%cfg.FleetSize] = append(random[i%cfg.FleetSize], stops[pi])
		}
		randomCost := cfg.cost(random)

		if greedyCost > randomCost {
			t.Fatalf("seed %s: greedy cost %.1f worse than random seed %.1f", seed, greedyCost, randomCost)
		}
	}
}

func TestPlanStopsReplansSubset(t *testing.T) {
	// PlanStops is the campaign re-planning entry point: planning a subset
	// of exploded stops must yield a plan covering exactly those stops.
	cfg := DefaultConfig(base)
	cfg.FleetSize = 2
	tasks := genTasks(newRNG("replan"), 10, 3, 0.3)
	stops := explode(tasks)
	subset := stops[len(stops)/2:]
	var orderedIDs []string
	for _, task := range tasks {
		if task.Ordered {
			orderedIDs = append(orderedIDs, task.ID)
		}
	}
	plan, err := cfg.PlanStops(append([]Stop(nil), subset...), orderedIDs)
	if err != nil {
		t.Fatal(err)
	}
	planned := 0
	for _, r := range plan.Routes {
		planned += len(r.Stops)
	}
	if planned != len(subset) {
		t.Fatalf("replanned %d stops, want %d", planned, len(subset))
	}
	// Ordered tasks keep ascending index order in the replanned remainder.
	ordered := make(map[string]bool)
	for _, id := range orderedIDs {
		ordered[id] = true
	}
	last := make(map[string]int)
	for _, r := range plan.Routes {
		for _, s := range r.Stops {
			if !ordered[s.Task] {
				continue
			}
			if prev, ok := last[s.Task]; ok && s.Index <= prev {
				t.Fatalf("ordered task %s replanned out of order (%d after %d)", s.Task, s.Index, prev)
			}
			last[s.Task] = s.Index
		}
	}
}
