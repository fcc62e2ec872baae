// Exported benchmark hooks: thin wrappers over the unexported annealing
// machinery so androne-bench can time the incremental kernel against the
// cloning baseline and drive the parity gate, without widening the planner
// API surface.

package planner

import "fmt"

// BaselineAnneal runs the pre-kernel cloning annealer for the configured
// iteration count on the greedy seed and returns its final float objective.
// Every iteration clones all routes and recomputes the full O(N) cost —
// the shape Plan had before the incremental kernel.
func (cfg Config) BaselineAnneal(tasks []Task) float64 {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 20000
	}
	cfg.ordered = orderedSet(tasks)
	routes := cfg.greedy(explode(tasks))
	return cfg.cost(cfg.baselineAnneal(routes))
}

// KernelAnneal sets up one incremental-kernel chain (the problem, its leg
// table and the greedy seed) and returns the chain: a function that runs
// it for the configured iteration count (single restart, same Seed) and
// returns the best integer cost found. The set-up is done when
// KernelAnneal returns, so a caller times the moves apart from it.
func (cfg Config) KernelAnneal(tasks []Task) (chain func() int64) {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 20000
	}
	ordered := orderedSet(tasks)
	cfg.ordered = ordered
	stops := explode(tasks)
	prob := cfg.newProblem(stops, ordered)
	k := newKernel(prob)
	k.load(cfg.greedyOrder(stops))
	return func() int64 {
		k.anneal(newRNG(cfg.Seed), cfg.Iterations)
		return k.bestCost
	}
}

// KernelParity drives `moves` kernel moves (unconditionally accepted, so
// the tour wanders far from the seed) and after every move compares the
// incrementally-maintained cost against the naive from-scratch kernel.
// Returns the number of moves checked; a non-nil error reports the first
// bit-level mismatch.
func (cfg Config) KernelParity(tasks []Task, moves int) (int, error) {
	ordered := orderedSet(tasks)
	cfg.ordered = ordered
	stops := explode(tasks)
	prob := cfg.newProblem(stops, ordered)
	if prob.n == 0 || (prob.n == 1 && prob.nRoutes == 1) {
		return 0, nil
	}
	k := newKernel(prob)
	k.load(cfg.greedyOrder(stops))
	if got, want := k.cost(), k.recompute(); got != want {
		return 0, fmt.Errorf("planner: seed cost mismatch: incremental %d, naive %d", got, want)
	}
	r := newRNG(cfg.Seed + "/parity")
	for i := 0; i < moves; i++ {
		k.apply(k.randomMove(r))
		if got, want := k.cost(), k.recompute(); got != want {
			return i, fmt.Errorf("planner: cost mismatch after move %d: incremental %d, naive %d", i, got, want)
		}
	}
	return moves, nil
}

func orderedSet(tasks []Task) map[string]bool {
	ordered := make(map[string]bool)
	for _, t := range tasks {
		if t.Ordered {
			ordered[t.ID] = true
		}
	}
	return ordered
}
