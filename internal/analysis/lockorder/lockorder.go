// Package lockorder statically enforces deadlock freedom and the
// critical-path blocking contract over the repository's named mutexes. It
// consumes the framework's interprocedural lock-set engine (held-lock sets
// propagated bottom-up over the call graph, acquisition-order edges with
// witnesses) and convicts three things:
//
//   - Inconsistent acquisition pairs: some path acquires A then B while
//     another acquires B then A. Both witness paths are named in the
//     finding — the classic two-thread deadlock needs exactly this pair.
//   - Cycles of length three or more in the global acquisition-order
//     graph, reported once with the full witness chain.
//   - Declared-rank violations: the repository's sanctioned global order
//     is declared with //vet:lockrank <rank> <lock> directives (ascending
//     rank = acquisition order); an edge from a higher- or equal-ranked
//     lock into a lower-ranked one is convicted naming both ranks, so a
//     future violation says exactly which rule it broke even before the
//     reverse edge exists in the tree.
//
// The critical-path rule is AnDrone's DoS-resilience contract (Chen et
// al., PAPERS.md): flight-critical code — everything statically reachable
// from a //vet:hotpath root — must never acquire a lock that tenant-
// reachable code (binder transaction handlers, portal HTTP handlers) can
// also hold, unless the lock is on the reviewed sanctioned hot-path list
// shared with the hotpath analyzer. A tenant that can make the flight
// loop wait on its lock owns the flight loop's deadline.
//
// Lock identities are canonical pkg.Type.field names; locks the engine
// cannot name (local mutex variables), function values, and reflection are
// outside the proof — the framework's documented caveat. TryLock sites
// cannot block and receive no incoming edge, but a try-held lock's
// outgoing edges are real. Suppression is the usual reviewed
// //vet:allow lockorder on the witness line.
package lockorder

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"androne/internal/analysis/framework"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &framework.Analyzer{
	Name: "lockorder",
	Doc: "convict lock-acquisition-order cycles and inconsistent pairs " +
		"(potential deadlocks), //vet:lockrank violations, and hot-path " +
		"acquisitions of tenant-reachable locks outside the sanctioned set",
	Run: run,
}

// HotRootDirective mirrors hotpath.RootDirective without importing the
// analyzer: the critical-path rule walks the same closure.
const HotRootDirective = "//vet:hotpath"

func run(pass *framework.Pass) error {
	prog := pass.Program
	if prog == nil {
		return nil
	}
	world := prog.LockSets()

	inPkg := func(pos token.Pos) bool {
		pkg := prog.PackageOf(pos)
		return pkg != nil && pkg.Pkg == pass.Pkg
	}

	for _, bad := range world.BadRankDirectives {
		if inPkg(bad.Pos) {
			pass.Reportf(bad.Pos, "%s", bad.Detail)
		}
	}

	reportPairs(pass, world, inPkg)
	reportCycles(pass, world, inPkg)
	reportRankViolations(pass, world, inPkg)
	reportCriticalPath(pass, prog, world)
	return nil
}

// witness renders one edge's acquisition path for a finding.
func witness(pass *framework.Pass, e *framework.LockEdge) string {
	if e.Via == nil {
		return fmt.Sprintf("%s acquires %s at %s while holding %s",
			framework.FuncLabel(e.Fn), e.To, pass.ShortPos(e.Pos), e.From)
	}
	return fmt.Sprintf("%s calls %s at %s while holding %s; %s acquires %s at %s",
		framework.FuncLabel(e.Fn), framework.FuncLabel(e.Via), pass.ShortPos(e.Pos),
		e.From, framework.FuncLabel(e.AcqFn), e.To, pass.ShortPos(e.AcqPos))
}

// reportPairs convicts inconsistent A→B / B→A acquisition pairs, one
// finding per unordered pair, positioned at the lexically-first edge's
// witness site and naming both paths.
func reportPairs(pass *framework.Pass, world *framework.LockWorld, inPkg func(token.Pos) bool) {
	for _, e := range world.Edges {
		if e.From >= e.To {
			continue // report each pair once, keyed by the A<B edge
		}
		rev := world.Edge(e.To, e.From)
		if rev == nil {
			continue
		}
		if !inPkg(e.Pos) {
			continue
		}
		pass.Reportf(e.Pos,
			"inconsistent lock order (potential deadlock): %s -> %s here (%s), but %s -> %s elsewhere (%s)",
			e.From, e.To, witness(pass, e), rev.From, rev.To, witness(pass, rev))
	}
}

// reportCycles convicts acquisition-order cycles of length >= 3 (pairs are
// reportPairs' jurisdiction). Cycles are found per strongly-connected
// component and each is reported once, at the witness site of the edge
// leaving the component's smallest lock, with the full chain named.
func reportCycles(pass *framework.Pass, world *framework.LockWorld, inPkg func(token.Pos) bool) {
	adj := make(map[framework.LockID][]*framework.LockEdge)
	nodes := make(map[framework.LockID]bool)
	for _, e := range world.Edges {
		adj[e.From] = append(adj[e.From], e)
		nodes[e.From], nodes[e.To] = true, true
	}
	for _, edges := range adj {
		sort.Slice(edges, func(i, j int) bool { return edges[i].To < edges[j].To })
	}
	for _, scc := range sccs(nodes, adj) {
		if len(scc) < 3 {
			continue
		}
		in := make(map[framework.LockID]bool, len(scc))
		for _, id := range scc {
			in[id] = true
		}
		chain := cycleWitness(scc[0], in, adj)
		if len(chain) < 3 {
			continue // the SCC's >= 3 nodes collapse to a 2-cycle through this start
		}
		var parts []string
		for _, e := range chain {
			parts = append(parts, fmt.Sprintf("%s -> %s (%s)", e.From, e.To, witness(pass, e)))
		}
		if inPkg(chain[0].Pos) {
			pass.Reportf(chain[0].Pos, "lock-order cycle (potential deadlock): %s", strings.Join(parts, ", "))
		}
	}
}

// sccs is Tarjan's algorithm over the lock graph, visiting nodes in sorted
// order so component order and member order are deterministic.
func sccs(nodes map[framework.LockID]bool, adj map[framework.LockID][]*framework.LockEdge) [][]framework.LockID {
	order := make([]framework.LockID, 0, len(nodes))
	for id := range nodes {
		order = append(order, id)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	index := make(map[framework.LockID]int, len(nodes))
	low := make(map[framework.LockID]int, len(nodes))
	onStack := make(map[framework.LockID]bool)
	var stack []framework.LockID
	var out [][]framework.LockID
	next := 0

	var strongconnect func(v framework.LockID)
	strongconnect = func(v framework.LockID) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, e := range adj[v] {
			w := e.To
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []framework.LockID
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
			out = append(out, comp)
		}
	}
	for _, id := range order {
		if _, seen := index[id]; !seen {
			strongconnect(id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// cycleWitness walks greedily (smallest successor inside the component
// first) from start until a node repeats, returning the closed edge chain.
func cycleWitness(start framework.LockID, in map[framework.LockID]bool, adj map[framework.LockID][]*framework.LockEdge) []*framework.LockEdge {
	var chain []*framework.LockEdge
	visitedAt := map[framework.LockID]int{start: 0}
	cur := start
	for {
		var step *framework.LockEdge
		for _, e := range adj[cur] {
			if in[e.To] {
				step = e
				break
			}
		}
		if step == nil {
			return nil // cannot happen inside an SCC, defensive
		}
		chain = append(chain, step)
		cur = step.To
		if at, seen := visitedAt[cur]; seen {
			return chain[at:]
		}
		visitedAt[cur] = len(chain)
	}
}

// reportRankViolations convicts edges that break the //vet:lockrank-
// declared global order: ascending rank is the sanctioned acquisition
// order and equal-ranked locks must never nest.
func reportRankViolations(pass *framework.Pass, world *framework.LockWorld, inPkg func(token.Pos) bool) {
	for _, e := range world.Edges {
		fromRank, okF := world.Ranks[e.From]
		toRank, okT := world.Ranks[e.To]
		if !okF || !okT || fromRank.Rank < toRank.Rank {
			continue
		}
		if !inPkg(e.Pos) {
			continue
		}
		if fromRank.Rank == toRank.Rank {
			pass.Reportf(e.Pos,
				"lock order breaks //vet:lockrank: %s and %s share rank %d and must never nest (%s)",
				e.From, e.To, fromRank.Rank, witness(pass, e))
			continue
		}
		pass.Reportf(e.Pos,
			"lock order breaks //vet:lockrank: %s (rank %d) must be acquired before %s (rank %d), not under it (%s)",
			e.To, toRank.Rank, e.From, fromRank.Rank, witness(pass, e))
	}
}

// reportCriticalPath enforces the flight-critical blocking contract: no
// function reachable from a //vet:hotpath root may acquire a lock that is
// also acquired on any tenant-reachable path (binder Handler entries,
// portal HTTP handlers), unless the lock is on the sanctioned hot-path
// list. Try-acquisitions on the hot side still convict — a try-held
// tenant lock stalls the tenant, and a tenant-held lock makes the hot
// side's TryLock fail persistently, which is a liveness bug of its own.
func reportCriticalPath(pass *framework.Pass, prog *framework.Program, world *framework.LockWorld) {
	hot := prog.Memo("lockorder.hotclosure", func() any {
		return framework.EffectClosure(prog, HotRootDirective, false)
	}).(map[*types.Func]*types.Func)
	if len(hot) == 0 {
		return
	}
	tenant := prog.TenantReachable()
	if len(tenant) == 0 {
		return
	}

	// tenantLocks: every named lock some tenant-reachable function may
	// acquire (try or blocking), with one witness each, deterministically
	// chosen in declaration order.
	type tenantWitness struct {
		entry, fn *types.Func
		pos       token.Pos
	}
	tenantLocks := prog.Memo("lockorder.tenantlocks", func() any {
		locks := make(map[framework.LockID]tenantWitness)
		for _, src := range prog.Funcs() {
			entry, ok := tenant[src.Fn]
			if !ok {
				continue
			}
			info := world.Info(src.Fn)
			if info == nil {
				continue
			}
			for _, a := range info.Acqs {
				if _, seen := locks[a.Lock]; !seen {
					locks[a.Lock] = tenantWitness{entry: entry, fn: src.Fn, pos: a.Pos}
				}
			}
		}
		return locks
	}).(map[framework.LockID]tenantWitness)

	for _, src := range prog.Funcs() {
		if src.Pkg.Pkg != pass.Pkg {
			continue
		}
		root, ok := hot[src.Fn]
		if !ok {
			continue
		}
		info := world.Info(src.Fn)
		if info == nil {
			continue
		}
		for _, a := range info.Acqs {
			if framework.SanctionedHotPathLocks[a.Lock] {
				continue
			}
			tw, shared := tenantLocks[a.Lock]
			if !shared {
				continue
			}
			pass.Reportf(a.Pos,
				"flight-critical path from %s acquires %s, which tenant-reachable code also holds (%s via %s at %s); tenant work must not be able to stall the flight loop — use a sanctioned hot-path lock or decouple",
				framework.FuncLabel(root), a.Lock,
				framework.FuncLabel(tw.fn), framework.FuncLabel(tw.entry), pass.ShortPos(tw.pos))
		}
	}
}
