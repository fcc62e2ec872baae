// Package hotpath statically enforces the zero-allocation, bounded-blocking
// contract on the fleet's hot paths. Functions annotated with a
//
//	//vet:hotpath <reason>
//
// doc-comment directive are contract roots: the root and everything it
// transitively calls through static edges must not allocate and must not
// block on locks outside the sanctioned owner-lock idioms (the VFC serial
// endpoint, the telemetry recorder's ring and stripe locks — the same set
// locksafe models as leaf-ordered).
//
// The analyzer consumes the framework's effect-summary engine. Interface
// call edges are deliberately NOT followed: the hot paths treat dynamic
// dispatch as a foreign-code trust boundary (the flight fast loop's
// documented rule that no lock is held across foreign code), and each
// implementation seam is covered dynamically by the AllocsPerRun pins the
// hotpath verdicts cross-check. Function-value and reflection calls are
// likewise unresolved — the engine's documented caveat.
//
// Two escape hatches, both reviewed-in-code:
//
//   - //vet:allow hotpath <reason> on the offending line, for sites that
//     are intentional (a cold error path, a once-per-drone lazy init).
//   - //vet:summary effects=... <reason> on a callee, for functions whose
//     computed summary is wrong (scratch reuse the engine cannot see). The
//     declared bitset is still enforced — an override that declares
//     Allocates or BlocksOnLock is convicted at its declaration, so
//     overrides cannot launder a real effect, only correct a false one.
//
// Malformed //vet:summary directives are reported by this analyzer so a
// typo cannot silently disable an override.
package hotpath

import (
	"go/types"

	"androne/internal/analysis/framework"
)

// Analyzer is the hotpath analyzer.
var Analyzer = &framework.Analyzer{
	Name: "hotpath",
	Doc: "//vet:hotpath-annotated functions and their static callees must be " +
		"allocation-free and must not block on locks outside the sanctioned " +
		"owner-lock idioms",
	Run: run,
}

// RootDirective marks a hot-path contract root in a function's doc comment.
const RootDirective = "//vet:hotpath"

// forbidden is the effect mask hotpath convicts.
const forbidden = framework.EffAllocates | framework.EffBlocksOnLock

// sanctionedLocks are the owner-lock idioms a hot path may block on,
// keyed by the effect site's rendered lock identity. The list itself lives
// in framework.SanctionedHotPathLocks, shared with lockorder's
// critical-path rule so the two analyzers can never disagree about what a
// hot path may hold.
var sanctionedLocks = func() map[string]bool {
	m := make(map[string]bool, len(framework.SanctionedHotPathLocks))
	for id := range framework.SanctionedHotPathLocks {
		m["lock "+string(id)] = true
	}
	return m
}()

// closure computes, once per Program, the hot closure: every function
// statically reachable from a //vet:hotpath root, mapped to the first root
// that reaches it (declaration order, so the attribution is deterministic).
func closure(prog *framework.Program) map[*types.Func]*types.Func {
	return prog.Memo("hotpath.closure", func() any {
		return framework.EffectClosure(prog, RootDirective, false)
	}).(map[*types.Func]*types.Func)
}

func run(pass *framework.Pass) error {
	prog := pass.Program
	if prog == nil {
		return nil
	}
	world := prog.Effects()
	reached := closure(prog)

	for _, bad := range world.BadDirectives {
		if pkg := prog.PackageOf(bad.Pos); pkg != nil && pkg.Pkg == pass.Pkg {
			pass.Reportf(bad.Pos, "%s", bad.Detail)
		}
	}

	for _, src := range prog.Funcs() {
		if src.Pkg.Pkg != pass.Pkg {
			continue
		}
		root, ok := reached[src.Fn]
		if !ok {
			continue
		}
		s := world.Summary(src.Fn)
		if s == nil {
			continue
		}
		from := framework.FuncLabel(root)
		if s.Overridden {
			// An override is trusted not to hide effects it does not declare —
			// but the effects it does declare are still on the hot path.
			if s.Total.Has(framework.EffAllocates) {
				pass.Reportf(src.Decl.Pos(), "hot path from %s allocates: //vet:summary declares Allocates", from)
			}
			if s.Total.Has(framework.EffBlocksOnLock) {
				pass.Reportf(src.Decl.Pos(), "hot path from %s blocks: //vet:summary declares BlocksOnLock", from)
			}
			continue
		}
		for _, site := range s.Sites {
			if site.Effect&forbidden == 0 {
				continue
			}
			if site.Effect.Has(framework.EffAllocates) {
				pass.Reportf(site.Pos, "hot path from %s allocates: %s", from, site.Detail)
			}
			if site.Effect.Has(framework.EffBlocksOnLock) && !sanctionedLocks[site.Detail] {
				pass.Reportf(site.Pos, "hot path from %s blocks: %s", from, site.Detail)
			}
		}
	}
	return nil
}
