// Effect summaries: a bottom-up interprocedural engine that computes, for
// every function declared in a Program, a bitset of the side effects its
// body may perform — directly or through anything it (transitively) calls.
// Contract analyzers (detguard, hotpath) consume the summaries to convict,
// at vet time, code that would break the repository's determinism or
// zero-allocation contracts long before a replay test or AllocsPerRun pin
// catches it at run time.
//
// The engine is deliberately syntactic and conservative-by-category rather
// than sound in the escape-analysis sense:
//
//   - Allocates covers make/new, map and slice literals, &T{} literals,
//     func literals, go statements, string concatenation, and
//     string<->[]byte/[]rune conversions. `append` is deliberately NOT an
//     allocation: the repo's hot paths append into preallocated scratch
//     (amortized, zero-alloc in steady state), and the AllocsPerRun pins
//     cross-check that assumption dynamically. Interface boxing and map
//     growth on assignment are likewise out of scope (documented caveat).
//   - RangesMap marks `range` over a map — nondeterministic iteration
//     order — except in functions that also call into package sort, the
//     range-then-sort idiom that re-establishes a deterministic order.
//   - Clock, scheduler, and global-rand reads, blocking operations, and
//     multi-case selects come from a small table of standard-library leaf
//     functions plus direct syntax (select statements, channel operations).
//
// Calls to functions outside the Program that are not in the leaf table
// default to "no effect" (optimistic): the alternative — pessimism — would
// drown every analyzer in findings about fmt.Println-shaped unknowns. The
// stats record how many callees were defaulted so a report can surface the
// trust surface.
//
// A function may override its computed summary with a declaration directive
// in its doc comment:
//
//	//vet:summary effects=none <reason>
//	//vet:summary effects=Allocates,BlocksOnLock <reason>
//
// Overridden functions are trusted: their declared bitset is used verbatim
// and their bodies and callees are not traversed. Like //vet:allow, the
// directive is for documented, reviewed exceptions.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Effect is a bitset of side-effect categories.
type Effect uint16

// The effect categories the engine tracks.
const (
	// EffAllocates: the function may allocate on the heap.
	EffAllocates Effect = 1 << iota
	// EffRangesMap: the function ranges over a map without re-sorting.
	EffRangesMap
	// EffReadsClock: the function reads the wall clock (time.Now et al).
	EffReadsClock
	// EffReadsGlobalRand: the function draws from math/rand's global source.
	EffReadsGlobalRand
	// EffReadsSchedulerState: the function reads runtime.NumCPU/GOMAXPROCS/
	// NumGoroutine — values that differ across hosts and worker counts.
	EffReadsSchedulerState
	// EffSelectsUnordered: the function executes a select with two or more
	// cases, whose winner is scheduler-dependent when several are ready.
	EffSelectsUnordered
	// EffSpawnsGoroutine: the function starts a goroutine.
	EffSpawnsGoroutine
	// EffBlocksOnLock: the function may block — mutex/RWMutex lock,
	// WaitGroup/Cond wait, channel operation, or time.Sleep.
	EffBlocksOnLock
)

// effectNames maps bit order to canonical names (the //vet:summary syntax).
var effectNames = []struct {
	bit  Effect
	name string
}{
	{EffAllocates, "Allocates"},
	{EffRangesMap, "RangesMap"},
	{EffReadsClock, "ReadsClock"},
	{EffReadsGlobalRand, "ReadsGlobalRand"},
	{EffReadsSchedulerState, "ReadsSchedulerState"},
	{EffSelectsUnordered, "SelectsUnordered"},
	{EffSpawnsGoroutine, "SpawnsGoroutine"},
	{EffBlocksOnLock, "BlocksOnLock"},
}

// String renders the bitset as "Allocates|RangesMap", or "none".
func (e Effect) String() string {
	if e == 0 {
		return "none"
	}
	var parts []string
	for _, en := range effectNames {
		if e&en.bit != 0 {
			parts = append(parts, en.name)
		}
	}
	return strings.Join(parts, "|")
}

// Has reports whether every bit of f is set in e.
func (e Effect) Has(f Effect) bool { return e&f == f }

// ParseEffects parses a comma-separated effect list ("Allocates,ReadsClock")
// or the literal "none".
func ParseEffects(s string) (Effect, error) {
	if s == "none" {
		return 0, nil
	}
	var out Effect
	for _, name := range strings.Split(s, ",") {
		found := false
		for _, en := range effectNames {
			if en.name == name {
				out |= en.bit
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("unknown effect %q", name)
		}
	}
	return out, nil
}

// EffectSite is one local source position contributing an effect, with a
// human-readable detail ("make", "range over map", "lock pkg.Type.field").
type EffectSite struct {
	Pos    token.Pos
	Effect Effect
	Detail string
}

// Summary is one function's effect summary.
type Summary struct {
	Fn *types.Func
	// Local is the union of the function's own Sites.
	Local Effect
	// Total is Local plus the Total of every traversed callee (fixpoint).
	Total Effect
	// Sites are the local effect sites in source order. Transitive effects
	// are reported at the callee's own sites, never duplicated here.
	Sites []EffectSite
	// Overridden marks a //vet:summary declaration: Local and Total carry
	// the declared bitset, Sites and the callee lists are empty.
	Overridden bool
	// Callees are the deduplicated in-Program callees reached through
	// static (non-interface) calls.
	Callees []*types.Func
	// IfaceCallees are the deduplicated in-Program callees reached through
	// interface dispatch, after fan-out bounding. Analyzers that treat
	// interface calls as trust boundaries traverse Callees only.
	IfaceCallees []*types.Func
}

// EffectStats describes one engine run, for the vet report.
type EffectStats struct {
	// Functions is the number of summarized declarations.
	Functions int
	// Passes is the number of fixpoint sweeps until convergence.
	Passes int
	// Overrides counts //vet:summary-declared functions.
	Overrides int
	// LeafCalls counts call edges resolved through the stdlib leaf table.
	LeafCalls int
	// UnknownCallees counts distinct out-of-Program callees defaulted to
	// "no effect" — the engine's optimistic trust surface.
	UnknownCallees int
	// BoundedCalls counts interface call sites whose fan-out exceeded
	// MaxInterfaceFanOut and were dropped (treated as unknown).
	BoundedCalls int
}

// EffectConfig parameterizes an engine run.
type EffectConfig struct {
	// MaxInterfaceFanOut bounds how many in-Program implementations one
	// interface call site may fan out to before the engine gives up on the
	// site (treating it as an unknown callee). Guards against
	// one-method-interface explosions like fmt.Stringer.
	MaxInterfaceFanOut int
}

// DefaultMaxInterfaceFanOut is the fan-out bound analyzers run with.
const DefaultMaxInterfaceFanOut = 16

// EffectWorld is the result of one engine run over a Program.
type EffectWorld struct {
	summaries map[*types.Func]*Summary
	stats     EffectStats
	// BadDirectives are malformed //vet:summary comments (Detail holds the
	// parse error); analyzers report them as findings.
	BadDirectives []EffectSite
}

// Summary returns fn's summary, or nil for functions not declared in the
// Program.
func (w *EffectWorld) Summary(fn *types.Func) *Summary { return w.summaries[fn] }

// Stats returns the engine-run statistics.
func (w *EffectWorld) Stats() EffectStats { return w.stats }

// effectsMemoKey is the Program memo key for the default-config engine run.
const effectsMemoKey = "framework.effects"

// Effects computes (once, memoized) the Program's effect summaries with the
// default configuration. Analyzers share this run, so the fixpoint cost is
// paid once per vet session.
func (p *Program) Effects() *EffectWorld {
	return p.Memo(effectsMemoKey, func() any {
		return ComputeEffects(p, EffectConfig{MaxInterfaceFanOut: DefaultMaxInterfaceFanOut})
	}).(*EffectWorld)
}

// EffectsIfComputed returns the memoized default engine run without forcing
// a computation — the report path uses it to expose cache stats only when
// some analyzer actually needed summaries.
func (p *Program) EffectsIfComputed() (*EffectWorld, bool) {
	v, ok := p.PeekMemo(effectsMemoKey)
	if !ok {
		return nil, false
	}
	return v.(*EffectWorld), true
}

// ComputeEffects runs the engine over the Program with an explicit
// configuration. Tests use it to exercise fan-out bounding directly.
func ComputeEffects(p *Program, cfg EffectConfig) *EffectWorld {
	if cfg.MaxInterfaceFanOut <= 0 {
		cfg.MaxInterfaceFanOut = DefaultMaxInterfaceFanOut
	}
	w := &EffectWorld{summaries: make(map[*types.Func]*Summary)}
	g := p.CallGraph()
	unknown := make(map[*types.Func]bool)

	for _, src := range p.Funcs() {
		s := &Summary{Fn: src.Fn}
		w.summaries[src.Fn] = s
		w.stats.Functions++

		if eff, found, err := parseSummaryDirective(src.Decl); err != nil {
			w.BadDirectives = append(w.BadDirectives, EffectSite{
				Pos: src.Decl.Pos(), Effect: 0, Detail: err.Error(),
			})
		} else if found {
			s.Overridden = true
			s.Local, s.Total = eff, eff
			w.stats.Overrides++
			continue
		}

		s.Sites = localSites(src)
		for _, site := range s.Sites {
			s.Local |= site.Effect
		}
		w.collectCallees(src, g, cfg, unknown, s)
		sort.Slice(s.Sites, func(i, j int) bool { return s.Sites[i].Pos < s.Sites[j].Pos })
		s.Total = s.Local
	}
	w.stats.UnknownCallees = len(unknown)

	// Bottom-up fixpoint: effects only accumulate, so iteration converges
	// in at most (longest acyclic call chain) sweeps; mutual recursion is
	// handled by re-sweeping until nothing changes.
	for changed := true; changed; {
		changed = false
		w.stats.Passes++
		for _, src := range p.Funcs() {
			s := w.summaries[src.Fn]
			if s.Overridden {
				continue
			}
			total := s.Local
			for _, callee := range s.Callees {
				if cs := w.summaries[callee]; cs != nil {
					total |= cs.Total
				}
			}
			for _, callee := range s.IfaceCallees {
				if cs := w.summaries[callee]; cs != nil {
					total |= cs.Total
				}
			}
			if total != s.Total {
				s.Total = total
				changed = true
			}
		}
	}
	return w
}

// collectCallees splits fn's call edges into in-Program callees (static and
// interface, fan-out bounded) and leaf-table effect sites.
func (w *EffectWorld) collectCallees(src *FuncSource, g *CallGraph, cfg EffectConfig, unknown map[*types.Func]bool, s *Summary) {
	edges := g.CallsFrom(src.Fn)

	// Count interface fan-out per syntactic call site first.
	fanOut := make(map[*ast.CallExpr]int)
	for _, e := range edges {
		if e.Interface {
			fanOut[e.Call]++
		}
	}
	bounded := make(map[*ast.CallExpr]bool)
	for call, n := range fanOut {
		if n > cfg.MaxInterfaceFanOut {
			bounded[call] = true
			w.stats.BoundedCalls++
		}
	}

	seenStatic := make(map[*types.Func]bool)
	seenIface := make(map[*types.Func]bool)
	for _, e := range edges {
		if e.Interface && bounded[e.Call] {
			continue // fan-out too wide: treat the site as an unknown callee
		}
		// Canonicalize: under the vet driver a cross-package callee is a
		// distinct export-data object from the declaring package's own.
		if callee := g.prog.CanonicalSource(e.Callee); callee != nil {
			fn := callee.Fn
			if e.Interface {
				if !seenIface[fn] {
					seenIface[fn] = true
					s.IfaceCallees = append(s.IfaceCallees, fn)
				}
			} else if !seenStatic[fn] {
				seenStatic[fn] = true
				s.Callees = append(s.Callees, fn)
			}
			continue
		}
		// Out-of-Program callee: leaf table or optimistic default.
		if eff, detail, ok := leafEffect(e.Callee); ok {
			w.stats.LeafCalls++
			if eff&EffBlocksOnLock != 0 {
				detail = lockDetail(src, e)
			}
			site := EffectSite{Pos: e.Call.Pos(), Effect: eff, Detail: detail}
			s.Sites = append(s.Sites, site)
			s.Local |= eff
		} else {
			unknown[e.Callee] = true
		}
	}
}

// funcKey renders a *types.Func as the leaf-table key: "pkgpath.Name" for
// package functions, "recvtype.Name" (with full package paths) for methods.
func funcKey(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return types.TypeString(sig.Recv().Type(), nil) + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// leafEffects is the standard-library leaf table: functions whose effects
// the engine declares rather than computes.
var leafEffects = map[string]Effect{
	"time.Now":   EffReadsClock,
	"time.Since": EffReadsClock,
	"time.Until": EffReadsClock,

	"runtime.NumCPU":       EffReadsSchedulerState,
	"runtime.GOMAXPROCS":   EffReadsSchedulerState,
	"runtime.NumGoroutine": EffReadsSchedulerState,

	"time.Sleep":           EffBlocksOnLock,
	"*sync.Mutex.Lock":     EffBlocksOnLock,
	"*sync.RWMutex.Lock":   EffBlocksOnLock,
	"*sync.RWMutex.RLock":  EffBlocksOnLock,
	"*sync.WaitGroup.Wait": EffBlocksOnLock,
	"*sync.Cond.Wait":      EffBlocksOnLock,
	"*sync.Once.Do":        EffBlocksOnLock,

	"fmt.Errorf":   EffAllocates,
	"fmt.Sprintf":  EffAllocates,
	"fmt.Sprint":   EffAllocates,
	"fmt.Sprintln": EffAllocates,
	"fmt.Fprintf":  EffAllocates,
	"fmt.Fprintln": EffAllocates,
	"errors.New":   EffAllocates,

	"strconv.Itoa":        EffAllocates,
	"strconv.FormatInt":   EffAllocates,
	"strconv.FormatUint":  EffAllocates,
	"strconv.FormatFloat": EffAllocates,
	"strconv.Quote":       EffAllocates,
	"strings.Join":        EffAllocates,
	"strings.Repeat":      EffAllocates,
	"strings.Split":       EffAllocates,
	"strings.Fields":      EffAllocates,
	"strings.ToUpper":     EffAllocates,
	"strings.ToLower":     EffAllocates,

	"*strings.Builder.String": EffAllocates,
}

// leafEffect looks fn up in the leaf table, with math/rand's global-source
// functions handled by package: top-level draws read the shared default
// Source, while *rand.Rand methods are deterministic under a caller-owned
// seed and constructors just build state.
func leafEffect(fn *types.Func) (Effect, string, bool) {
	key := funcKey(fn)
	if eff, ok := leafEffects[key]; ok {
		return eff, "call to " + key, true
	}
	if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "math/rand" {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() == nil {
			switch fn.Name() {
			case "New", "NewSource", "NewZipf":
			default:
				return EffReadsGlobalRand, "call to " + key, true
			}
		}
	}
	return 0, "", false
}

// lockDetail renders a blocking call's identity for the sanctioned-lock
// check: "lock <LockID>" when the receiver is a nameable mutex
// (v.mu.Lock()), otherwise "call to <key>".
func lockDetail(src *FuncSource, e *CallSite) string {
	if sel, ok := ast.Unparen(e.Call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := canonicalLockID(src.Pkg.Info, sel.X); ok {
			return "lock " + string(id)
		}
	}
	return "call to " + funcKey(e.Callee)
}

// parseSummaryDirective extracts a //vet:summary declaration from fd's doc
// comment.
func parseSummaryDirective(fd *ast.FuncDecl) (Effect, bool, error) {
	if fd.Doc == nil {
		return 0, false, nil
	}
	for _, c := range fd.Doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//vet:summary")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "effects=") {
			return 0, false, fmt.Errorf("malformed //vet:summary: want `//vet:summary effects=<list|none> <reason>`")
		}
		eff, err := ParseEffects(strings.TrimPrefix(fields[0], "effects="))
		if err != nil {
			return 0, false, fmt.Errorf("malformed //vet:summary: %v", err)
		}
		return eff, true, nil
	}
	return 0, false, nil
}

// localSites extracts the function's own effect sites from its syntax. Func
// literal bodies are included: the call graph attributes their calls to the
// enclosing declaration, and the engine attributes their effects the same
// way (a deferred or spawned closure still performs them).
func localSites(src *FuncSource) []EffectSite {
	var sites []EffectSite
	info := src.Pkg.Info
	launders := callsSort(src, info)
	ast.Inspect(src.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			sites = append(sites, EffectSite{n.Pos(), EffSpawnsGoroutine | EffAllocates, "go statement"})
		case *ast.SelectStmt:
			if len(n.Body.List) >= 2 {
				sites = append(sites, EffectSite{n.Pos(), EffSelectsUnordered | EffBlocksOnLock,
					fmt.Sprintf("select with %d cases", len(n.Body.List))})
			} else {
				sites = append(sites, EffectSite{n.Pos(), EffBlocksOnLock, "select"})
			}
		case *ast.SendStmt:
			sites = append(sites, EffectSite{n.Pos(), EffBlocksOnLock, "channel send"})
		case *ast.UnaryExpr:
			switch n.Op {
			case token.ARROW:
				sites = append(sites, EffectSite{n.Pos(), EffBlocksOnLock, "channel receive"})
			case token.AND:
				if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit {
					sites = append(sites, EffectSite{n.Pos(), EffAllocates, "&composite literal"})
				}
			}
		case *ast.RangeStmt:
			if !launders {
				if tv, ok := info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						sites = append(sites, EffectSite{n.Pos(), EffRangesMap,
							"range over " + types.TypeString(tv.Type, relativeTo(src.Pkg.Pkg))})
					}
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map:
					sites = append(sites, EffectSite{n.Pos(), EffAllocates, "map literal"})
				case *types.Slice:
					sites = append(sites, EffectSite{n.Pos(), EffAllocates, "slice literal"})
				}
			}
		case *ast.FuncLit:
			sites = append(sites, EffectSite{n.Pos(), EffAllocates, "func literal"})
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(info, n) {
				sites = append(sites, EffectSite{n.Pos(), EffAllocates, "string concatenation"})
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(info, n.Lhs[0]) {
				sites = append(sites, EffectSite{n.Pos(), EffAllocates, "string concatenation"})
			}
		case *ast.CallExpr:
			sites = append(sites, callSites(info, n)...)
		}
		return true
	})
	sort.Slice(sites, func(i, j int) bool { return sites[i].Pos < sites[j].Pos })
	return sites
}

// callSites classifies one call expression's local allocation effects:
// make/new builtins and string<->bytes/runes conversions. Calls to declared
// functions are handled through the call graph, not here.
func callSites(info *types.Info, call *ast.CallExpr) []EffectSite {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				return []EffectSite{{call.Pos(), EffAllocates, "make"}}
			case "new":
				return []EffectSite{{call.Pos(), EffAllocates, "new"}}
			}
			return nil
		}
	}
	// Type conversion T(x): allocation when converting between string and
	// []byte/[]rune.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		argTV, ok := info.Types[call.Args[0]]
		if !ok {
			return nil
		}
		if conversionAllocates(dst, argTV.Type) {
			return []EffectSite{{call.Pos(), EffAllocates, "string conversion"}}
		}
	}
	return nil
}

func conversionAllocates(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

func isNonConstString(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value == nil && isString(tv.Type)
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && isString(tv.Type)
}

// callsSort reports whether the function body calls into package sort or
// slices — the range-then-sort idiom that launders map iteration order back
// into a deterministic sequence.
func callsSort(src *FuncSource, info *types.Info) bool {
	found := false
	ast.Inspect(src.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "sort", "slices":
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// HasDirective reports whether fd's doc comment contains a line starting
// with the given //vet: directive.
func HasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// EffectClosure walks the Program's effect summaries from every function
// whose doc comment carries the given root directive (//vet:hotpath,
// //vet:detpath) and returns each reached function mapped to the first
// root that reaches it. Roots are visited in declaration order and the
// walk is breadth-first, so the attribution is deterministic. Overridden
// (//vet:summary) functions are reached but not descended into — their
// declared bitset stands for the whole subtree. Interface callees are
// followed only when followIface is set: determinism contracts must hold
// for every implementer, while hot-path contracts treat dynamic dispatch
// as a trust boundary.
func EffectClosure(p *Program, directive string, followIface bool) map[*types.Func]*types.Func {
	w := p.Effects()
	reached := make(map[*types.Func]*types.Func)
	for _, src := range p.Funcs() {
		if !HasDirective(src.Decl, directive) {
			continue
		}
		root := src.Fn
		queue := []*types.Func{root}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			if _, seen := reached[fn]; seen {
				continue
			}
			reached[fn] = root
			s := w.Summary(fn)
			if s == nil || s.Overridden {
				continue
			}
			queue = append(queue, s.Callees...)
			if followIface {
				queue = append(queue, s.IfaceCallees...)
			}
		}
	}
	return reached
}

// FuncLabel renders fn for diagnostics: "Type.Method" for methods,
// "Func" otherwise.
func FuncLabel(fn *types.Func) string {
	if named := MethodRecv(fn); named != nil {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// relativeTo renders type names relative to pkg (short names for same-
// package types, import paths elsewhere).
func relativeTo(pkg *types.Package) types.Qualifier {
	return func(other *types.Package) string {
		if other == pkg {
			return ""
		}
		return other.Path()
	}
}
