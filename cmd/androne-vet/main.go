// androne-vet runs the repository's custom static-analysis suite — the
// AnDrone-specific invariants the compiler cannot check: lock discipline on
// the flight hot paths (locksafe), Binder namespace isolation (nsguard),
// the VFC MAVLink whitelist boundary (whitelistguard), deadlines and
// cancellation in the service plane (ctxtimeout), timer hygiene in
// high-rate loops (tickleak), the interprocedural security suite —
// permission checks dominating every hardware path (permguard), sender
// identity taint (sendertaint), and security-relevant error propagation
// (errflow) — the effect-summary contract analyzers: determinism on the
// trace/hash paths (detguard) and zero-allocation, bounded-blocking hot
// paths (hotpath) — and the concurrency-liveness pair built on the
// lock-set engine: deadlock freedom plus the flight-critical blocking
// contract (lockorder) and goroutines that can block forever (waitleak).
//
// Usage:
//
//	androne-vet [flags] [packages]
//
// Packages default to ./... relative to the enclosing module. Exit status
// is 1 if any diagnostic is reported, 2 on operational failure. Individual
// analyzers are toggled with -<name>=false; a diagnostic is suppressed by a
// //vet:allow <name> [reason] comment on its source line. A plain run
// already covers every analyzer; a subset is for iterating on one family:
//
//	# the interprocedural subset (permguard, sendertaint, errflow)
//	androne-vet -ctxtimeout=false -detguard=false -hotpath=false \
//		-lockorder=false -locksafe=false -nsguard=false -tickleak=false \
//		-waitleak=false -whitelistguard=false ./...
//
//	# the effect-summary contract subset (detguard, hotpath)
//	androne-vet -ctxtimeout=false -errflow=false -lockorder=false \
//		-locksafe=false -nsguard=false -permguard=false -sendertaint=false \
//		-tickleak=false -waitleak=false -whitelistguard=false ./...
//
//	# the concurrency-liveness pair (lockorder, waitleak)
//	androne-vet -ctxtimeout=false -detguard=false -errflow=false \
//		-hotpath=false -locksafe=false -nsguard=false -permguard=false \
//		-sendertaint=false -tickleak=false -whitelistguard=false ./...
//
// -stale-allows audits the suppressions instead: it reports every
// //vet:allow comment naming an active analyzer that no longer fires on
// its line (exit 1 if any), so dead suppressions cannot silently mask the
// next real regression.
//
// -budget-file gates wall-clock: given a committed reference document
// {"total_micros": N}, the run fails if the suite's total wall-clock
// exceeds 3x the reference, and the -json report carries the verdict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"androne/internal/analysis/ctxtimeout"
	"androne/internal/analysis/detguard"
	"androne/internal/analysis/errflow"
	"androne/internal/analysis/framework"
	"androne/internal/analysis/hotpath"
	"androne/internal/analysis/load"
	"androne/internal/analysis/lockorder"
	"androne/internal/analysis/locksafe"
	"androne/internal/analysis/nsguard"
	"androne/internal/analysis/permguard"
	"androne/internal/analysis/sendertaint"
	"androne/internal/analysis/tickleak"
	"androne/internal/analysis/waitleak"
	"androne/internal/analysis/whitelistguard"
)

// suite is every analyzer the driver knows, in report order.
var suite = []*framework.Analyzer{
	ctxtimeout.Analyzer,
	detguard.Analyzer,
	errflow.Analyzer,
	hotpath.Analyzer,
	lockorder.Analyzer,
	locksafe.Analyzer,
	nsguard.Analyzer,
	permguard.Analyzer,
	sendertaint.Analyzer,
	tickleak.Analyzer,
	waitleak.Analyzer,
	whitelistguard.Analyzer,
}

// budgetFactor is how much the suite's total wall-clock may grow over the
// committed reference before the -budget-file gate fails the run.
const budgetFactor = 3

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	listOnly := flag.Bool("list", false, "list analyzers and exit")
	staleMode := flag.Bool("stale-allows", false,
		"report //vet:allow comments no active analyzer fires on, instead of findings")
	budgetFile := flag.String("budget-file", "",
		"reference JSON ({\"total_micros\": N}); fail if total wall-clock exceeds 3x")
	enabled := make(map[string]*bool, len(suite))
	for _, a := range suite {
		enabled[a.Name] = flag.Bool(a.Name, true, "enable the "+a.Name+" analyzer")
	}
	flag.Parse()

	if *listOnly {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var active []*framework.Analyzer
	for _, a := range suite {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}

	patterns := flag.Args()
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "androne-vet:", err)
		return 2
	}
	pkgs, err := load.Packages(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "androne-vet:", err)
		return 2
	}
	findings, stats, err := load.Run(pkgs, active)
	if err != nil {
		fmt.Fprintln(os.Stderr, "androne-vet:", err)
		return 2
	}

	if *staleMode {
		for _, s := range stats.StaleAllows {
			fmt.Printf("%s:%d: stale //vet:allow %s: the analyzer no longer fires on this line\n",
				s.Pos.Filename, s.Pos.Line, s.Analyzer)
		}
		if n := len(stats.StaleAllows); n > 0 {
			fmt.Fprintf(os.Stderr, "androne-vet: %d stale //vet:allow suppression(s)\n", n)
			return 1
		}
		return 0
	}

	budget, budgetErr := checkBudget(*budgetFile, stats)
	if budgetErr != nil {
		fmt.Fprintln(os.Stderr, "androne-vet:", budgetErr)
		return 2
	}

	if *jsonOut {
		names := make([]string, len(active))
		for i, a := range active {
			names[i] = a.Name
		}
		report := load.Report(names, findings, stats)
		report.Budget = budget
		if err := load.WriteJSON(os.Stdout, report); err != nil {
			fmt.Fprintln(os.Stderr, "androne-vet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "androne-vet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	if budget != nil && budget.Exceeded {
		fmt.Fprintf(os.Stderr,
			"androne-vet: wall-clock budget exceeded: %dµs total > %dx reference %dµs (limit %dµs) — "+
				"fix the regression or refresh the committed reference\n",
			budget.TotalMicros, budgetFactor, budget.ReferenceMicros, budget.LimitMicros)
		return 1
	}
	return 0
}

// checkBudget loads the committed wall-clock reference and judges this
// run's total against it. A nil budget means no reference was supplied.
func checkBudget(path string, stats load.RunStats) (*load.JSONBudget, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("budget file: %v", err)
	}
	var ref struct {
		TotalMicros int64 `json:"total_micros"`
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("budget file %s: %v", path, err)
	}
	if ref.TotalMicros <= 0 {
		return nil, fmt.Errorf("budget file %s: total_micros must be positive", path)
	}
	b := &load.JSONBudget{
		ReferenceMicros: ref.TotalMicros,
		LimitMicros:     ref.TotalMicros * budgetFactor,
	}
	for _, tm := range stats.Timings {
		b.TotalMicros += tm.Micros
	}
	b.Exceeded = b.TotalMicros > b.LimitMicros
	return b, nil
}
