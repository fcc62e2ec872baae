// androne-vet runs the repository's custom static-analysis suite — the
// AnDrone-specific invariants the compiler cannot check: lock discipline on
// the flight hot paths (locksafe), Binder namespace isolation and the VFC
// MAVLink whitelist boundary as one call-site policy table (callguard),
// deadlines and cancellation in the service plane (ctxtimeout), timer
// hygiene in high-rate loops (tickleak), the interprocedural security suite —
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
// Packages default to ./... relative to the enclosing module. Every
// analyzer runs; a diagnostic is suppressed by a //vet:allow <name>
// [reason] comment on its source line. Exit status is 1 if any diagnostic
// is reported or any //vet:allow is stale — it names an analyzer that no
// longer fires on its line, so it could silently mask the next real
// regression there — and 2 on operational failure.
//
// Flags:
//
//	-json         emit the report (findings, stale suppressions, timings) as JSON
//	-list         list the analyzers and exit
//	-budget-file  gate wall-clock: given a committed reference document
//	              {"total_micros": N}, the run fails if the suite's total
//	              wall-clock exceeds 3x the reference, and the -json report
//	              carries the verdict
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"androne/internal/analysis/callguard"
	"androne/internal/analysis/ctxtimeout"
	"androne/internal/analysis/detguard"
	"androne/internal/analysis/errflow"
	"androne/internal/analysis/framework"
	"androne/internal/analysis/hotpath"
	"androne/internal/analysis/load"
	"androne/internal/analysis/lockorder"
	"androne/internal/analysis/locksafe"
	"androne/internal/analysis/permguard"
	"androne/internal/analysis/sendertaint"
	"androne/internal/analysis/tickleak"
	"androne/internal/analysis/waitleak"
)

// suite is every analyzer the driver knows, in report order.
var suite = []*framework.Analyzer{
	callguard.Analyzer,
	ctxtimeout.Analyzer,
	detguard.Analyzer,
	errflow.Analyzer,
	hotpath.Analyzer,
	lockorder.Analyzer,
	locksafe.Analyzer,
	permguard.Analyzer,
	sendertaint.Analyzer,
	tickleak.Analyzer,
	waitleak.Analyzer,
}

// budgetFactor is how much the suite's total wall-clock may grow over the
// committed reference before the -budget-file gate fails the run.
const budgetFactor = 3

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	flags := flag.NewFlagSet("androne-vet", flag.ExitOnError)
	jsonOut := flags.Bool("json", false, "emit the report as JSON")
	listOnly := flags.Bool("list", false, "list analyzers and exit")
	budgetFile := flags.String("budget-file", "",
		"reference JSON ({\"total_micros\": N}); fail if total wall-clock exceeds 3x")
	flags.Parse(args)

	if *listOnly {
		for _, a := range suite {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "androne-vet:", err)
		return 2
	}
	pkgs, err := load.Packages(wd, flags.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "androne-vet:", err)
		return 2
	}
	findings, stats, err := load.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintln(os.Stderr, "androne-vet:", err)
		return 2
	}

	budget, budgetErr := checkBudget(*budgetFile, stats)
	if budgetErr != nil {
		fmt.Fprintln(os.Stderr, "androne-vet:", budgetErr)
		return 2
	}

	if *jsonOut {
		names := make([]string, len(suite))
		for i, a := range suite {
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
		for _, s := range stats.StaleAllows {
			fmt.Printf("%s:%d: stale //vet:allow %s: the analyzer no longer fires on this line\n",
				s.Pos.Filename, s.Pos.Line, s.Analyzer)
		}
	}
	status := 0
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "androne-vet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		status = 1
	}
	if n := len(stats.StaleAllows); n > 0 {
		fmt.Fprintf(os.Stderr, "androne-vet: %d stale //vet:allow suppression(s)\n", n)
		status = 1
	}
	if budget != nil && budget.Exceeded {
		fmt.Fprintf(os.Stderr,
			"androne-vet: wall-clock budget exceeded: %dµs total > %dx reference %dµs (limit %dµs) — "+
				"fix the regression or refresh the committed reference\n",
			budget.TotalMicros, budgetFactor, budget.ReferenceMicros, budget.LimitMicros)
		status = 1
	}
	return status
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
