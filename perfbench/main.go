// Command perfbench is AnDrone's benchmark: it runs one named workload
// with a fixed amount of work derived from --seed and --seconds, checks
// that every output is correct, and prints its metrics. The last line of
// standard output is one JSON object; the lines before it are the same
// numbers for people, with the host block they were measured on.
//
// With --trace 0 the run measures the end-to-end metrics with tracing
// off. With --trace 1 it measures the per-layer ledger instead: it times
// calls into each layer's public functions from outside, and reports the
// share of traced wall time the named layers do not cover.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fleet-survey --seed 1 --seconds 20 --trace 0
//
// README.md beside this file lists the workloads, the metrics and the
// layer each per-layer metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run produces.
type report struct {
	attempted int
	failed    int
	// problems are failed correctness checks; any one fails the run.
	problems []string
	metrics  map[string]metric
	// notes are human-readable lines printed before the JSON result.
	notes []string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// options are the command-line settings every workload receives.
type options struct {
	seed    int64
	seconds int
	trace   bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*report, error){
	"fleet-survey":    runFleetSurvey,
	"fleet-dutycycle": runFleetDutyCycle,
	"portal-mixed":    runPortalMixed,
}

// endToEnd and perLayer are the metric names each mode must print; a run
// that misses one is a bug in the benchmark, reported as a failure.
var endToEnd = []string{"op_p50_ms", "peak_heap_mb", "setup_s"}

// perLayer lists every per-layer metric with its unit. A workload
// reports zero for the layers it does not exercise.
var perLayer = []struct{ name, unit string }{
	{"sitl.step_ns", "ns"}, {"flight.step_ns", "ns"}, {"flight.truth_ns", "ns"},
	{"telemetry.tick_ns", "ns"}, {"mavproxy.tick_ns", "ns"}, {"binder.flush_ns", "ns"},
	{"core.vdc_tick_ns", "ns"}, {"core.control_ms", "ms"},
	{"binder.txns", "1/sim_s"}, {"mavproxy.vfc_sends", "1/sim_s"},
	{"mavproxy.vfc_rejects", "1/sim_s"}, {"devcon.acquires", "1/sim_s"},
	{"core.parked_tick_ns", "ns"}, {"core.fingerprint_ns", "ns"}, {"core.leap_ns_per_tick", "ns"},
	{"simharness.setup_ms", "ms"}, {"simharness.scenario_ms", "ms"},
	{"cloud.admission_us", "us"}, {"cloud.portal.apps_us", "us"}, {"cloud.portal.orders_list_us", "us"},
	{"cloud.portal.order_get_us", "us"}, {"cloud.portal.vdr_list_us", "us"}, {"cloud.portal.order_post_us", "us"},
	{"core.validate_us", "us"}, {"planner.estimate_us", "us"},
	{"core.vdc_save_us", "us"}, {"cloud.vdr_save_us", "us"}, {"cloud.vdr_load_us", "us"}, {"core.vdc_restore_us", "us"},
	{"planner.tasks_per_round", "count"},
	{"cloud.blob.dedup_ratio", "ratio"}, {"cloud.blob.physical_mb", "MB"}, {"cloud.vdr_entries", "count"},
	{"cloud.orders_per_tenant", "count"}, {"cloud.batched_frac", "frac"},
	{"runtime.gc_cpu_frac", "frac"}, {"runtime.gc_pause_ms", "ms"},
	{"bench.gen_late_ms_p99", "ms"}, {"bench.trace_overhead_frac", "frac"}, {"bench.unattributed_frac", "frac"},
	{"sim_s_per_s", "s/s"}, {"req_p50_ms", "ms"}, {"req_p99_ms", "ms"}, {"req_slo_frac", "frac"}, {"ckpt_p50_ms", "ms"}, {"ckpt_tail_ms", "ms"},
	{"plan_ms_p50", "ms"}, {"fail_frac", "frac"}, {"op_tail_ms", "ms"},
}

// zeroPerLayer reports every per-layer metric as zero; the traced run
// then overwrites the ones its workload exercises.
func zeroPerLayer(r *report) {
	for _, m := range perLayer {
		r.set(m.name, 0, m.unit)
	}
}

func main() {
	name := flag.String("workload", "", "workload to run: fleet-survey, fleet-dutycycle or portal-mixed")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "sizes the fixed amount of work (about this many seconds on a 2-CPU host)")
	trace := flag.Int("trace", 0, "1 measures the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}

	want := endToEnd
	if o.trace {
		want = make([]string, len(perLayer))
		for i, m := range perLayer {
			want[i] = m.name
		}
	}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := rep.metrics[m]
		if !ok {
			rep.problem("metric %s was not measured", m)
			continue
		}
		out[m] = v
	}

	printHost(o, *name)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(out))
	for m := range out {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		fmt.Printf("metric %-28s %14.6g %s\n", m, out[m].Value, out[m].Unit)
	}
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	correct := len(rep.problems) == 0 && rep.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// printHost prints the host block every result carries. Results from
// different hosts are never compared.
func printHost(o options, workload string) {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s os=%s/%s rev=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, rev)
	mode := "end-to-end"
	if o.trace {
		mode = "traced"
	}
	fmt.Printf("run workload=%s seed=%d seconds=%d mode=%s fleet-workers=%d\n", workload, o.seed, o.seconds, mode, fleetWorkers)
}
