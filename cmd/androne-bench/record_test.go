package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"androne/internal/loadgen"
	"androne/internal/simharness"
)

// written finishes rec into a fresh directory, as main does for -out, and
// reads the record file back.
func written(t *testing.T, rec *record, err error) *record {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := finish(rec, dir); err != nil {
		t.Fatal(err)
	}
	return readRecord(t, dir, rec.Experiment)
}

func readRecord(t *testing.T, dir, experiment string) *record {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "BENCH_"+experiment+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	return &rec
}

// lookups returns rec's metric value and gate by name, failing the test
// on a name the record does not carry.
func lookups(t *testing.T, rec *record) (func(string) float64, func(string) gate) {
	metricOf := func(name string) float64 {
		t.Helper()
		for _, m := range rec.Metrics {
			if m.Name == name {
				return m.Value
			}
		}
		t.Fatalf("%s record has no metric %q", rec.Experiment, name)
		return 0
	}
	gateOf := func(name string) gate {
		t.Helper()
		for _, g := range rec.Gates {
			if g.Name == name {
				return g
			}
		}
		t.Fatalf("%s record has no gate %q", rec.Experiment, name)
		return gate{}
	}
	return metricOf, gateOf
}

// Test-scale runs of the measured experiments, shared by the pipeline
// tests and TestRecordShape.

func testFleet10k() (*record, error) {
	sc := simharness.ByName("duty-cycle")
	sc.Name = "duty-cycle-test"
	sc.HoldBeforeS = 2400
	sc.HoldAfterS = 30
	sc.MaxTicks = 28000
	return fleet10k(fleet10kOpts{
		seed: "fleet10k-test", eventDrones: 3, lockDrones: 1, workers: 2, sc: sc,
	})
}

func testCloud() (*record, error) {
	cfg := loadgen.DefaultConfig()
	cfg.Tenants, cfg.OrdersPerTenant = 2, 1
	cfg.BrowseRepeat, cfg.ChurnRounds = 5, 3
	cfg.Seed = "cloud-pipeline-test"
	return cloudBench(cfg)
}

func testPlanner(minSpeedup float64) (*record, error) {
	return plannerBench(plannerOpts{
		seed: "planner-test", sizes: []int{60, 200}, campaignN: 3, minSpeedup: minSpeedup,
	})
}

// shortBenchtime runs f with testing.Benchmark's per-measurement target cut
// from the default second to 20 ms: the record's shape does not need
// settled numbers.
func shortBenchtime(f func() (*record, error)) func() (*record, error) {
	return func() (*record, error) {
		bt := flag.Lookup("test.benchtime").Value
		prev := bt.String()
		if err := bt.Set("20ms"); err != nil {
			return nil, err
		}
		defer bt.Set(prev)
		return f()
	}
}

// TestRecordShape runs every measured experiment at test scale and checks
// the one record format: the JSON round-trips, the host block is filled,
// metric names are unique, and better is lower, higher or none.
func TestRecordShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		slow bool // skipped under -short
		run  func() (*record, error)
	}{
		{"baseline", true, shortBenchtime(func() (*record, error) { return baseline("record-test", false) })},
		{"scale", true, func() (*record, error) { return scale("record-test", true, []int{1, 2}) }},
		{"fleet10k", false, testFleet10k},
		{"cloud", true, testCloud},
		{"planner", false, func() (*record, error) { return testPlanner(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("measures for tens of seconds or flies whole missions")
			}
			rec, err := tc.run()
			got := written(t, rec, err)
			if !reflect.DeepEqual(got, rec) {
				t.Fatalf("record does not round-trip through JSON:\n got %+v\nwant %+v", got, rec)
			}
			if got.Experiment != tc.name {
				t.Errorf("experiment %q, want %q", got.Experiment, tc.name)
			}
			h := got.Host
			if h.NumCPU <= 0 || h.GOOS == "" || h.GOARCH == "" || h.GoVersion == "" {
				t.Errorf("host block not filled: %+v", h)
			}
			if len(got.Metrics) == 0 {
				t.Error("no metrics")
			}
			seen := make(map[string]bool)
			for _, m := range got.Metrics {
				if seen[m.Name] {
					t.Errorf("duplicate metric %q", m.Name)
				}
				seen[m.Name] = true
				if m.Better != "lower" && m.Better != "higher" && m.Better != "none" {
					t.Errorf("metric %q: better %q is not lower, higher or none", m.Name, m.Better)
				}
				if m.Unit == "" {
					t.Errorf("metric %q has no unit", m.Name)
				}
			}
			for _, g := range got.Gates {
				if !g.Pass {
					t.Errorf("gate %s failed: %s", g.Name, g.Detail)
				}
			}
		})
	}
}

// TestFailedGateWritesRecord: a run whose gate fails still writes its own
// record, carrying the failed gate, before it reports the failure.
func TestFailedGateWritesRecord(t *testing.T) {
	rec, err := testPlanner(1e9)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	err = finish(rec, dir)
	if err == nil || !strings.Contains(err.Error(), "planner.kernel_speedup") {
		t.Fatalf("finish = %v, want the failed planner.kernel_speedup gate", err)
	}
	_, gateOf := lookups(t, readRecord(t, dir, "planner"))
	if g := gateOf("planner.kernel_speedup"); g.Pass {
		t.Fatalf("written gate passed: %+v", g)
	}
	if g := gateOf("planner.restart_bit_identical"); !g.Pass {
		t.Fatalf("unrelated gate failed: %+v", g)
	}
}

// TestUnknownExperimentListsAll: a mistyped -exp name is answered with
// every runnable experiment, not only the paper's.
func TestUnknownExperimentListsAll(t *testing.T) {
	run := experiments(&options{})
	_, err := selectExperiments("plannr", run)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, name := range append(sortedNames(run), "all") {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
	for _, name := range []string{"baseline", "scale", "fleet10k", "cloud", "planner", "gcs", "jitter"} {
		if _, ok := run[name]; !ok {
			t.Errorf("experiment %q is not runnable", name)
		}
	}
	if todo, err := selectExperiments("scale,planner", run); err != nil || len(todo) != 2 {
		t.Errorf("selectExperiments(scale,planner) = %v, %v", todo, err)
	}
	if todo, err := selectExperiments("all", run); err != nil || !reflect.DeepEqual(todo, paper) {
		t.Errorf("selectExperiments(all) = %v, %v", todo, err)
	}
}
