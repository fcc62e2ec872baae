// The one bench record. Every measured experiment (baseline, scale,
// fleet10k, cloud, planner) returns a record and writes nothing itself;
// finish prints it, writes it as BENCH_<experiment>.json, and fails the
// run on any failed gate. Metric names are dotted layer.quantity, with the
// setting after an @ where one quantity is measured at several
// (planner.kernel_ns_per_move@1000); the run's parameters are metrics too,
// with better "none".

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// record is the BENCH_<experiment>.json document.
type record struct {
	Experiment string   `json:"experiment"`
	Smoke      bool     `json:"smoke"`
	Host       host     `json:"host"`
	Metrics    []metric `json:"metrics"`
	Gates      []gate   `json:"gates"`
}

// host records where the numbers came from. Note says which numbers the
// host cannot measure honestly, such as parallel speedup beyond NumCPU.
type host struct {
	NumCPU    int    `json:"num-cpu"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	GoVersion string `json:"go-version"`
	Note      string `json:"note,omitempty"`
}

// metric is one measured number or run parameter.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Better string  `json:"better"` // "lower", "higher", or "none" for a run parameter
}

// gate is one pass/fail condition the run enforces.
type gate struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

func newRecord(experiment string) *record {
	return &record{
		Experiment: experiment,
		Host: host{
			NumCPU:    runtime.NumCPU(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			GoVersion: runtime.Version(),
		},
		Metrics: []metric{},
		Gates:   []gate{},
	}
}

func (r *record) add(name, unit string, value float64, better string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: value, Better: better})
}

func (r *record) param(name, unit string, value float64) {
	r.add(name, unit, value, "none")
}

func (r *record) check(name string, pass bool, format string, args ...any) {
	r.Gates = append(r.Gates, gate{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)})
}

// finish prints rec, writes it to dir/BENCH_<experiment>.json when dir is
// set, and returns an error naming every failed gate. The record is
// written before the verdict, so a failing run leaves its own record
// behind rather than a stale one.
func finish(rec *record, dir string) error {
	h := rec.Host
	fmt.Printf("  host: %d CPU(s), %s/%s, %s\n", h.NumCPU, h.GOOS, h.GOARCH, h.GoVersion)
	if h.Note != "" {
		fmt.Printf("  note: %s\n", h.Note)
	}
	for _, m := range rec.Metrics {
		fmt.Printf("  %-44s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	var failed []string
	for _, g := range rec.Gates {
		verdict := "PASS"
		if !g.Pass {
			verdict = "FAIL"
			failed = append(failed, g.Name)
		}
		fmt.Printf("  %s %s: %s\n", verdict, g.Name, g.Detail)
	}
	if dir != "" {
		raw, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		path := filepath.Join(dir, "BENCH_"+rec.Experiment+".json")
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("  record written to %s\n", path)
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed gate(s): %s", strings.Join(failed, ", "))
	}
	return nil
}
