package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef declares one reported metric. End-to-end metrics carry the bound
// by which a later change may worsen their median; per-layer metrics carry
// the end-to-end metric and workload they are expected to move.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only
	moves  string  // per-layer only
}

// endToEnd lists what a user of the placer or the daemon sees. Every
// workload reports every one of them. On flat-13k and ml-27k one job is one
// flow (read, place, evaluate, write), and cpu_s and peak_rss_mb are the
// benchmark process's CPU time and peak resident set per flow. On
// serve-small a job is one daemon job, flow_s is its running-to-terminal
// time, cpu_s (per job) and peak_rss_mb are the daemon's, and hpwl and
// routed_overflow sum the batch's designs.
//
// Bounds: every time gets 0.25. On the two-vCPU host this was tuned on,
// neighbours' load moved wall and CPU time alike by up to a fifth within
// minutes (ten consecutive flat-13k runs: 15.2 s to 10.1 s wall, 19.9 s to
// 16.6 s CPU) and took up to 17% of the CPU as steal. hpwl and
// routed_overflow repeat exactly on every workload; routed_overflow's bound
// is the repository's CI routability gate.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "flow_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "hpwl", unit: "dbu", better: "lower", bound: 0.05},
	{name: "routed_overflow", unit: "tracks", better: "lower", bound: 0.1},
	{name: "job_p50_s", unit: "s", better: "lower", bound: 0.25},
	{name: "job_p90_s", unit: "s", better: "lower", bound: 0.25},
	{name: "jobs_per_s", unit: "1/s", better: "higher", bound: 0.25},
}

// perLayer lists the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{name: "bookshelf.read_s", unit: "s", better: "lower", moves: "flow_s on ml-27k"},
	{name: "bookshelf.write_s", unit: "s", better: "lower", moves: "flow_s on ml-27k"},
	{name: "datapath.extract_s", unit: "s", better: "lower", moves: "job_p50_s on serve-small, flow_s on ml-27k"},
	{name: "datapath.groups", unit: "count", better: "higher", moves: "job_p50_s on serve-small, flow_s on ml-27k"},
	{name: "datapath.grouped_cells", unit: "count", better: "higher", moves: "job_p50_s on serve-small, flow_s on ml-27k"},
	{name: "global.init_s", unit: "s", better: "lower", moves: "flow_s and cpu_s on flat-13k and ml-27k"},
	{name: "global.place_s", unit: "s", better: "lower", moves: "flow_s and cpu_s on flat-13k and ml-27k"},
	{name: "global.cpu_s", unit: "s", better: "lower", moves: "flow_s and cpu_s on flat-13k and ml-27k"},
	{name: "global.outer_iters", unit: "count", better: "lower", moves: "flow_s and cpu_s on flat-13k and ml-27k"},
	{name: "global.func_evals", unit: "count", better: "lower", moves: "flow_s and cpu_s on flat-13k and ml-27k"},
	{name: "global.full_evals", unit: "count", better: "lower", moves: "flow_s and cpu_s on flat-13k and ml-27k"},
	{name: "global.delta_evals", unit: "count", better: "higher", moves: "flow_s and cpu_s on flat-13k and ml-27k"},
	{name: "global.dirty_net_ratio", unit: "ratio", better: "lower", moves: "flow_s and cpu_s on flat-13k and ml-27k"},
	{name: "multilevel.levels", unit: "count", better: "lower", moves: "flow_s on ml-27k"},
	{name: "multilevel.coarsest_cells", unit: "count", better: "lower", moves: "flow_s on ml-27k"},
	{name: "congestion.snapshots", unit: "count", better: "lower", moves: "flow_s, routed_overflow and hpwl on flat-13k"},
	{name: "congestion.inflated_cells", unit: "count", better: "lower", moves: "flow_s, routed_overflow and hpwl on flat-13k"},
	{name: "wirelength.gamma", unit: "dbu", better: "lower", moves: "none: the fixed smoothing length of the kernel replay"},
	{name: "wirelength.value_ns_per_pin", unit: "ns", better: "lower", moves: "flow_s and cpu_s on flat-13k and ml-27k"},
	{name: "wirelength.grad_ns_per_pin", unit: "ns", better: "lower", moves: "flow_s and cpu_s on flat-13k and ml-27k"},
	{name: "density.eval_ms.w1", unit: "ms", better: "lower", moves: "flow_s on ml-27k"},
	{name: "density.eval_ms.wN", unit: "ms", better: "lower", moves: "flow_s on flat-13k"},
	{name: "density.eval_cpu_ms.w1", unit: "ms", better: "lower", moves: "cpu_s on flat-13k"},
	{name: "density.eval_cpu_ms.wN", unit: "ms", better: "lower", moves: "cpu_s on flat-13k"},
	{name: "legal.legalize_s", unit: "s", better: "lower", moves: "hpwl and job_p50_s on serve-small"},
	{name: "legal.group_blocks", unit: "count", better: "higher", moves: "hpwl and job_p50_s on serve-small"},
	{name: "legal.max_displacement", unit: "dbu", better: "lower", moves: "hpwl and job_p50_s on serve-small"},
	{name: "detail.improve_s", unit: "s", better: "lower", moves: "flow_s and hpwl on ml-27k"},
	{name: "detail.moves", unit: "count", better: "higher", moves: "flow_s and hpwl on ml-27k"},
	{name: "detail.columns_s", unit: "s", better: "lower", moves: "flow_s and hpwl on ml-27k"},
	{name: "detail.column_swaps", unit: "count", better: "higher", moves: "flow_s and hpwl on ml-27k"},
	{name: "metrics.evaluate_s", unit: "s", better: "lower", moves: "flow_s on flat-13k and ml-27k, job_p50_s on serve-small"},
	{name: "route.groute_s", unit: "s", better: "lower", moves: "flow_s on flat-13k and ml-27k, job_p50_s on serve-small"},
	{name: "route.rudy_s", unit: "s", better: "lower", moves: "flow_s on flat-13k and ml-27k, job_p50_s on serve-small"},
	{name: "route.steiner_s", unit: "s", better: "lower", moves: "flow_s on flat-13k and ml-27k, job_p50_s on serve-small"},
	{name: "par.utilization", unit: "ratio", better: "higher", moves: "flow_s and cpu_s on flat-13k"},
	{name: "serve.admit_s", unit: "s", better: "lower", moves: "job_p50_s, job_p90_s and jobs_per_s on serve-small"},
	{name: "serve.queue_wait_s", unit: "s", better: "lower", moves: "job_p50_s, job_p90_s and jobs_per_s on serve-small"},
	{name: "serve.run_s", unit: "s", better: "lower", moves: "job_p50_s, job_p90_s and jobs_per_s on serve-small"},
	{name: "serve.fetch_s", unit: "s", better: "lower", moves: "job_p50_s, job_p90_s and jobs_per_s on serve-small"},
	{name: "serve.solve_s", unit: "s", better: "lower", moves: "job_p50_s, job_p90_s and jobs_per_s on serve-small"},
	{name: "serve.journal_fsync_ms", unit: "ms", better: "lower", moves: "job_p50_s, job_p90_s and jobs_per_s on serve-small"},
	{name: "serve.journal_appends", unit: "count/job", better: "lower", moves: "job_p50_s, job_p90_s and jobs_per_s on serve-small"},
	{name: "serve.lease_wait_s", unit: "s", better: "lower", moves: "job_p50_s, job_p90_s and jobs_per_s on serve-small"},
	{name: "unattributed_s", unit: "s", better: "lower", moves: "flow_s on every workload"},
	{name: "trace_overhead_s", unit: "s", better: "lower", moves: "none: traced minus untraced flow_s"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// metricSet collects a run's metric values by name; units come from the
// tables above, so a name missing from them is a bug.
type metricSet map[string]float64

// result assembles the output for the metrics in defs. A run whose failed
// operations left a metric unmeasured reports it as 0; in a run without
// failures an unmeasured metric is an error.
func (m metricSet) result(defs []metricDef, t *tally) (result, error) {
	r := result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]value{},
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok && t.failed == 0 {
			return r, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	return r, nil
}

// describe writes the metric tables: each metric's unit, direction, and
// bound or the end-to-end metric it should move.
func describe(w io.Writer) {
	fmt.Fprintln(w, "end-to-end metrics (name, unit, better, bound):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-28s %-7s %-7s %.2f\n", d.name, d.unit, d.better, d.bound)
	}
	fmt.Fprintln(w, "per-layer metrics (name, unit, better, moves):")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-28s %-7s %-7s %s\n", d.name, d.unit, d.better, d.moves)
	}
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-12s %s\n", wl.name, wl.why)
	}
}

// runSeconds is the measurement interval BENCHMARK.json asks for.
const runSeconds = 10

// manifest is BENCHMARK.json, the benchmark's declaration for the harness
// that runs it.
type manifest struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []manifestEntry `json:"workloads"`
	EndToEnd   []manifestEntry `json:"end_to_end"`
	PerLayer   []manifestEntry `json:"per_layer"`
}

// manifestEntry is one workload or metric of the manifest.
type manifestEntry struct {
	Name   string   `json:"name"`
	Why    string   `json:"why,omitempty"`
	Unit   string   `json:"unit,omitempty"`
	Better string   `json:"better,omitempty"`
	Bound  *float64 `json:"bound,omitempty"`
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() ([]byte, error) {
	m := manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestEntry{Name: w.name, Why: w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		m.EndToEnd = append(m.EndToEnd, manifestEntry{Name: d.name, Unit: d.unit, Better: d.better, Bound: &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestEntry{Name: d.name, Unit: d.unit, Better: d.better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	return append(b, '\n'), err
}

// writeResult prints r as one JSON line.
func writeResult(w io.Writer, r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// tally counts operations and their failures. Every check that fails marks
// its operation failed; nothing is dropped.
type tally struct {
	attempted, failed int
	log               io.Writer
}

// op records one operation whose checks produced errs (nil entries pass).
func (t *tally) op(name string, errs ...error) {
	t.attempted++
	var bad []string
	for _, err := range errs {
		if err != nil {
			bad = append(bad, err.Error())
		}
	}
	if len(bad) == 0 {
		return
	}
	t.failed++
	sort.Strings(bad)
	for _, msg := range bad {
		fmt.Fprintf(t.log, "perfbench: FAILED %s: %s\n", name, msg)
	}
}
