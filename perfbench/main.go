// Command perfbench is the repository's benchmark. It runs one workload of
// the structure-aware placer and prints every metric by name with its unit,
// checking each output for correctness:
//
//	perfbench -root . -daemon dpplaced --workload flat-13k --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics of an untraced run that
// calls core.PlaceCtx, or drives the dpplaced daemon over HTTP, the way a
// user does. With --trace 1 it measures the per-layer metrics of a traced
// run that calls each layer's public function itself, in core.PlaceCtx's
// order, inside spans the benchmark owns. The last line of standard output
// is the JSON result; the line before it is the host fingerprint.
// --workload all runs the three workloads, untraced and traced, in turn. -list
// prints the metric and workload tables, with the end-to-end metric each
// per-layer metric should move; -manifest prints BENCHMARK.json from the
// same tables; -smoke runs every workload at a tiny size and checks the
// output format and the failure accounting.
//
// run.sh builds this command and the daemon from source and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// config is one benchmark invocation.
type config struct {
	root, daemon, commit string
	workload             workload
	seed                 int64
	seconds              float64
	trace                bool
	// perturbRef, in smoke mode, corrupts one reference placement so the
	// output checks must report failed operations.
	perturbRef bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "source tree root: designs and daemon data go under <root>/.bench_build")
	daemonBin := fs.String("daemon", "", "dpplaced binary for serve-small")
	commit := fs.String("commit", "unknown", "commit of the source tree, for the fingerprint")
	name := fs.String("workload", "", "workload: flat-13k, ml-27k, serve-small, or all of them")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measurement interval in seconds")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics of a traced run")
	smoke := fs.Bool("smoke", false, "run every workload at a tiny size and check the metrics and failure accounting")
	list := fs.Bool("list", false, "print the metric and workload tables")
	manifestOut := fs.Bool("manifest", false, "print BENCHMARK.json as the tables define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		describe(stdout)
		return 0
	}
	if *manifestOut {
		b, err := benchmarkJSON()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		stdout.Write(b)
		return 0
	}
	if *smoke {
		if err := runSmoke(*root, *daemonBin, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "perfbench: smoke: %v\n", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	// "all" runs every workload, untraced and then traced, each result
	// after a "== <workload> --trace <n>" line.
	ws, traces := workloads, []int{0, 1}
	if *name != "all" {
		w, err := lookupWorkload(*name, false)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: --workload: %v (flat-13k, ml-27k, serve-small or all)\n", err)
			return 2
		}
		ws, traces = []workload{w}, []int{*trace}
	}
	status := 0
	for _, w := range ws {
		for _, tr := range traces {
			if *name == "all" {
				fmt.Fprintf(stdout, "== %s --trace %d\n", w.name, tr)
			}
			cfg := config{
				root: *root, daemon: *daemonBin, commit: *commit, workload: w,
				seed: *seed, seconds: *seconds, trace: tr == 1,
			}
			r, err := runWorkload(cfg, stdout, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
				return 1
			}
			if err := writeResult(stdout, r); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			if *name == "all" && !r.Correct {
				status = 1
			}
		}
	}
	return status
}

// runWorkload runs cfg in a fresh work directory under the tree's
// .bench_build and removes it afterwards. It prints the host fingerprint
// and returns the result.
func runWorkload(cfg config, stdout, stderr io.Writer) (result, error) {
	absRoot, err := filepath.Abs(cfg.root)
	if err != nil {
		return result{}, err
	}
	fp, err := json.Marshal(hostFingerprint(absRoot, cfg.commit))
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(stdout, "host %s\n", fp)

	dir := filepath.Join(absRoot, ".bench_build", "work", cfg.workload.name+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	t := &tally{log: stderr}
	m := metricSet{}
	if cfg.workload.isServe() {
		err = runServe(cfg, dir, m, t)
	} else {
		err = runFlows(cfg, dir, m, t)
	}
	if err != nil {
		return result{}, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	return m.result(defs, t)
}

// runFlows measures a flow workload. Untraced, it repeats the flow until the
// interval is used up and reports medians per flow. Traced, it runs one
// untraced flow as the reference, one traced flow, and the kernel and
// router replays.
func runFlows(cfg config, dir string, m metricSet, t *tally) error {
	w := cfg.workload
	d, setup, err := setupFlow(w, filepath.Join(dir, "design"))
	if err != nil {
		return err
	}
	m["setup_s"] = setup
	out := filepath.Join(dir, "out.pl")

	if cfg.trace {
		traceFlow(w, d, out, m, t)
		return nil
	}
	var walls, cpus, peaks []float64
	var first *flowRun
	for sum(walls) < cfg.seconds {
		resetPeakRSS()
		f, err := runFlow(w, d, out)
		if err != nil {
			t.op("flow", err)
			return nil
		}
		var ref []byte
		if first != nil {
			ref = first.pl // every flow of a run must place identically
		} else {
			first = f
		}
		t.op("flow", f.check(ref)...)
		walls = append(walls, f.wall)
		cpus = append(cpus, f.cpu)
		peaks = append(peaks, peakRSSMB())
	}
	m["flow_s"] = median(walls)
	m["cpu_s"] = median(cpus)
	m["peak_rss_mb"] = median(peaks)
	m["hpwl"] = first.res.HPWLFinal
	m["routed_overflow"] = first.rep.Routed.Overflow
	m["job_p50_s"] = median(walls)
	m["job_p90_s"] = quantile(walls, 0.9)
	m["jobs_per_s"] = float64(len(walls)) / sum(walls)
	return nil
}

// traceFlow is the traced measurement of a flow workload.
func traceFlow(w workload, d design, out string, m metricSet, t *tally) {
	ref, err := runFlow(w, d, out)
	if err != nil {
		t.op("untraced flow", err)
		return
	}
	t.op("untraced flow", ref.check(nil)...)
	tr, err := runTraced(w, d, out, ref.res)
	if err != nil {
		t.op("traced flow", err)
		return
	}
	var ks kernelStats
	kerr := replayKernels(tr.nl, tr.global, tr.chip, w.workers(), &ks)
	rerr := routeReplay(ref.nl, ref.res.Placement, ref.chip, w.workers(), ref.rep, m)
	t.op("traced flow", append(tr.check(ref.pl), kerr, rerr)...)
	tr.tr.write(t.log)
	tr.layerMetrics(m)
	ks.metrics(m)
	m["par.utilization"] = ref.cpu / (ref.wall * float64(w.workers()))
	m["trace_overhead_s"] = tr.wall - ref.wall
	for _, name := range []string{"serve.admit_s", "serve.queue_wait_s", "serve.run_s", "serve.fetch_s",
		"serve.solve_s", "serve.journal_fsync_ms", "serve.journal_appends", "serve.lease_wait_s"} {
		m[name] = 0
	}
}

// runSmoke runs every workload at its tiny size, untraced and traced, and
// checks that each result is correct and carries every metric with its
// unit. It then reruns serve-small with a corrupted reference placement and
// checks that the corruption is counted as failed operations.
func runSmoke(root, daemonBin string, stdout, stderr io.Writer) error {
	for _, wl := range workloads {
		w, err := lookupWorkload(wl.name, true)
		if err != nil {
			return err
		}
		for _, trace := range []bool{false, true} {
			cfg := config{root: root, daemon: daemonBin, commit: "smoke", workload: w,
				seed: 3, seconds: 1, trace: trace}
			r, err := runWorkload(cfg, io.Discard, stderr)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", w.name, trace, err)
			}
			if err := checkResult(r, trace); err != nil {
				return fmt.Errorf("%s trace=%v: %w", w.name, trace, err)
			}
			fmt.Fprintf(stdout, "smoke %s trace=%v: %d operations, all correct, %d metrics\n",
				w.name, trace, r.Attempted, len(r.Metrics))
		}
	}
	w, err := lookupWorkload("serve-small", true)
	if err != nil {
		return err
	}
	cfg := config{root: root, daemon: daemonBin, commit: "smoke", workload: w,
		seed: 3, seconds: 1, perturbRef: true}
	r, err := runWorkload(cfg, io.Discard, io.Discard)
	if err != nil {
		return err
	}
	if r.Correct || r.Failed == 0 || r.Failed > r.Attempted {
		return fmt.Errorf("perturbed reference: correct=%v failed=%d attempted=%d, want failures counted",
			r.Correct, r.Failed, r.Attempted)
	}
	fmt.Fprintf(stdout, "smoke perturbed reference: %d of %d operations failed, as seeded\n", r.Failed, r.Attempted)
	return nil
}

// checkResult verifies a result is correct and has exactly the metrics of
// its kind, each with its declared unit.
func checkResult(r result, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		return fmt.Errorf("correct=%v failed=%d attempted=%d", r.Correct, r.Failed, r.Attempted)
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.name]
		if !ok || v.Unit != d.unit {
			return fmt.Errorf("metric %s missing or not in %s", d.name, d.unit)
		}
	}
	return nil
}
