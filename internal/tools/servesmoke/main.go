// Command servesmoke is the CI smoke driver for dpplaced. It runs two
// scripted daemon lifetimes against one shared data directory:
//
// Phase 1 (clean lifecycle): boot the daemon on an ephemeral port, check the
// health probes, submit an example generated netlist, poll the job to
// completion, validate the dpplace-run-report/v1 artifact (including its
// metrics_snapshot section) and the placement, scrape /metrics and assert
// the core series exist and that two idle scrapes are byte-identical, then
// SIGTERM and assert a clean drain (exit 0).
//
// Phase 2 (drain under load): reboot the daemon on the same data directory
// (exercising journal replay), assert the replayed daemon serves phase 1's
// job view byte-identical to the last one phase 1 fetched, then, with a
// short -drain-timeout, submit a job big
// enough to still be grinding at the deadline, SIGTERM mid-run, assert
// /readyz flips to 503 while the job is still running and /metrics keeps
// serving through the drain window, and assert the daemon exits 3 (forced
// drain: the job checkpointed for the next instance).
//
// Any deviation exits nonzero with a description, so the Makefile target
// (`make serve-smoke`) is a single command in CI.
//
// Usage:
//
//	servesmoke -bin path/to/dpplaced [-timeout 300s]
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	bin := flag.String("bin", "", "path to the dpplaced binary (required)")
	timeout := flag.Duration("timeout", 300*time.Second, "overall smoke budget")
	dataDir := flag.String("data", "", "daemon data directory, wiped at start and "+
		"kept after the run (default: a private temp dir, removed afterwards); "+
		"CI passes a known path here so the journal and artifacts survive a "+
		"failure for upload")
	flag.Parse()
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "usage: servesmoke -bin path/to/dpplaced")
		os.Exit(2)
	}
	if err := smoke(*bin, *timeout, *dataDir); err != nil {
		fmt.Fprintf(os.Stderr, "serve-smoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("serve-smoke: PASS")
}

// daemon is one running dpplaced instance under test.
type daemon struct {
	cmd  *exec.Cmd
	done chan error
	base string
}

// startDaemon boots the binary on an ephemeral port over the given data dir
// and waits (via poll) for the published address file.
func startDaemon(bin, data string, extraArgs []string, wait func(string, func() (bool, error)) error) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-data", data, "-workers", "2"}, extraArgs...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	var addr string
	if err := wait("daemon startup", func() (bool, error) {
		b, err := os.ReadFile(filepath.Join(data, "dpplaced.addr"))
		if err != nil || len(strings.TrimSpace(string(b))) == 0 {
			return false, nil
		}
		addr = strings.TrimSpace(string(b))
		return true, nil
	}); err != nil {
		cmd.Process.Kill()
		return nil, err
	}
	d.base = "http://" + addr
	return d, nil
}

// getStatus fetches path and returns the status code (0 on transport error).
func (d *daemon) getStatus(path string) int {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

// scrapeMetrics fetches /metrics and returns the exposition text.
func (d *daemon) scrapeMetrics() (string, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return "", fmt.Errorf("GET /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return "", fmt.Errorf("GET /metrics: Content-Type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("GET /metrics: read: %w", err)
	}
	return string(b), nil
}

// submit posts a job spec and returns the job id.
func (d *daemon) submit(spec string) (string, error) {
	resp, err := http.Post(d.base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		return "", fmt.Errorf("submit: %w", err)
	}
	var view struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		return "", fmt.Errorf("submit: decode: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted || view.ID == "" {
		return "", fmt.Errorf("submit: status %d (%s)", resp.StatusCode, view.Error)
	}
	return view.ID, nil
}

// jobView is the subset of the job view the smoke inspects.
type jobView struct {
	State string  `json:"state"`
	Exit  string  `json:"exit"`
	Error string  `json:"error"`
	HPWL  float64 `json:"hpwl"`
}

// jobJSON fetches one job's view as the daemon serialized it.
func (d *daemon) jobJSON(id string) ([]byte, error) {
	resp, err := http.Get(d.base + "/jobs/" + id)
	if err != nil {
		return nil, fmt.Errorf("GET /jobs/%s: %w", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /jobs/%s: status %d", id, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// job fetches one job's view (ok=false on transport/decode trouble, which
// pollers treat as retry).
func (d *daemon) job(id string) (jobView, bool) {
	var v jobView
	b, err := d.jobJSON(id)
	if err != nil || json.Unmarshal(b, &v) != nil {
		return v, false
	}
	return v, true
}

// coreSeries are the /metrics series whose presence phase 1 asserts after
// one completed job. The place and metrics stage buckets are fed only by the
// recorder's span hook, so their +Inf count of 1 proves the hook end to end.
var coreSeries = []string{
	`dpplaced_jobs_total{state="done"} 1`,
	`dpplaced_jobs_total{state="queued"} 1`,
	`dpplaced_jobs_total{state="running"} 1`,
	`dpplaced_queue_depth 0`,
	`dpplaced_job_duration_seconds_count 1`,
	`dpplaced_job_duration_seconds_bucket`,
	`dpplaced_journal_fsync_seconds_bucket`,
	`dpplaced_journal_appends_total`,
	`dpplaced_admission_rejects_total{reason="queue_full"} 0`,
	`dpplaced_par_budget_workers 2`,
	`dpplace_stage_seconds_bucket{stage="global",le=`,
	`dpplace_stage_seconds_bucket{stage="place",le="+Inf"} 1`,
	`dpplace_stage_seconds_bucket{stage="metrics",le="+Inf"} 1`,
	`dpplace_health_events_total{kind="rollbacks"}`,
}

// smoke runs the whole scenario; any error fails the smoke. A non-empty
// dataDir is wiped first — a journal left over from an earlier run would be
// replayed by the phase-1 boot and skew the metrics assertions — and left
// behind afterwards for post-mortem inspection.
func smoke(bin string, budget time.Duration, dataDir string) error {
	data := dataDir
	if data == "" {
		var err error
		data, err = os.MkdirTemp("", "servesmoke")
		if err != nil {
			return err
		}
		defer os.RemoveAll(data)
	} else {
		if err := os.RemoveAll(data); err != nil {
			return err
		}
		if err := os.MkdirAll(data, 0o755); err != nil {
			return err
		}
	}

	// The overall budget is enforced with a deadline timer rather than
	// wall-clock reads.
	expired := time.NewTimer(budget)
	defer expired.Stop()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	var activeDone chan error
	wait := func(what string, poll func() (bool, error)) error {
		for {
			ok, err := poll()
			if err != nil {
				return fmt.Errorf("%s: %w", what, err)
			}
			if ok {
				return nil
			}
			select {
			case err := <-activeDone:
				return fmt.Errorf("%s: daemon exited early: %w", what, err)
			case <-expired.C:
				return fmt.Errorf("%s: smoke budget exhausted", what)
			case <-tick.C:
			}
		}
	}

	id, view, err := phaseCleanLifecycle(bin, data, &activeDone, wait, expired.C)
	if err != nil {
		return fmt.Errorf("phase 1: %w", err)
	}
	if err := phaseDrainUnderLoad(bin, data, id, view, &activeDone, wait, expired.C); err != nil {
		return fmt.Errorf("phase 2: %w", err)
	}
	return nil
}

// phaseCleanLifecycle is the happy path: one job end to end, probes green,
// metrics populated and deterministic, clean drain on SIGTERM. It returns
// the job's id and the last view of it the daemon served.
func phaseCleanLifecycle(bin, data string, activeDone *chan error,
	wait func(string, func() (bool, error)) error, expired <-chan time.Time) (id string, view []byte, err error) {
	d, err := startDaemon(bin, data, nil, wait)
	if err != nil {
		return "", nil, err
	}
	*activeDone = d.done
	defer d.cmd.Process.Kill()

	// Health probes before any work: alive and ready.
	if got := d.getStatus("/healthz"); got != http.StatusOK {
		return "", nil, fmt.Errorf("/healthz = %d, want 200", got)
	}
	if got := d.getStatus("/readyz"); got != http.StatusOK {
		return "", nil, fmt.Errorf("/readyz = %d, want 200", got)
	}

	id, err = d.submit(`{"name":"smoke","priority":1,
		"gen":{"seed":7,"bits":8,"units":["adder","regbank"],"random_cells":300,"pads":12},
		"options":{"outer":8,"inner":20}}`)
	if err != nil {
		return "", nil, err
	}
	fmt.Printf("serve-smoke: submitted %s to %s\n", id, d.base)

	var last jobView
	if err := wait("job completion", func() (bool, error) {
		v, ok := d.job(id)
		if !ok {
			return false, nil
		}
		last = v
		switch v.State {
		case "done":
			return true, nil
		case "failed", "canceled":
			return false, fmt.Errorf("job %s %s: %s", id, v.State, v.Error)
		}
		return false, nil
	}); err != nil {
		return "", nil, err
	}
	if last.Exit != "ok" || last.HPWL <= 0 {
		return "", nil, fmt.Errorf("job finished exit=%q hpwl=%v, want ok with positive HPWL", last.Exit, last.HPWL)
	}
	fmt.Printf("serve-smoke: %s done, HPWL %.0f\n", id, last.HPWL)

	// Validate the run-report artifact, metrics_snapshot included.
	resp, err := http.Get(d.base + "/jobs/" + id + "/report")
	if err != nil {
		return "", nil, fmt.Errorf("report: %w", err)
	}
	var report struct {
		Schema string `json:"schema"`
		Exit   string `json:"exit"`
		HPWL   struct {
			Final float64 `json:"final"`
		} `json:"hpwl"`
		MetricsSnapshot map[string]float64 `json:"metrics_snapshot"`
	}
	err = json.NewDecoder(resp.Body).Decode(&report)
	resp.Body.Close()
	if err != nil {
		return "", nil, fmt.Errorf("report: decode: %w", err)
	}
	if report.Schema != "dpplace-run-report/v1" {
		return "", nil, fmt.Errorf("report schema = %q, want dpplace-run-report/v1", report.Schema)
	}
	if report.Exit != "ok" || report.HPWL.Final <= 0 {
		return "", nil, fmt.Errorf("report exit=%q final=%v, want ok with positive final HPWL", report.Exit, report.HPWL.Final)
	}
	if len(report.MetricsSnapshot) == 0 {
		return "", nil, fmt.Errorf("report has no metrics_snapshot section")
	}
	if report.MetricsSnapshot[`dpplaced_jobs_total{state="running"}`] < 1 {
		return "", nil, fmt.Errorf("metrics_snapshot missing the running-state transition: %v", report.MetricsSnapshot)
	}

	// The placement artifact is a Bookshelf .pl.
	resp, err = http.Get(d.base + "/jobs/" + id + "/placement")
	if err != nil {
		return "", nil, fmt.Errorf("placement: %w", err)
	}
	plBytes := make([]byte, 64)
	n, _ := resp.Body.Read(plBytes)
	resp.Body.Close()
	if !strings.Contains(string(plBytes[:n]), "UCLA pl") {
		return "", nil, fmt.Errorf("placement artifact does not look like a .pl: %q", plBytes[:n])
	}

	// Wait for the scheduler to go fully idle (runner unwound, budget
	// released), then assert the exposition: core series present, and two
	// consecutive idle scrapes byte-identical.
	if err := wait("scheduler idle", func() (bool, error) {
		resp, err := http.Get(d.base + "/stats")
		if err != nil {
			return false, nil
		}
		defer resp.Body.Close()
		var st struct {
			Running      int `json:"running"`
			WorkersInUse int `json:"workers_in_use"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return false, nil
		}
		return st.Running == 0 && st.WorkersInUse == 0, nil
	}); err != nil {
		return "", nil, err
	}
	text, err := d.scrapeMetrics()
	if err != nil {
		return "", nil, err
	}
	for _, want := range coreSeries {
		if !strings.Contains(text, want) {
			return "", nil, fmt.Errorf("/metrics missing %q", want)
		}
	}
	again, err := d.scrapeMetrics()
	if err != nil {
		return "", nil, err
	}
	if again != text {
		return "", nil, fmt.Errorf("two idle /metrics scrapes are not byte-identical")
	}
	fmt.Println("serve-smoke: /metrics core series present, idle scrapes identical")
	if view, err = d.jobJSON(id); err != nil {
		return "", nil, err
	}

	// SIGTERM: the drain must be clean (exit 0).
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return "", nil, fmt.Errorf("signal: %w", err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			var ee *exec.ExitError
			if errors.As(err, &ee) {
				return "", nil, fmt.Errorf("drain exit code %d, want 0", ee.ExitCode())
			}
			return "", nil, fmt.Errorf("drain: %w", err)
		}
	case <-expired:
		return "", nil, fmt.Errorf("drain: daemon still running at the smoke budget")
	}
	fmt.Println("serve-smoke: clean drain")
	return id, view, nil
}

// phaseDrainUnderLoad reboots on the same data dir (journal replay), checks
// the replayed view of phase 1's job, pins a grinder job, and proves the
// drain-aware probe contract: /readyz flips to 503 before the in-flight job
// finishes, /metrics serves through the drain, and the forced drain exits 3.
func phaseDrainUnderLoad(bin, data, doneID string, doneView []byte, activeDone *chan error,
	wait func(string, func() (bool, error)) error, expired <-chan time.Time) error {
	d, err := startDaemon(bin, data, []string{"-drain-timeout", "2s"}, wait)
	if err != nil {
		return err
	}
	*activeDone = d.done
	defer d.cmd.Process.Kill()

	// The replayed daemon still serves phase 1's terminal job, exactly as
	// the live daemon showed it.
	if got := d.getStatus("/readyz"); got != http.StatusOK {
		return fmt.Errorf("/readyz after replay = %d, want 200", got)
	}
	replayed, err := d.jobJSON(doneID)
	if err != nil {
		return fmt.Errorf("after replay: %w", err)
	}
	if !bytes.Equal(replayed, doneView) {
		return fmt.Errorf("replayed view of %s differs from the live one:\n live     %s\n replayed %s",
			doneID, doneView, replayed)
	}
	fmt.Printf("serve-smoke: replayed view of %s identical to the live one\n", doneID)

	id, err := d.submit(`{"name":"grinder",
		"gen":{"seed":7,"bits":8,"units":["adder","muxtree"],"random_cells":2500,"pads":16},
		"options":{"outer":400,"inner":200,"workers":1}}`)
	if err != nil {
		return err
	}
	if err := wait("grinder running", func() (bool, error) {
		v, ok := d.job(id)
		if !ok {
			return false, nil
		}
		if v.State == "done" || v.State == "failed" {
			return false, fmt.Errorf("grinder finished (%s) before the drain; enlarge the spec", v.State)
		}
		return v.State == "running", nil
	}); err != nil {
		return err
	}

	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal: %w", err)
	}
	// The readiness probe must flip while the grinder still runs.
	if err := wait("/readyz flip to 503", func() (bool, error) {
		return d.getStatus("/readyz") == http.StatusServiceUnavailable, nil
	}); err != nil {
		return err
	}
	if v, ok := d.job(id); !ok || v.State != "running" {
		return fmt.Errorf("job state during 503 window = %q, want running", v.State)
	}
	text, err := d.scrapeMetrics()
	if err != nil {
		return fmt.Errorf("scrape during drain: %w", err)
	}
	if !strings.Contains(text, `dpplaced_jobs_running 1`) {
		return fmt.Errorf("/metrics during drain missing dpplaced_jobs_running 1")
	}
	fmt.Println("serve-smoke: /readyz flipped to 503 mid-run, /metrics live during drain")

	// The 2s drain deadline forces the checkpoint path: exit code 3.
	select {
	case err := <-d.done:
		var ee *exec.ExitError
		if err == nil {
			return fmt.Errorf("forced drain exited 0, want 3 (checkpointed)")
		}
		if !errors.As(err, &ee) {
			return fmt.Errorf("forced drain: %w", err)
		}
		if ee.ExitCode() != 3 {
			return fmt.Errorf("forced drain exit code %d, want 3", ee.ExitCode())
		}
	case <-expired:
		return fmt.Errorf("forced drain: daemon still running at the smoke budget")
	}
	fmt.Println("serve-smoke: forced drain checkpointed (exit 3)")
	return nil
}
