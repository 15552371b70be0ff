package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand" //placelint:ignore walltime seeded: the benchmark's job order, which the placer never sees
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// daemon is one dpplaced child process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// bootTimeout bounds how long the daemon may take to answer /readyz.
const bootTimeout = 30 * time.Second

// startDaemon boots bin on a free local port with data directory dir and a
// worker budget of workers, and waits until /readyz answers 200.
func startDaemon(bin, dir string, workers int) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dir,
		"-workers", strconv.Itoa(workers), "-quiet")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dpplaced: %w", err)
	}
	d := &daemon{cmd: cmd}
	waited := obs.StartStopwatch()
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "dpplaced.addr")); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.base = "http://" + strings.TrimSpace(string(b))
			if resp, err := http.Get(d.base + "/readyz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		if waited.Elapsed() > bootTimeout {
			d.stop()
			return nil, errors.New("dpplaced did not become ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, waits for it to exit, and returns
// its lifetime resource use. A drain that does not exit cleanly is an error.
func (d *daemon) stop() (usage, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Process.Kill()
	}
	err := d.cmd.Wait()
	var u usage
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u = rusageOf(ru)
	}
	if err != nil {
		return u, fmt.Errorf("dpplaced exit: %w", err)
	}
	return u, nil
}

// jobSpec is the daemon's job body for an inline Bookshelf bundle with the
// default job options.
type jobSpec struct {
	Name string    `json:"name"`
	Aux  auxBundle `json:"aux"`
}

// auxBundle mirrors the daemon's inline bundle.
type auxBundle struct {
	Nodes string `json:"nodes"`
	Nets  string `json:"nets"`
	Pl    string `json:"pl"`
	Scl   string `json:"scl"`
}

// jobBody reads d's Bookshelf files into a job spec.
func jobBody(d design) ([]byte, error) {
	base := strings.TrimSuffix(d.aux, ".aux")
	var files [4]string
	for i, ext := range []string{".nodes", ".nets", ".pl", ".scl"} {
		b, err := os.ReadFile(base + ext)
		if err != nil {
			return nil, err
		}
		files[i] = string(b)
	}
	return json.Marshal(jobSpec{Name: d.name, Aux: auxBundle{Nodes: files[0], Nets: files[1], Pl: files[2], Scl: files[3]}})
}

// jobView is the part of the daemon's job state the client reads.
type jobView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Exit  string `json:"exit"`
	Error string `json:"error"`
}

// jobReport is the part of the job's run report the client reads.
type jobReport struct {
	Exit  string `json:"exit"`
	HPWL  struct{ Final float64 }
	Stage map[string]float64 `json:"stage_seconds"`
	// Metrics is the quality report; only the router's overflow is read.
	Metrics struct {
		Routed struct{ Overflow float64 }
	} `json:"metrics"`
}

// jobSample is one closed-loop job as the client saw it.
type jobSample struct {
	design                int
	admit, queueWait, run float64
	latency, fetch, solve float64
	final                 jobView
	report                jobReport
	pl                    []byte
	err                   error
}

// runJob submits body, follows the job's event stream to its terminal
// state, and downloads the report and placement.
func runJob(base string, design int, body []byte) jobSample {
	s := jobSample{design: design}
	sw := obs.StartStopwatch()
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	var v jobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	s.admit = sw.Seconds()
	if resp.StatusCode != http.StatusAccepted {
		s.err = fmt.Errorf("submit: status %d", resp.StatusCode)
		return s
	}
	if err != nil {
		s.err = fmt.Errorf("submit: %w", err)
		return s
	}

	resp, err = http.Get(base + "/jobs/" + v.ID + "/events")
	if err != nil {
		s.err = err
		return s
	}
	running := -1.0
	r := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, rerr := r.ReadString('\n')
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "state":
			var sv jobView
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &sv); err != nil {
				s.err = fmt.Errorf("state event: %w", err)
				resp.Body.Close()
				return s
			}
			if sv.State == "running" && running < 0 {
				running = sw.Seconds()
			}
			if sv.State == "done" || sv.State == "failed" || sv.State == "canceled" {
				s.latency = sw.Seconds()
				s.final = sv
			}
		}
		if s.final.State != "" || rerr != nil {
			break
		}
	}
	resp.Body.Close()
	if s.final.State == "" {
		s.err = errors.New("event stream ended before a terminal state")
		return s
	}
	if running < 0 {
		// The job started between the POST and the subscription.
		running = s.admit
	}
	s.queueWait = running
	s.run = s.latency - running

	fetch := obs.StartStopwatch()
	rep, err := get(base + "/jobs/" + v.ID + "/report")
	if err == nil {
		err = json.Unmarshal(rep, &s.report)
	}
	if err == nil {
		s.pl, err = get(base + "/jobs/" + v.ID + "/placement")
	}
	s.fetch = fetch.Seconds()
	s.err = err
	stages := make([]string, 0, len(s.report.Stage))
	for name := range s.report.Stage {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	for _, name := range stages {
		s.solve += s.report.Stage[name]
	}
	return s
}

// get fetches url and returns the body of a 200 response.
func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return b, nil
}

// closedLoop runs clients that each submit a job, wait for it, and submit
// the next, cycling through bodies in the given order, until seconds have
// passed and at least minJobs jobs and every body were submitted. It returns
// the jobs and the interval from the first submission to the last
// completion.
func closedLoop(base string, bodies [][]byte, order []int, clients, minJobs int, seconds float64) ([]jobSample, float64) {
	var (
		mu   sync.Mutex
		next int
		jobs []jobSample
		wg   sync.WaitGroup
	)
	sw := obs.StartStopwatch()
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if sw.Seconds() >= seconds && next >= max(minJobs, len(bodies)) {
			return 0, false
		}
		i := order[next%len(order)]
		next++
		return i, true
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := claim()
				if !ok {
					return
				}
				s := runJob(base, i, bodies[i])
				mu.Lock()
				jobs = append(jobs, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, sw.Seconds()
}

// scrape reads the daemon's /metrics exposition into sample name (labels
// included) → value.
func scrape(base string) (map[string]float64, error) {
	b, err := get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// meanDelta is the mean observation a histogram gained between two
// scrapes (0 when it gained none).
func meanDelta(before, after map[string]float64, hist string) float64 {
	n := after[hist+"_count"] - before[hist+"_count"]
	if n <= 0 {
		return 0
	}
	return (after[hist+"_sum"] - before[hist+"_sum"]) / n
}

// check verifies one job: it ended done and ok, and its placement is
// byte-identical to the in-process reference of its design.
func (s jobSample) check(ref []byte) []error {
	if s.err != nil {
		return []error{s.err}
	}
	var errs []error
	if s.final.State != "done" || s.final.Exit != "ok" || s.report.Exit != "ok" {
		errs = append(errs, fmt.Errorf("job %s ended %s/%s: %s", s.final.ID, s.final.State, s.final.Exit, s.final.Error))
	}
	if ref == nil {
		errs = append(errs, fmt.Errorf("job %s: no reference placement for design %d", s.final.ID, s.design))
	} else if !bytes.Equal(s.pl, ref) {
		errs = append(errs, fmt.Errorf("job %s: .pl %s differs from the reference %s",
			s.final.ID, hashBytes(s.pl)[:12], hashBytes(ref)[:12]))
	}
	return errs
}

// runServe measures the serve workload: set up the batch and the daemon
// (setupReps times, keeping the last daemon), run the closed loop for the
// interval, scrape /metrics around it, drain the daemon, and only then
// compute the in-process references every job is checked against. Traced,
// the references are also placed layer by layer and replayed.
func runServe(cfg config, dir string, m metricSet, t *tally) (err error) {
	w := cfg.workload
	var (
		d       *daemon
		designs []design
		bodies  [][]byte
		setups  []float64
	)
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < setupReps; i++ {
		if d != nil {
			old := d
			d = nil
			if _, err := old.stop(); err != nil {
				return err
			}
		}
		rep := filepath.Join(dir, fmt.Sprintf("setup%d", i))
		sw := obs.StartStopwatch()
		if designs, err = writeBatch(w, filepath.Join(rep, "designs")); err != nil {
			return err
		}
		bodies = bodies[:0]
		for _, des := range designs {
			b, err := jobBody(des)
			if err != nil {
				return err
			}
			bodies = append(bodies, b)
		}
		if d, err = startDaemon(cfg.daemon, filepath.Join(rep, "data"), runtime.NumCPU()); err != nil {
			return err
		}
		setups = append(setups, sw.Seconds())
	}
	m["setup_s"] = median(setups)

	before, err := scrape(d.base)
	if err != nil {
		return err
	}
	// One closed-loop client per core, in the seed's submission order.
	order := rand.New(rand.NewSource(cfg.seed)).Perm(len(bodies)) //placelint:ignore walltime seeded: the benchmark's job order, which the placer never sees
	jobs, interval := closedLoop(d.base, bodies, order, runtime.NumCPU(), w.minJobs, cfg.seconds)
	after, err := scrape(d.base)
	if err != nil {
		return err
	}
	u, err := d.stop()
	d = nil
	if err != nil {
		return err
	}

	refs := make([][]byte, len(designs))
	var (
		ks              kernelStats
		refWall, trWall float64
	)
	out := filepath.Join(dir, "ref.pl")
	for i, des := range designs {
		f, err := runFlow(w, des, out)
		if err != nil {
			t.op("reference", err)
			continue
		}
		t.op("reference", f.check(nil)...)
		refs[i] = f.pl
		if !cfg.trace {
			continue
		}
		tr, err := runTraced(w, des, out, f.res)
		if err != nil {
			t.op("traced flow", err)
			continue
		}
		kerr := replayKernels(tr.nl, tr.global, tr.chip, w.workers(), &ks)
		rerr := routeReplay(f.nl, f.res.Placement, f.chip, w.workers(), f.rep, m)
		t.op("traced flow", append(tr.check(f.pl), kerr, rerr)...)
		tr.tr.write(t.log)
		tr.layerMetrics(m)
		refWall += f.wall
		trWall += tr.wall
	}
	if cfg.perturbRef && refs[0] != nil {
		refs[0] = append(bytes.Clone(refs[0]), '\n')
	}

	var admits, waits, runs, lats, fetches, solves []float64
	hpwl := make([]float64, len(designs))
	overflow := make([]float64, len(designs))
	done := 0
	for _, j := range jobs {
		errs := j.check(refs[j.design])
		t.op("job", errs...)
		if len(errs) > 0 {
			continue
		}
		done++
		admits = append(admits, j.admit)
		waits = append(waits, j.queueWait)
		runs = append(runs, j.run)
		lats = append(lats, j.latency)
		fetches = append(fetches, j.fetch)
		solves = append(solves, j.solve)
		hpwl[j.design] = j.report.HPWL.Final
		overflow[j.design] = j.report.Metrics.Routed.Overflow
	}
	m["flow_s"] = median(runs)
	m["cpu_s"] = u.cpu / float64(len(jobs))
	m["peak_rss_mb"] = u.peakMB
	m["hpwl"] = sum(hpwl)
	m["routed_overflow"] = sum(overflow)
	m["job_p50_s"] = median(lats)
	m["job_p90_s"] = quantile(lats, 0.9)
	m["jobs_per_s"] = float64(done) / interval

	if cfg.trace {
		m["global.dirty_net_ratio"] /= float64(len(designs))
		ks.metrics(m)
		m["par.utilization"] = u.cpu / (interval * float64(runtime.NumCPU()))
		m["trace_overhead_s"] = trWall - refWall
		m["serve.admit_s"] = median(admits)
		m["serve.queue_wait_s"] = median(waits)
		m["serve.run_s"] = median(runs)
		m["serve.fetch_s"] = median(fetches)
		m["serve.solve_s"] = median(solves)
		m["serve.journal_fsync_ms"] = meanDelta(before, after, "dpplaced_journal_fsync_seconds") * 1e3
		m["serve.journal_appends"] = (after["dpplaced_journal_appends_total"] - before["dpplaced_journal_appends_total"]) / float64(len(jobs))
		m["serve.lease_wait_s"] = meanDelta(before, after, "dpplaced_par_lease_wait_seconds")
	}
	return nil
}
