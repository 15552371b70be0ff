package main

import (
	"bytes"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestManifestMatchesTables keeps BENCHMARK.json in step with the metric and
// workload tables; regenerate it with -manifest.
func TestManifestMatchesTables(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate it with perfbench -manifest")
	}
}

// TestTablesWellFormed checks names are unique and end-to-end bounds sit in
// the range the harness accepts.
func TestTablesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, d := range perLayer {
		if d.moves == "" {
			t.Errorf("metric %s: no end-to-end metric it should move", d.name)
		}
	}
	for _, w := range workloads {
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); math.Abs(got-3.7) > 1e-12 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input")
	}
}

// TestSmoke runs every workload at its tiny size, untraced and traced,
// against a freshly built daemon, including the seeded reference mismatch.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dpplaced and places a dozen small designs")
	}
	bin := filepath.Join(t.TempDir(), "dpplaced")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dpplaced")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build dpplaced: %v\n%s", err, out)
	}
	var stdout, stderr bytes.Buffer
	if err := runSmoke(t.TempDir(), bin, &stdout, &stderr); err != nil {
		t.Fatalf("%v\nstdout:\n%s\nstderr:\n%s", err, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "as seeded") {
		t.Errorf("smoke did not check the seeded mismatch:\n%s", stdout.String())
	}
}
