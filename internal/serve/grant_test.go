package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/par"
)

// smallSpec is a 328-cell-estimate design asking for the whole budget, the
// shape of a typical daemon job: too small for a second worker to pay.
func smallSpec(name string, seed int64) *JobSpec {
	return &JobSpec{
		Name: name,
		Gen: &GenSpec{
			Seed: seed, Bits: 8, Units: []string{"adder", "regbank"},
			RandomCells: 200,
		},
		Options: SpecOptions{Outer: 8, Inner: 20},
	}
}

// sizedSpec is a gen spec whose EstimateCells is exactly cells (no
// datapath units), with the given explicit worker request.
func sizedSpec(cells, workers int) *JobSpec {
	return &JobSpec{
		Gen:     &GenSpec{RandomCells: cells},
		Options: SpecOptions{Workers: workers},
	}
}

// TestGrantWant checks the grant-sizing rule: one worker per
// cellsPerWorker estimated cells, at least one, capped by an explicit
// worker request.
func TestGrantWant(t *testing.T) {
	cases := []struct {
		name string
		spec *JobSpec
		want int
	}{
		{"small job, all requested", smallSpec("s", 1), 1},
		{"below one worker's cells", sizedSpec(cellsPerWorker-1, 0), 1},
		{"one worker's cells", sizedSpec(cellsPerWorker, 0), 1},
		{"two workers' cells", sizedSpec(2*cellsPerWorker, 0), 2},
		{"eight workers' cells", sizedSpec(8*cellsPerWorker+5, 0), 8},
		{"explicit request below the cap", sizedSpec(8*cellsPerWorker, 3), 3},
		{"explicit request above the cap", sizedSpec(cellsPerWorker, 4), 1},
		{"explicit request equal to the cap", sizedSpec(2*cellsPerWorker, 2), 2},
		{"aux bundle counts node lines", &JobSpec{Aux: &AuxBundle{
			Nodes: strings.Repeat("c\n", 3*cellsPerWorker)}}, 3},
	}
	for _, c := range cases {
		if got := grantWant(c.spec); got != c.want {
			t.Errorf("%s: grantWant = %d, want %d (estimate %d cells)",
				c.name, got, c.want, EstimateCells(c.spec))
		}
	}

	// A job of two workers' cells still takes a whole 2-worker budget.
	b := par.NewBudget(2)
	if got, err := b.Acquire(context.Background(), grantWant(sizedSpec(2*cellsPerWorker, 0))); err != nil || got != 2 {
		t.Fatalf("granted %d workers of a 2-worker budget (err %v), want 2", got, err)
	}
}

// TestSmallJobsShareBudget runs two small jobs on a 2-worker budget: each
// is granted one worker, they run side by side, and their placements match
// a 1-worker daemon's byte for byte.
func TestSmallJobsShareBudget(t *testing.T) {
	run := func(workers int) (s *Server, dir string, ids []string) {
		dir = t.TempDir()
		s = newServer(t, Config{Dir: dir, Workers: workers})
		// Queue both before the dispatcher starts, so the second is
		// dispatched while the first is still placing.
		for i := 0; i < 2; i++ {
			v, err := s.Submit(smallSpec("small", int64(20+i)))
			if err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
			ids = append(ids, v.ID)
		}
		s.Start()
		for _, id := range ids {
			if got := waitTerminal(t, s, id, 120*time.Second); got.State != StateDone {
				t.Fatalf("job %s ended %s (%s)", id, got.State, got.Error)
			}
		}
		return s, dir, ids
	}

	s, dir, ids := run(2)
	if hw := s.budget.HighWater(); hw != 2 {
		t.Fatalf("budget high-water %d, want 2: the small jobs did not run concurrently", hw)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := replayFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	starts := 0
	for _, r := range recs {
		if r.Ev == EvStart {
			starts++
			if r.Workers != 1 {
				t.Errorf("job %s started on %d workers, want 1", r.Job, r.Workers)
			}
		}
	}
	if starts != 2 {
		t.Fatalf("journal has %d start records, want 2", starts)
	}

	ref, _, refIDs := run(1)
	defer ref.Close()
	for i, id := range ids {
		got, err := os.ReadFile(filepath.Join(s.JobDir(id), "out.pl"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(ref.JobDir(refIDs[i]), "out.pl"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("job %s placement differs from the 1-worker daemon's", id)
		}
	}
}
