package dpplace_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"testing"

	dpplace "repro"
	"repro/internal/pipeline"
	"repro/internal/place/congestion"
	"repro/internal/place/global"
)

// goldenBench regenerates the same deterministic benchmark for each run, so
// every placement starts from an identical netlist and initial placement.
func goldenBench() *dpplace.Benchmark {
	return dpplace.Generate(dpplace.BenchConfig{
		Name: "golden", Seed: 23, Bits: 8,
		Units:       []dpplace.UnitKind{dpplace.Adder, dpplace.RegBank},
		RandomCells: 200,
	})
}

func goldenPlace(t *testing.T, ctx context.Context) *dpplace.Result {
	t.Helper()
	bench := goldenBench()
	res, err := dpplace.PlaceCtx(ctx, bench.Netlist, bench.Core, bench.Placement,
		dpplace.Options{Mode: dpplace.StructureAware})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func samePlacement(t *testing.T, label string, a, b *dpplace.Placement) {
	t.Helper()
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: placement sizes differ: %d vs %d", label, len(a.X), len(b.X))
	}
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] {
			t.Fatalf("%s: cell %d moved: (%v,%v) vs (%v,%v) — tracing must be passive",
				label, i, a.X[i], a.Y[i], b.X[i], b.Y[i])
		}
	}
}

// TestTracingIsPassive is the golden test of the observability layer: a run
// with no recorder, a run with a disabled recorder, and a fully traced run
// must produce bit-identical placements.
func TestTracingIsPassive(t *testing.T) {
	plain := goldenPlace(t, context.Background())

	disabled := dpplace.NewRecorder()
	resDisabled := goldenPlace(t, dpplace.WithRecorder(context.Background(), disabled))
	samePlacement(t, "disabled recorder", plain.Placement, resDisabled.Placement)

	var trace bytes.Buffer
	enabled := dpplace.NewRecorder()
	enabled.SetTrace(&trace)
	resTraced := goldenPlace(t, dpplace.WithRecorder(context.Background(), enabled))
	samePlacement(t, "enabled recorder", plain.Placement, resTraced.Placement)

	// The disabled recorder must have stayed empty.
	if len(disabled.Counters()) != 0 {
		t.Errorf("disabled recorder accumulated counters: %v", disabled.Counters())
	}

	// The trace must actually contain the flow's telemetry.
	type ev struct {
		Ev    string `json:"ev"`
		Name  string `json:"name"`
		Stage string `json:"stage"`
	}
	spans := map[string]int{}
	iters, outers := 0, 0
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(trace.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		lines++
		var e ev
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("invalid trace line %q: %v", sc.Bytes(), err)
		}
		switch e.Ev {
		case "span":
			spans[e.Name]++
		case "iter":
			iters++
		case "outer":
			outers++
		}
	}
	for _, want := range []string{"place", "extract", "global", "legalize", "detail"} {
		if spans[want] == 0 {
			t.Errorf("trace has no %q span (spans: %v)", want, spans)
		}
	}
	if iters == 0 {
		t.Error("trace has no solver iter events")
	}
	if outers == 0 {
		t.Error("trace has no λ-schedule outer events")
	}
	if got := len(enabled.Trajectory()); got != outers {
		t.Errorf("in-memory trajectory has %d points, trace has %d outer events",
			got, outers)
	}
	if enabled.Counter("global/outer_iters") == 0 {
		t.Errorf("global span counters did not roll up: %v", enabled.Counters())
	}
	t.Logf("trace: %d lines, %d iters, %d outers, spans %v", lines, iters, outers, spans)
}

// TestWorkersBitIdentical is the golden determinism test of the parallel
// engine: the full structure-aware flow must produce bit-identical
// placements at every worker count. The parallel hot paths compute per-net
// (or per-row) results concurrently but reduce them in a fixed serial
// order, so float non-associativity never enters the picture.
func TestWorkersBitIdentical(t *testing.T) {
	place := func(workers int) *dpplace.Result {
		t.Helper()
		bench := goldenBench()
		res, err := dpplace.PlaceCtx(context.Background(),
			bench.Netlist, bench.Core, bench.Placement,
			dpplace.Options{
				Mode:   dpplace.StructureAware,
				Global: global.Options{Workers: workers},
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := place(1)
	if serial.GlobalResult.Workers != 1 {
		t.Fatalf("workers=1 run reports %d workers", serial.GlobalResult.Workers)
	}
	for _, workers := range []int{2, 4} {
		par := place(workers)
		samePlacement(t, "workers", serial.Placement, par.Placement)
		if par.GlobalResult.Workers != workers {
			t.Errorf("workers=%d run reports %d workers", workers, par.GlobalResult.Workers)
		}
		if par.GlobalResult.NetReuses == 0 {
			t.Errorf("workers=%d run reused no per-net results", workers)
		}
		if r := par.GlobalResult.DirtyNetRatio(); r <= 0 || r >= 1 {
			t.Errorf("workers=%d run has degenerate dirty-net ratio %v", workers, r)
		}
	}
}

// TestWorkersBitIdenticalCongestion extends the golden determinism gate to
// the congestion feedback loop: with the loop engaged (gate forced open and
// the RUDY capacity dropped so the small golden design is unambiguously
// congested), the full flow must still produce bit-identical placements and
// identical controller stats at every worker count.
func TestWorkersBitIdenticalCongestion(t *testing.T) {
	place := func(workers int) *dpplace.Result {
		t.Helper()
		bench := goldenBench()
		res, err := dpplace.PlaceCtx(context.Background(),
			bench.Netlist, bench.Core, bench.Placement,
			dpplace.Options{
				Mode: dpplace.StructureAware,
				Global: global.Options{
					Workers: workers,
					Congestion: congestion.Options{
						Enable:          true,
						SnapshotOnEntry: true,
						MaxDensOverflow: 100,
						Capacity:        0.02,
					},
				},
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := place(1)
	st := serial.GlobalResult.Congestion
	if st == nil || st.Snapshots == 0 {
		t.Fatalf("congestion loop never engaged: %+v", st)
	}
	for _, workers := range []int{2, 4} {
		par := place(workers)
		samePlacement(t, "congestion workers", serial.Placement, par.Placement)
		pst := par.GlobalResult.Congestion
		if pst.Snapshots != st.Snapshots || pst.Applied != st.Applied ||
			pst.InflatedCells != st.InflatedCells || pst.MaxInflation != st.MaxInflation {
			t.Errorf("workers=%d: congestion stats %+v != serial %+v", workers, pst, st)
		}
	}
}

// TestCollectModeReport asserts -report-style collection works without a
// trace sink — counters and trajectory aggregate in memory — and pins the
// shape of the run report core builds from them, on a flat run with the
// congestion loop engaged and on a multilevel run: no report field or
// counter repeats another, and the kept blocks agree with the counters.
func TestCollectModeReport(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  dpplace.Options
	}{
		{"flat-congestion", dpplace.Options{
			Mode: dpplace.StructureAware,
			Global: global.Options{Congestion: congestion.Options{
				Enable: true, SnapshotOnEntry: true, MaxDensOverflow: 100, Capacity: 0.02,
			}},
		}},
		{"multilevel", dpplace.Options{
			Mode:           dpplace.StructureAware,
			Multilevel:     true,
			MultilevelOpts: dpplace.MultilevelOptions{MinCells: 100},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := dpplace.NewRecorder()
			rec.Collect()
			bench := goldenBench()
			res, runErr := dpplace.PlaceCtx(dpplace.WithRecorder(context.Background(), rec),
				bench.Netlist, bench.Core, bench.Placement, tc.opt)
			if runErr != nil {
				t.Fatal(runErr)
			}
			if len(rec.Trajectory()) == 0 {
				t.Error("collect mode gathered no trajectory")
			}
			cs := rec.Counters()
			if cs["extract/groups"] == 0 || cs["global/outer_iters"] == 0 {
				t.Errorf("extract/groups or global/outer_iters counter missing: %v", cs)
			}

			rep := res.RunReport("golden", tc.opt.Mode, pipeline.Classify(runErr), rec)
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(b, &fields); err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"dirty_net_ratio", "full_recomputes", "delta_recomputes"} {
				if _, ok := fields[key]; ok {
					t.Errorf("report carries deleted field %q", key)
				}
			}
			for _, key := range []string{
				"global/levels", "global/coarsest_cells", "global/rollbacks", "global/re_anneals",
				"global/congestion_snapshots", "global/congestion_inflated_cells",
			} {
				if _, ok := rep.Counters[key]; ok {
					t.Errorf("report carries deleted counter %q", key)
				}
			}
			for _, key := range []string{"global/net_recomputes", "global/net_reuses", "global/evals_full"} {
				if rep.Counters[key] == 0 {
					t.Errorf("report lacks incremental-evaluation counter %q", key)
				}
			}

			var back dpplace.RunReport
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			if back.Design != "golden" || back.Exit != pipeline.Classify(runErr) ||
				len(back.Trajectory) != len(rec.Trajectory()) ||
				back.HPWL.Final != res.HPWLFinal {
				t.Fatalf("run report did not round-trip: %+v", back)
			}
			if tc.opt.Multilevel {
				if back.Levels < 2 || int64(back.Levels) != back.Counters["multilevel/levels"] {
					t.Errorf("levels %d, multilevel/levels counter %d: want equal and ≥ 2",
						back.Levels, back.Counters["multilevel/levels"])
				}
			} else {
				var cong map[string]json.RawMessage
				if err := json.Unmarshal(fields["congestion"], &cong); err != nil {
					t.Fatalf("report congestion block: %v", err)
				}
				if _, ok := cong["snapshots"]; !ok || back.Congestion.Snapshots == 0 {
					t.Errorf("congestion block lacks snapshots: %s", fields["congestion"])
				}
			}
		})
	}
}
