package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/bookshelf"
	"repro/internal/core"
	"repro/internal/datapath"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/place/congestion"
	"repro/internal/place/detail"
	"repro/internal/place/global"
	"repro/internal/place/legal"
	"repro/internal/place/multilevel"
)

// options is the core configuration of w's flow: the dpplace defaults plus
// the workload's flow switches.
func (w workload) options() core.Options {
	return core.Options{
		Mode:       core.StructureAware,
		Multilevel: w.multilevel,
		Global: global.Options{
			Workers:    w.workers(),
			Congestion: congestion.Options{Enable: w.congestion},
		},
	}
}

// flowRun is one untraced flow: read, place, evaluate, write.
type flowRun struct {
	wall, cpu float64
	res       *core.Result
	rep       metrics.Report
	pl        []byte // the written .pl
	nl        *netlist.Netlist
	chip      *geom.Core
}

// runFlow runs the flow on d the way a user of the library does, writing the
// placement to out. Wall and CPU time cover ReadAux through the written file.
func runFlow(w workload, d design, out string) (*flowRun, error) {
	u0 := selfUsage()
	sw := obs.StartStopwatch()
	des, err := bookshelf.ReadAux(d.aux)
	if err != nil {
		return nil, err
	}
	res, err := core.PlaceCtx(context.Background(), des.Netlist, des.Core, des.Placement, w.options())
	if err != nil {
		return nil, err
	}
	rep := metrics.Evaluate(des.Netlist, res.Placement, des.Core, metrics.Options{Workers: w.workers()})
	pl, err := writePl(out, des.Netlist, res.Placement)
	if err != nil {
		return nil, err
	}
	wall := sw.Seconds()
	cpu := selfUsage().cpu - u0.cpu
	return &flowRun{wall: wall, cpu: cpu, res: res, rep: rep, pl: pl, nl: des.Netlist, chip: des.Core}, nil
}

// check verifies the flow's output: complete, legal, and byte-identical to
// ref when ref is non-nil.
func (f *flowRun) check(ref []byte) []error {
	var errs []error
	if f.res.Partial {
		errs = append(errs, errors.New("placement is partial"))
	}
	if err := f.res.Placement.CheckLegal(f.nl, f.chip); err != nil {
		errs = append(errs, fmt.Errorf("placement illegal: %w", err))
	}
	if ref != nil && !bytes.Equal(f.pl, ref) {
		errs = append(errs, fmt.Errorf(".pl %s differs from the reference %s", hashBytes(f.pl)[:12], hashBytes(ref)[:12]))
	}
	return errs
}

// writePl writes pl to path and returns the bytes written.
func writePl(path string, nl *netlist.Netlist, pl *netlist.Placement) ([]byte, error) {
	var buf bytes.Buffer
	if err := bookshelf.WritePl(&buf, nl, pl); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// span is one timed layer call of a traced flow, recorded by the benchmark
// around the call; the program itself is not instrumented. The spans of one
// flow share its design name; each layer span's parent is the flow span.
type span struct {
	Design string  `json:"design"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	CPU    float64 `json:"cpu_s"`
}

// tracer keeps a traced flow's spans in memory, relative to its start.
type tracer struct {
	design string
	clock  obs.Stopwatch
	cpu0   float64
	spans  []span
}

// newTracer starts the trace of one flow.
func newTracer(design string) *tracer {
	return &tracer{design: design, clock: obs.StartStopwatch(), cpu0: selfUsage().cpu}
}

// do runs fn inside a layer span named name.
func (t *tracer) do(name string, fn func() error) error {
	cpu0 := selfUsage().cpu
	s := span{Design: t.design, Name: name, Parent: "flow", Start: t.clock.Seconds()}
	err := fn()
	s.End = t.clock.Seconds()
	s.CPU = selfUsage().cpu - cpu0
	t.spans = append(t.spans, s)
	return err
}

// finish closes the flow span and returns its duration.
func (t *tracer) finish() float64 {
	s := span{Design: t.design, Name: "flow", End: t.clock.Seconds(), CPU: selfUsage().cpu - t.cpu0}
	t.spans = append(t.spans, s)
	return s.End
}

// span returns the first span named name (zero if none ran).
func (t *tracer) span(name string) span {
	for _, s := range t.spans {
		if s.Name == name {
			return s
		}
	}
	return span{}
}

// seconds is the duration of the span named name (0 if it did not run).
func (t *tracer) seconds(name string) float64 {
	s := t.span(name)
	return s.End - s.Start
}

// unattributed is the flow span's time that no layer span covers.
func (t *tracer) unattributed() float64 {
	left := t.seconds("flow")
	for _, s := range t.spans {
		if s.Parent == "flow" {
			left -= s.End - s.Start
		}
	}
	return left
}

// write prints the spans as JSON lines prefixed "span ".
func (t *tracer) write(w io.Writer) {
	for _, s := range t.spans {
		if b, err := json.Marshal(s); err == nil {
			fmt.Fprintf(w, "span %s\n", b)
		}
	}
}

// tracedRun is the outcome of a layer-by-layer flow.
type tracedRun struct {
	wall    float64
	tr      *tracer
	pl      []byte
	nl      *netlist.Netlist
	chip    *geom.Core
	global  *netlist.Placement // the placement global placement returned
	gRes    global.Result
	ml      *multilevel.Result
	ext     *datapath.Extraction
	lRes    legal.Result
	dRes    detail.Result
	swaps   int
	checked error // CheckLegal of the final placement
}

// runTraced repeats core.PlaceCtx layer by layer, in its order, timing each
// public call in a benchmark-owned span, then evaluates and writes like
// runFlow. untraced is the untraced result of the same design: the groups it
// dropped as degenerate at extraction are dropped here too, because the
// screen that picks them is internal to core.
func runTraced(w workload, d design, out string, untraced *core.Result) (*tracedRun, error) {
	opt := w.options()
	t := newTracer(d.name)
	r := &tracedRun{tr: t}
	var des *bookshelf.Design
	if err := t.do("bookshelf.read", func() (err error) {
		des, err = bookshelf.ReadAux(d.aux)
		return err
	}); err != nil {
		return nil, err
	}
	nl, chip := des.Netlist, des.Core
	r.nl, r.chip = nl, chip
	ctx := context.Background()
	pl := des.Placement.Clone()

	var groups []global.AlignGroup
	t.do("datapath.extract", func() error {
		r.ext = datapath.Extract(nl, datapath.DefaultOptions())
		groups = global.AlignGroupsFromExtraction(r.ext)
		return nil
	})
	gOpt := opt.Global
	if len(groups) > 0 {
		t.do("global.init", func() error {
			global.InitQuadratic(nl, pl, chip)
			groups = global.SplitWideGroups(nl, pl, chip, groups, 0.95)
			return nil
		})
		gOpt.SkipQuadraticInit = true
	}
	groups = dropDegenerate(groups, untraced.Degradations)

	runGlobal := func(gOpt global.Options, groups []global.AlignGroup) (global.Result, error) {
		if !opt.Multilevel {
			gOpt.Groups = groups
			return global.PlaceCtx(ctx, nl, pl, chip, gOpt)
		}
		mo := opt.MultilevelOpts
		mo.Global, mo.Groups = gOpt, groups
		res, err := multilevel.PlaceCtx(ctx, nl, pl, chip, mo)
		r.ml = &res
		return res.Global, err
	}
	err := t.do("global.place", func() (err error) {
		r.gRes, err = runGlobal(gOpt, groups)
		if err != nil && errors.Is(err, pipeline.ErrDiverged) && len(groups) > 0 {
			// core's fallback: dissolve the groups and rerun the baseline
			// formulation from the initial placement.
			copy(pl.X, des.Placement.X)
			copy(pl.Y, des.Placement.Y)
			groups = nil
			r.gRes, err = runGlobal(opt.Global, nil)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("global placement: %w", err)
	}
	r.global = pl.Clone()

	if err := t.do("legal.legalize", func() (err error) {
		r.lRes, err = legal.LegalizeCtx(ctx, nl, pl, chip, legal.Options{Groups: groups})
		return err
	}); err != nil {
		return nil, fmt.Errorf("legalization: %w", err)
	}
	passes := 2 // core.Options.DetailPasses default
	t.do("detail.improve", func() error {
		r.dRes = detail.Improve(nl, pl, chip, detail.Options{
			Locked: detail.LockedFromGroups(nl.NumCells(), groups),
			Passes: passes,
			Ctx:    ctx,
		})
		return nil
	})
	if len(groups) > 0 {
		t.do("detail.columns", func() error {
			r.swaps = detail.ImproveColumns(nl, pl, groups, passes)
			return nil
		})
	}
	t.do("core.check", func() error {
		r.checked = pl.CheckLegal(nl, chip)
		return nil
	})
	t.do("metrics.evaluate", func() error {
		metrics.Evaluate(nl, pl, chip, metrics.Options{Workers: w.workers()})
		return nil
	})
	if err := t.do("bookshelf.write", func() (err error) {
		r.pl, err = writePl(out, nl, pl)
		return err
	}); err != nil {
		return nil, err
	}
	r.wall = t.finish()
	return r, nil
}

// dropDegenerate removes the groups that an untraced run's degradations
// list as dropped at extraction, by their index after bank splitting.
func dropDegenerate(groups []global.AlignGroup, degs []core.Degradation) []global.AlignGroup {
	drop := map[int]bool{}
	for _, d := range degs {
		if d.Stage == "extract" {
			drop[d.Group] = true
		}
	}
	if len(drop) == 0 {
		return groups
	}
	kept := make([]global.AlignGroup, 0, len(groups))
	for gi, g := range groups {
		if !drop[gi] {
			kept = append(kept, g)
		}
	}
	return kept
}

// check verifies the traced flow reproduced the untraced placement.
func (r *tracedRun) check(untracedPl []byte) []error {
	var errs []error
	if r.checked != nil {
		errs = append(errs, fmt.Errorf("traced placement illegal: %w", r.checked))
	}
	if !bytes.Equal(r.pl, untracedPl) {
		errs = append(errs, fmt.Errorf("traced .pl %s differs from untraced %s", hashBytes(r.pl)[:12], hashBytes(untracedPl)[:12]))
	}
	return errs
}

// layerMetrics sets the per-layer metrics the traced flow measures,
// adding to any value already set so a batch of designs sums.
func (r *tracedRun) layerMetrics(m metricSet) {
	t := r.tr
	add := func(name string, v float64) { m[name] += v }
	add("bookshelf.read_s", t.seconds("bookshelf.read"))
	add("bookshelf.write_s", t.seconds("bookshelf.write"))
	add("datapath.extract_s", t.seconds("datapath.extract"))
	add("datapath.groups", float64(len(r.ext.Groups)))
	add("datapath.grouped_cells", float64(r.ext.NumGrouped()))
	add("global.init_s", t.seconds("global.init"))
	add("global.place_s", t.seconds("global.place"))
	add("global.cpu_s", t.span("global.place").CPU)
	g := r.gRes
	add("global.outer_iters", float64(g.OuterIters))
	add("global.func_evals", float64(g.FuncEvals))
	add("global.full_evals", float64(g.FullEvals))
	add("global.delta_evals", float64(g.DeltaEvals))
	add("global.dirty_net_ratio", g.DirtyNetRatio())
	var levels, coarsest, snapshots, inflated float64
	if r.ml != nil {
		levels, coarsest = float64(r.ml.Levels), float64(r.ml.CoarsestCells)
	}
	if c := g.Congestion; c != nil {
		snapshots, inflated = float64(c.Snapshots), float64(c.InflatedCells)
	}
	add("multilevel.levels", levels)
	add("multilevel.coarsest_cells", coarsest)
	add("congestion.snapshots", snapshots)
	add("congestion.inflated_cells", inflated)
	add("legal.legalize_s", t.seconds("legal.legalize"))
	add("legal.group_blocks", float64(r.lRes.GroupBlocks))
	add("legal.max_displacement", r.lRes.MaxDisplacement)
	add("detail.improve_s", t.seconds("detail.improve"))
	add("detail.moves", float64(r.dRes.Moves))
	add("detail.columns_s", t.seconds("detail.columns"))
	add("detail.column_swaps", float64(r.swaps))
	add("metrics.evaluate_s", t.seconds("metrics.evaluate"))
	add("unattributed_s", t.unattributed())
}
