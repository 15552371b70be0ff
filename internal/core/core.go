// Package core is the top-level API of the structure-aware placement flow —
// the system the paper contributes. One call runs the full pipeline:
//
//	datapath extraction → analytical global placement (+ alignment forces)
//	→ structure-preserving legalization → detailed placement
//
// Baseline mode runs the identical engine with extraction and alignment
// disabled, so measured differences isolate structure-awareness — the
// evaluation protocol of the paper.
//
// The pipeline is resilient. The wall-clock budget (Options.Timeout) is
// enforced cooperatively inside every stage; on expiry Place returns the best
// iterate found so far with Result.Partial set and an error wrapping
// pipeline.ErrTimeout, instead of nothing. Degenerate extraction output and
// repeatedly diverging structure-aware solves degrade gracefully to the
// baseline flow for the affected groups (policy-controlled via
// Options.OnDegrade), recording what happened in Result.Degradations.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/datapath"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/place/detail"
	"repro/internal/place/global"
	"repro/internal/place/legal"
	"repro/internal/place/multilevel"
)

// Sentinel errors re-exported for callers that branch on failure class.
var (
	ErrTimeout          = pipeline.ErrTimeout
	ErrDiverged         = pipeline.ErrDiverged
	ErrDegenerateGroups = pipeline.ErrDegenerateGroups
	ErrMalformedInput   = pipeline.ErrMalformedInput
)

// Mode selects the flow variant.
type Mode int

// Flow variants.
const (
	// Baseline is a generic analytical placer: no extraction, no alignment.
	Baseline Mode = iota
	// StructureAware runs extraction and aligns the recovered groups.
	StructureAware
)

// String names the mode for logs and reports.
func (m Mode) String() string {
	if m == StructureAware {
		return "structure-aware"
	}
	return "baseline"
}

// DegradePolicy selects what happens when the structure-aware machinery
// cannot honor the extracted structure.
type DegradePolicy int

// Degradation policies.
const (
	// DegradeFallback (the default) falls back to the baseline flow for the
	// affected groups and records the event in Result.Degradations.
	DegradeFallback DegradePolicy = iota
	// DegradeFail aborts with ErrDegenerateGroups (or the stage error)
	// instead of degrading.
	DegradeFail
)

// Options configures the pipeline.
type Options struct {
	Mode Mode
	// Extraction parameters (StructureAware only). Zero value = defaults.
	Extraction datapath.Options
	// Global placement parameters. Mode-driven fields (Groups) are set by
	// the pipeline.
	Global global.Options
	// Timeout bounds the whole pipeline's wall clock (0 = none). On expiry
	// Place returns the best iterate so far with Result.Partial set and an
	// error wrapping ErrTimeout.
	Timeout time.Duration
	// OnDegrade selects the reaction to degenerate extracted groups and to
	// a structure-aware solve that repeatedly fails numerical-health checks
	// (default DegradeFallback).
	OnDegrade DegradePolicy
	// Multilevel replaces the flat global-placement stage with the V-cycle:
	// the netlist is coarsened bottom-up (extracted datapath groups stay
	// atomic), the coarsest cluster netlist is placed, and positions are
	// interpolated down level by level with warm-started refinement solves.
	// Legalization and detailed placement are unchanged.
	Multilevel bool
	// MultilevelOpts tunes coarsening when Multilevel is set (zero value =
	// defaults); its Global and Groups fields are filled by the pipeline.
	MultilevelOpts multilevel.Options
}

// detailPasses is the number of detailed-placement sweeps, shared by the
// generic moves and the structure-preserving column swaps.
const detailPasses = 2

// StageTimes records the wall-clock duration of each pipeline stage
// (Result.Times).
type StageTimes struct {
	Extract  time.Duration
	Global   time.Duration
	Legalize time.Duration
	Detail   time.Duration
}

// Total returns the summed stage time.
func (s StageTimes) Total() time.Duration {
	return s.Extract + s.Global + s.Legalize + s.Detail
}

// Degradation records one graceful-degradation event: a piece of extracted
// structure the pipeline dropped or dissolved instead of failing.
type Degradation struct {
	Stage  string // "extract", "global" or "legalize"
	Group  int    // group index at the failing stage; -1 = whole flow
	Reason string
}

// Result is the pipeline outcome.
type Result struct {
	Placement  *netlist.Placement
	Extraction *datapath.Extraction // nil in baseline mode

	GlobalResult    global.Result
	LegalResult     legal.Result
	DetailResult    detail.Result
	ColumnSwaps     int     // accepted stage-order swaps (structure-aware only)
	HPWLGlobal      float64 // after global placement
	HPWLLegal       float64 // after legalization
	HPWLFinal       float64 // after detailed placement
	AlignmentRMS    float64 // final alignment score over extracted groups
	GroupedCells    int
	Times           StageTimes
	LegalityChecked bool
	// Multilevel describes the V-cycle (level count, per-level stats) when
	// Options.Multilevel ran it; nil for the flat flow.
	Multilevel *multilevel.Result
	// Partial is set when a deadline stopped the pipeline early; Placement
	// holds the best iterate reached (legal only if LegalityChecked).
	Partial bool
	// Degradations lists the graceful-degradation events of the run.
	Degradations []Degradation
}

// Place runs the pipeline on a netlist. initial provides fixed-cell
// positions and the starting point for movables; it is not modified. The
// returned placement is legal.
func Place(nl *netlist.Netlist, chip *geom.Core, initial *netlist.Placement, opt Options) (*Result, error) {
	return PlaceCtx(context.Background(), nl, chip, initial, opt)
}

// PlaceCtx is Place with cooperative cancellation: the context (further
// bounded by Options.Timeout) is threaded through every stage down to the
// inner solver iterations. On expiry the returned Result is non-nil, carries
// the best iterate found so far with Partial set, and the error wraps
// ErrTimeout.
func PlaceCtx(ctx context.Context, nl *netlist.Netlist, chip *geom.Core, initial *netlist.Placement, opt Options) (*Result, error) {
	ctx, cancel := pipeline.WithBudget(ctx, opt.Timeout)
	defer cancel()

	rec := obs.From(ctx)
	root := rec.Span("place")
	defer root.End()

	pl := initial.Clone()
	res := &Result{Placement: pl}

	var groups []global.AlignGroup
	if opt.Mode == StructureAware {
		// A zero Extraction (no inference mode selected) means "defaults".
		if !opt.Extraction.UseNames && !opt.Extraction.UseStructural {
			opt.Extraction = datapath.DefaultOptions()
		}
		sp := root.Child("extract")
		sw := obs.StartStopwatch()
		ext := datapath.Extract(nl, opt.Extraction)
		res.Times.Extract = sw.Elapsed()
		res.Extraction = ext
		res.GroupedCells = ext.NumGrouped()
		groups = global.AlignGroupsFromExtraction(ext)
		sp.Add("groups", int64(len(ext.Groups)))
		sp.Add("grouped_cells", int64(ext.NumGrouped()))
		sp.End()
		rec.Logf(obs.Debug, "extract", "%d groups covering %d cells",
			len(ext.Groups), ext.NumGrouped())
	}
	if pipeline.Expired(ctx) {
		res.Partial = true
		res.HPWLFinal = pl.HPWL(nl)
		return res, pipeline.StageError("core: extract", ErrTimeout)
	}

	gOpt := opt.Global
	if len(groups) > 0 && !gOpt.SkipQuadraticInit {
		// Run the quadratic initial solve up front so bank folding can
		// order columns by their wirelength-driven positions; a merged
		// datapath chain can be far wider than the core, and folding it
		// into banks is the layout a designer would draw.
		global.InitQuadratic(nl, pl, chip)
		gOpt.SkipQuadraticInit = true
		// 0.95: fold only when a single band genuinely cannot fit — a
		// full-width band is the classic datapath layout and splitting it
		// unnecessarily costs wirelength.
		groups = global.SplitWideGroups(nl, pl, chip, groups, 0.95)
	}

	// Degenerate-group screen: structure the placer cannot honor (no
	// stages, taller than the core, wider than the core even after bank
	// folding) either fails fast or falls back to baseline treatment for
	// just those cells.
	if len(groups) > 0 {
		kept := groups[:0]
		for gi, g := range groups {
			reason := degenerateReason(nl, chip, g)
			if reason == "" {
				kept = append(kept, g)
				continue
			}
			if opt.OnDegrade == DegradeFail {
				return nil, fmt.Errorf("core: extraction: group %d: %s: %w", gi, reason, ErrDegenerateGroups)
			}
			res.Degradations = append(res.Degradations, Degradation{
				Stage: "extract", Group: gi, Reason: reason,
			})
			rec.Degrade("extract", gi, reason)
			rec.Logf(obs.Warn, "extract", "group %d degenerate (%s); placing as plain cells", gi, reason)
		}
		groups = kept
	}

	// runGlobal dispatches the global-placement stage: the flat analytical
	// engine, or the multilevel V-cycle wrapping it level by level.
	runGlobal := func(gOpt global.Options, groups []global.AlignGroup) (global.Result, error) {
		if !opt.Multilevel {
			gOpt.Groups = groups
			return global.PlaceCtx(ctx, nl, pl, chip, gOpt)
		}
		mo := opt.MultilevelOpts
		mo.Global = gOpt
		mo.Groups = groups
		mlRes, mlErr := multilevel.PlaceCtx(ctx, nl, pl, chip, mo)
		res.Multilevel = &mlRes
		return mlRes.Global, mlErr
	}

	gSpan := root.Child("global")
	sw := obs.StartStopwatch()
	gRes, err := runGlobal(gOpt, groups)
	res.Times.Global = sw.Elapsed()
	if err != nil && errors.Is(err, ErrDiverged) && len(groups) > 0 && opt.OnDegrade == DegradeFallback {
		// The structure-aware solve failed its health checks twice (the
		// engine already rolled back and re-annealed in between). Dissolve
		// the groups and rerun the plain baseline formulation from the
		// caller's initial state — a worse but well-conditioned problem.
		// The diverged attempt's health events stay in the diagnostics.
		reason := "hard-alignment solve diverged twice; groups dissolved"
		res.Degradations = append(res.Degradations, Degradation{
			Stage: "global", Group: -1, Reason: reason,
		})
		rec.Degrade("global", -1, reason)
		rec.Logf(obs.Warn, "global", "%s; rerunning baseline formulation", reason)
		gSpan.Add("baseline_reruns", 1)
		copy(pl.X, initial.X)
		copy(pl.Y, initial.Y)
		groups = nil
		failed := gRes.Diagnostics
		sw = obs.StartStopwatch()
		gRes, err = runGlobal(opt.Global, nil)
		res.Times.Global += sw.Elapsed()
		gRes.Diagnostics.Recoveries += failed.Recoveries
		gRes.Diagnostics.Rollbacks += failed.Rollbacks
	}
	if ml := res.Multilevel; ml != nil {
		// Recorded once, from the V-cycle that produced the placement.
		rec.Add("multilevel/levels", int64(ml.Levels))
		rec.Add("multilevel/coarsest_cells", int64(ml.CoarsestCells))
	}
	gSpan.Add("outer_iters", int64(gRes.OuterIters))
	gSpan.Add("func_evals", int64(gRes.FuncEvals))
	gSpan.End()
	res.GlobalResult = gRes
	if err != nil {
		if errors.Is(err, ErrTimeout) {
			res.Partial = true
			res.HPWLGlobal = pl.HPWL(nl)
			res.HPWLFinal = res.HPWLGlobal
			return res, fmt.Errorf("core: global placement: %w", err)
		}
		return nil, fmt.Errorf("core: global placement: %w", err)
	}
	res.HPWLGlobal = pl.HPWL(nl)

	lSpan := root.Child("legalize")
	sw = obs.StartStopwatch()
	lRes, err := legal.LegalizeCtx(ctx, nl, pl, chip, legal.Options{Groups: groups})
	res.Times.Legalize = sw.Elapsed()
	res.LegalResult = lRes
	lSpan.Add("group_blocks", int64(lRes.GroupBlocks))
	lSpan.Add("group_fallbacks", int64(lRes.GroupFallbacks))
	lSpan.End()
	if err != nil {
		if errors.Is(err, ErrTimeout) {
			res.Partial = true
			res.HPWLLegal = pl.HPWL(nl)
			res.HPWLFinal = res.HPWLLegal
			return res, fmt.Errorf("core: legalization: %w", err)
		}
		return nil, fmt.Errorf("core: legalization: %w", err)
	}
	if lRes.GroupFallbacks > 0 {
		reason := fmt.Sprintf("%d groups found no rigid-block fit and were dissolved into plain cells", lRes.GroupFallbacks)
		res.Degradations = append(res.Degradations, Degradation{
			Stage: "legalize", Group: -1, Reason: reason,
		})
		rec.Degrade("legalize", -1, reason)
		rec.Logf(obs.Warn, "legalize", "%s", reason)
	}
	res.HPWLLegal = pl.HPWL(nl)
	rec.Logf(obs.Debug, "legalize", "done: HPWL %.0f, displacement total %.0f max %.0f, %d blocks",
		res.HPWLLegal, lRes.TotalDisplacement, lRes.MaxDisplacement, lRes.GroupBlocks)

	dSpan := root.Child("detail")
	sw = obs.StartStopwatch()
	// Group cells are locked against generic moves; their stage order is
	// optimized by the structure-preserving column swaps instead.
	res.DetailResult = detail.Improve(nl, pl, chip, detail.Options{
		Locked: detail.LockedFromGroups(nl.NumCells(), groups),
		Passes: detailPasses,
		Ctx:    ctx,
	})
	if len(groups) > 0 && !pipeline.Expired(ctx) {
		res.ColumnSwaps = detail.ImproveColumns(nl, pl, groups, detailPasses)
	}
	res.Times.Detail = sw.Elapsed()
	dSpan.Add("moves", int64(res.DetailResult.Moves))
	dSpan.Add("column_swaps", int64(res.ColumnSwaps))
	dSpan.End()
	if res.DetailResult.Partial {
		res.Partial = true
	}
	res.HPWLFinal = pl.HPWL(nl)
	rec.Logf(obs.Debug, "core", "final HPWL %.0f (global %.0f, legal %.0f)",
		res.HPWLFinal, res.HPWLGlobal, res.HPWLLegal)

	if err := pl.CheckLegal(nl, chip); err != nil {
		return nil, fmt.Errorf("core: final placement illegal: %w", err)
	}
	res.LegalityChecked = true

	if len(groups) > 0 {
		cx := make([]float64, nl.NumCells())
		cy := make([]float64, nl.NumCells())
		for i := range nl.Cells {
			cx[i] = pl.X[i] + nl.Cells[i].W/2
			cy[i] = pl.Y[i] + nl.Cells[i].H/2
		}
		res.AlignmentRMS = global.AlignmentScore(groups, chip.RowH(), cx, cy)
	}
	if res.Partial {
		// Detailed placement stopped at its deadline; the placement is
		// legal and complete, just less polished than asked for.
		return res, pipeline.StageError("core: detail", ErrTimeout)
	}
	return res, nil
}

// degenerateReason classifies a group the placer cannot honor, returning ""
// for a healthy group. The fault-injection site forces degeneracy so the
// fallback path can be tested on designs whose extraction is clean.
func degenerateReason(nl *netlist.Netlist, chip *geom.Core, g global.AlignGroup) string {
	if faultinject.Hit(faultinject.SiteDegenerateGroups) {
		return "fault-injected degenerate group"
	}
	if len(g.Cols) == 0 || len(g.Cols[0]) == 0 {
		return "zero stages"
	}
	bits := len(g.Cols[0])
	if bits > chip.NumRows() {
		return fmt.Sprintf("%d bits exceed %d core rows", bits, chip.NumRows())
	}
	total := 0.0
	for _, col := range g.Cols {
		w := 0.0
		for _, c := range col {
			if cw := nl.Cell(c).W; cw > w {
				w = cw
			}
		}
		total += w
	}
	if coreW := chip.Region.W(); total > coreW {
		return fmt.Sprintf("packed width %.0f exceeds core width %.0f after splitting", total, coreW)
	}
	return ""
}
