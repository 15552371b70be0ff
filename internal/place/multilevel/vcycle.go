package multilevel

import (
	"context"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/place/congestion"
	"repro/internal/place/global"
)

// Options controls the V-cycle.
type Options struct {
	// ClusterRatio is the target per-level coarsening ratio
	// |coarse movable| / |fine movable| (default 0.22). The default is
	// steeper than the classic 0.3–0.5 used by flat-clustering placers: a
	// steep ratio keeps the stack shallow (4 levels on a ~13k-cell design),
	// and each saved refinement level buys more wall clock than a gentler
	// hierarchy buys quality on the benchmarks in EXPERIMENTS.md.
	ClusterRatio float64
	// MaxLevels caps the number of coarsening levels built on top of the
	// flat netlist (default 8; the stack also stops at MinCells).
	MaxLevels int
	// MinCells stops coarsening once a level has at most this many movable
	// cells (default 400) — below that the flat engine is already cheap.
	MinCells int
	// Global is the base configuration every level's analytical solve
	// derives from (density target, worker count, wirelength model, ...).
	Global global.Options
	// Groups are the extracted datapath groups of the flat netlist. Each
	// group coarsens into one atomic cluster, and the finest-level refine
	// re-aligns it through the usual hard-alignment formulation.
	Groups []global.AlignGroup
}

func (o *Options) fillDefaults() {
	if o.ClusterRatio <= 0 || o.ClusterRatio >= 1 {
		o.ClusterRatio = 0.22
	}
	if o.MaxLevels <= 0 {
		o.MaxLevels = 8
	}
	if o.MinCells <= 0 {
		o.MinCells = 400
	}
}

// refineOuter bounds the λ-schedule length of the warm-started refinement
// solves at intermediate and finest levels: half the base schedule
// (Global.MaxOuterIters, default 24), at least 8. The coarsest level always
// gets the full budget.
func refineOuter(base global.Options) int {
	outer := base.MaxOuterIters
	if outer <= 0 {
		outer = 24
	}
	return max(8, outer/2)
}

// LevelStats summarizes one level of the V-cycle for reports and tables.
type LevelStats struct {
	// Level is the height in the hierarchy: 0 is the flat netlist.
	Level int
	// Cells and Nets size this level's (cluster) netlist.
	Cells, Nets int
	// Movable is the movable-cell count the coarsening ratio steers by.
	Movable int
	// HPWL is the half-perimeter wirelength after this level's solve.
	HPWL float64
	// OuterIters is the λ-schedule length this level's solve used.
	OuterIters int
	// Seconds is the wall clock of this level's solve.
	Seconds float64
}

// Result reports the V-cycle outcome.
type Result struct {
	// Levels is the number of placement levels run (1 = flat only).
	Levels int
	// CoarsestCells is the movable-cell count of the coarsest level.
	CoarsestCells int
	// ClusterRatio is |coarsest movable| / |flat movable|.
	ClusterRatio float64
	// PerLevel holds one entry per level, coarsest first.
	PerLevel []LevelStats
	// Global is the finest-level solve's result: its diagnostics and quality
	// numbers describe the placement the caller receives.
	Global global.Result
}

// levelState is one rung of the hierarchy.
type levelState struct {
	nl     *netlist.Netlist
	pl     *netlist.Placement
	frozen []bool
}

// Place runs the V-cycle without cancellation; see PlaceCtx.
func Place(nl *netlist.Netlist, pl *netlist.Placement, chip *geom.Core, o Options) (Result, error) {
	return PlaceCtx(context.Background(), nl, pl, chip, o)
}

// PlaceCtx coarsens the netlist bottom-up, places the coarsest cluster
// netlist with the analytical engine, then walks back down: each finer level
// starts from the interpolated cluster positions and refines them under a
// progressively tighter density target, with the flat level re-aligning the
// datapath groups. pl is updated in place with the finest-level placement
// (spread but not legalized, exactly like global.PlaceCtx output).
//
// Cancellation and health guards compose per level: on a deadline or a
// divergence the best iterate of the failing level is interpolated all the
// way down to the flat netlist, so pl always holds a complete placement, and
// the error wraps pipeline.ErrTimeout / pipeline.ErrDiverged as usual.
func PlaceCtx(ctx context.Context, nl *netlist.Netlist, pl *netlist.Placement, chip *geom.Core, o Options) (Result, error) {
	o.fillDefaults()
	rec := obs.From(ctx)
	res := Result{}

	levels, maps, err := buildHierarchy(nl, pl, o, rec)
	if err != nil {
		return res, err
	}
	top := len(levels) - 1
	res.Levels = len(levels)
	res.CoarsestCells = levels[top].nl.NumMovable()
	if fm := nl.NumMovable(); fm > 0 {
		res.ClusterRatio = float64(res.CoarsestCells) / float64(fm)
	}
	rec.Logf(obs.Debug, "multilevel", "%d levels, coarsest %d movable cells (ratio %.3f)",
		res.Levels, res.CoarsestCells, res.ClusterRatio)

	// Downward pass: solve coarsest-to-finest, interpolating between levels.
	for k := top; k >= 0; k-- {
		if pipeline.Expired(ctx) {
			// Level k is not solved yet; the best committed positions live at
			// level k+1 (when one was solved) — push those down to flat.
			if k < top {
				cascade(maps, levels, k+1)
			}
			res.Global.Diagnostics.Partial = true
			return res, pipeline.StageError("multilevel", pipeline.ErrTimeout)
		}
		if k < top {
			maps[k].InterpolatePlacement(levels[k+1].pl, levels[k].pl)
		}
		gOpt := levelOptions(o, k, top)
		sp := rec.Span(fmt.Sprintf("multilevel/level%d", k))
		sp.Add("cells", int64(levels[k].nl.NumCells()))
		sp.Add("nets", int64(levels[k].nl.NumNets()))
		sw := obs.StartStopwatch()
		gRes, gErr := global.PlaceCtx(ctx, levels[k].nl, levels[k].pl, chip, gOpt)
		sp.Add("outer_iters", int64(gRes.OuterIters))
		sp.End()
		res.PerLevel = append(res.PerLevel, LevelStats{
			Level:      k,
			Cells:      levels[k].nl.NumCells(),
			Nets:       levels[k].nl.NumNets(),
			Movable:    levels[k].nl.NumMovable(),
			HPWL:       levels[k].pl.HPWL(levels[k].nl),
			OuterIters: gRes.OuterIters,
			Seconds:    sw.Seconds(),
		})
		// res.Global carries the finest solve's quality numbers, but the
		// incremental-evaluation counters aggregate across every level: the
		// dirty-net ratio of the whole V-cycle is what the run report surfaces.
		gRes.NetRecomputes += res.Global.NetRecomputes
		gRes.NetReuses += res.Global.NetReuses
		gRes.FullEvals += res.Global.FullEvals
		gRes.DeltaEvals += res.Global.DeltaEvals
		res.Global = gRes
		if gErr != nil {
			// The failing level committed its best iterate; push it down so
			// the flat placement is complete, then surface the stage error.
			cascade(maps, levels, k)
			return res, fmt.Errorf("multilevel: level %d: %w", k, gErr)
		}
	}
	return res, nil
}

// buildHierarchy coarsens bottom-up until MinCells, MaxLevels or a
// stalled ratio stops it. maps[k] projects level k onto level k+1.
func buildHierarchy(nl *netlist.Netlist, pl *netlist.Placement, o Options, rec *obs.Recorder) ([]*levelState, []*netlist.ClusterMap, error) {
	flat := &levelState{nl: nl, pl: pl}
	levels := []*levelState{flat}
	var maps []*netlist.ClusterMap

	atomic := atomicFromGroups(o.Groups)
	for len(levels) <= o.MaxLevels {
		cur := levels[len(levels)-1]
		if cur.nl.NumMovable() <= o.MinCells {
			break
		}
		// Atomic group sets exist in flat cell ids, so they seed only the
		// first coarsening; above that the frozen flags carry atomicity.
		var seeds [][]netlist.CellID
		if len(levels) == 1 {
			seeds = atomic
		}
		assign := coarsen(cur.nl, seeds, cur.frozen, o.ClusterRatio)
		cm, err := netlist.ProjectClusters(cur.nl, assign)
		if err != nil {
			return nil, nil, fmt.Errorf("multilevel: level %d projection: %w", len(levels), err)
		}
		if cm.Ratio() > 0.95 {
			break // clustering stalled; a further level would only add overhead
		}
		next := &levelState{
			nl:     cm.Coarse,
			pl:     cm.ProjectPlacement(cur.pl),
			frozen: propagateFrozen(cm, levelFrozen(cur, atomic)),
		}
		maps = append(maps, cm)
		levels = append(levels, next)
		rec.Logf(obs.Debug, "multilevel", "level %d: %d cells, %d nets (ratio %.3f)",
			len(levels)-1, cm.Coarse.NumCells(), cm.Coarse.NumNets(), cm.Ratio())
	}
	return levels, maps, nil
}

// levelFrozen returns the frozen mask of a level, materializing the flat
// level's mask from the atomic group sets on first use.
func levelFrozen(lv *levelState, atomic [][]netlist.CellID) []bool {
	if lv.frozen != nil || len(atomic) == 0 {
		return lv.frozen
	}
	frozen := make([]bool, lv.nl.NumCells())
	for _, set := range atomic {
		for _, c := range set {
			frozen[c] = true
		}
	}
	return frozen
}

// levelOptions derives the solver configuration of level k in a stack of
// top+1 levels: the coarsest level runs the full cold-start schedule on the
// cluster netlist; every finer level warm-starts from the interpolation with
// a compressed schedule and a density target that tightens toward the
// caller's as k approaches 0.
func levelOptions(o Options, k, top int) global.Options {
	gOpt := o.Global
	target := gOpt.TargetDensity
	if target <= 0 {
		target = 0.9
	}
	if k > 0 {
		// Looser targets at coarse levels: square clusters overestimate the
		// local footprint, and over-spreading them would be undone anyway.
		// Congestion feedback is disabled too — cluster RUDY over synthetic
		// cluster nets is not the signal the controller was calibrated for,
		// and its cell inflation only means anything on the flat netlist.
		gOpt.TargetDensity = math.Min(0.97, target+0.02*float64(k))
		gOpt.Groups = nil
		gOpt.Trace = nil
		gOpt.Congestion = congestion.Options{}
	} else {
		gOpt.TargetDensity = target
		gOpt.Groups = o.Groups
		if top > 0 {
			// Finest level of a real V-cycle: snapshot immediately on entry
			// so inflation responds to the interpolated placement inherited
			// from the coarser level, not only to the periodic cadence.
			gOpt.Congestion.SnapshotOnEntry = true
		}
	}
	if k == top && top > 0 {
		// Coarsest level: cold start (its own quadratic init) at full budget.
		gOpt.SkipQuadraticInit = false
		return gOpt
	}
	if top > 0 {
		// Warm start from the interpolated positions.
		gOpt.SkipQuadraticInit = true
		gOpt.Refine = true
		gOpt.MaxOuterIters = refineOuter(o.Global)
	}
	return gOpt
}

// cascade interpolates the best placement committed at level k down to the
// flat netlist so callers always receive a complete placement.
func cascade(maps []*netlist.ClusterMap, levels []*levelState, k int) {
	for j := k - 1; j >= 0; j-- {
		maps[j].InterpolatePlacement(levels[j+1].pl, levels[j].pl)
	}
}

// atomicFromGroups flattens each extracted group into one atomic cell set
// (column-major, matching datapath.Extraction.AtomicSets).
func atomicFromGroups(groups []global.AlignGroup) [][]netlist.CellID {
	sets := make([][]netlist.CellID, 0, len(groups))
	for _, g := range groups {
		var cells []netlist.CellID
		for _, col := range g.Cols {
			cells = append(cells, col...)
		}
		if len(cells) > 0 {
			sets = append(sets, cells)
		}
	}
	return sets
}
