package global

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/density"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/place/congestion"
	"repro/internal/wirelength"
)

// AlignMode selects how extracted groups constrain the optimization.
type AlignMode int

// Alignment modes.
const (
	// AlignHard substitutes variables: every cell of a column shares one x
	// variable and every group shares one base-y variable (bit offsets are
	// fixed at the row pitch). Alignment is exact by construction and the
	// optimizer spends all of its effort on wirelength and density. This is
	// the default.
	AlignHard AlignMode = iota
	// AlignSoft keeps per-cell variables and adds the quadratic alignment
	// energy with an annealed weight α — the formulation the α-sweep
	// ablation studies.
	AlignSoft
)

// Options controls global placement.
type Options struct {
	// WLModel selects the smooth wirelength model: "wa" (default) or "lse".
	WLModel string
	// TargetDensity is the per-bin utilization target (default 0.9).
	TargetDensity float64
	// MaxOuterIters bounds the λ-schedule length (default 24).
	MaxOuterIters int
	// InnerIters bounds the conjugate-gradient iterations per λ stage
	// (default 50).
	InnerIters int
	// Groups, when non-empty, turns on structure-aware mode.
	Groups []AlignGroup
	// AlignMode selects hard (default) or soft alignment.
	AlignMode AlignMode
	// AlignWeight scales the soft-alignment term relative to its
	// auto-derived base weight (default 1.0). Ignored in hard mode.
	AlignWeight float64
	// SkipQuadraticInit keeps the caller-provided start instead of running
	// the bound-to-bound solve.
	SkipQuadraticInit bool
	// Refine treats the caller-provided start as nearly converged (a
	// multilevel interpolation or an earlier solve's output): the γ schedule
	// starts 4× more compressed (2× bin size instead of 8×), so the solve
	// spends its budget polishing instead of re-deriving the global
	// structure. The density weight still auto-scales from first-order
	// balance — forcing it higher was tried and blocks wirelength descent on
	// warm starts. Implies nothing about feasibility — the health guards
	// behave exactly as in a cold start.
	Refine bool
	// Workers is the worker count for the parallel hot paths (wirelength,
	// density): 0 means GOMAXPROCS, 1 runs everything inline on the calling
	// goroutine. The placement is bit-identical at every worker count; the
	// setting only trades wall clock for cores.
	Workers int
	// Congestion configures the routability feedback loop: periodic RUDY
	// snapshots inflating cells in over-demand bins (package congestion).
	// The zero value (Enable=false) keeps the loop off and the solve
	// byte-identical to a build without it.
	Congestion congestion.Options
	// Trace, when non-nil, observes every accepted outer iteration: the
	// same λ-schedule point the recorder's trajectory collects.
	Trace func(obs.TrajectoryPoint)
}

// Result reports the global placement outcome.
type Result struct {
	HPWL       float64
	Overflow   float64
	AlignRMS   float64
	OuterIters int
	FuncEvals  int
	// Workers is the resolved worker count the parallel engine ran with
	// (Options.Workers after the GOMAXPROCS default is applied).
	Workers int
	// NetRecomputes and NetReuses count per-net, per-evaluation outcomes of
	// the incremental (delta) evaluator: a recompute ran the wirelength
	// kernel because a pin of the net moved (or γ changed); a reuse served
	// the stored per-net value — and, for gradient evaluations, the stored
	// per-pin gradients — because nothing the net depends on changed.
	NetRecomputes int64
	NetReuses     int64
	// FullEvals and DeltaEvals classify whole objective evaluations: full
	// means every net recomputed (cold start, γ change, line-search probes
	// that move all variables), delta means at least one net was reused
	// (gradient evaluation at an accepted iterate, rollback re-evaluation,
	// moves touching a variable subset).
	FullEvals  int64
	DeltaEvals int64
	// Congestion summarizes the routability feedback loop when it was
	// enabled (Options.Congestion): snapshots taken, cells inflated, the
	// RUDY-overflow trajectory. Nil when the loop was off.
	Congestion *congestion.Stats
	// Diagnostics records the resilience events of the run.
	Diagnostics Diagnostics
}

// DirtyNetRatio returns net recomputations over total per-net decisions
// (recomputations + reuses), the headline effectiveness number of the
// incremental evaluator: 1.0 means no reuse ever happened, values near zero
// mean the epoch scheme proved almost every net clean. Returns 0 when no
// evaluation ran.
func (r Result) DirtyNetRatio() float64 {
	total := r.NetRecomputes + r.NetReuses
	if total == 0 {
		return 0
	}
	return float64(r.NetRecomputes) / float64(total)
}

// Diagnostics records the numerical-health and cancellation events of one
// global-placement run. All-zero means the run was clean.
type Diagnostics struct {
	// Recoveries counts inner-solver health events: NaN/Inf rollbacks and
	// pathological line-search resets inside opt.Minimize.
	Recoveries int
	// Rollbacks counts outer-loop restorations of the best iterate after a
	// diverged inner solve; each is followed by a γ/λ re-anneal.
	Rollbacks int
	// Partial is set when a deadline stopped the λ-schedule early; the
	// committed placement is the best iterate found so far.
	Partial bool
	// Diverged is set when the health guard gave up (the run returned an
	// error wrapping pipeline.ErrDiverged).
	Diverged bool
}

// overflowTarget stops the outer loop once total density overflow drops
// below it (after at least four outer iterations).
const overflowTarget = 0.10

func (o *Options) fillDefaults() {
	if o.WLModel == "" {
		o.WLModel = "wa"
	}
	if o.TargetDensity <= 0 {
		o.TargetDensity = 0.9
	}
	if o.MaxOuterIters <= 0 {
		o.MaxOuterIters = 24
	}
	if o.InnerIters <= 0 {
		o.InnerIters = 50
	}
	if o.AlignWeight == 0 {
		o.AlignWeight = 1
	}
}

// Place runs analytical global placement, updating pl in place (movable
// cells only). The returned placement is spread but not legalized; in hard
// alignment mode the extracted groups come out exactly bit-aligned.
func Place(nl *netlist.Netlist, pl *netlist.Placement, core *geom.Core, o Options) (Result, error) {
	return PlaceCtx(context.Background(), nl, pl, core, o)
}

// PlaceCtx is Place with cooperative cancellation. The context is polled in
// the outer λ-schedule loop and inside every conjugate-gradient iteration;
// on expiry the best iterate found so far is committed to pl, the returned
// Result has Diagnostics.Partial set, and the error wraps
// pipeline.ErrTimeout. When the numerical-health guard gives up after
// repeated divergence the best iterate is likewise committed and the error
// wraps pipeline.ErrDiverged.
func PlaceCtx(ctx context.Context, nl *netlist.Netlist, pl *netlist.Placement, core *geom.Core, o Options) (Result, error) {
	o.fillDefaults()
	switch o.WLModel {
	case "wa", "lse":
	default:
		return Result{}, fmt.Errorf("global: unknown wirelength model %q", o.WLModel)
	}

	if !o.SkipQuadraticInit {
		InitQuadratic(nl, pl, core)
	}

	e := newEngine(nl, pl, core, o)
	if e.nVars == 0 {
		return Result{HPWL: pl.HPWL(nl)}, nil
	}
	return e.run(ctx)
}

// engine carries the optimization state. The variable vector v packs the x
// variables first, then the y variables. In hard alignment mode several
// cells map to one variable (column x, group base y).
type engine struct {
	nl   *netlist.Netlist
	pl   *netlist.Placement
	core *geom.Core
	o    Options
	lse  bool // o.WLModel == "lse"; WA otherwise
	grid geom.Grid
	pot  *density.Potential

	// Per-cell variable mapping: index into the x/y variable arrays, or -1
	// for fixed cells. yOff is added to the y variable's value.
	xVar, yVar []int
	yOff       []float64
	nx, ny     int
	nVars      int

	// Per-x-variable clamp bounds (account for cell width / group height).
	xLo, xHi []float64
	yLo, yHi []float64

	// Hard-mode group bookkeeping: per group, the x-var of each column and
	// each column's width (for chain-ordered initialization).
	groupColVars [][]int
	groupColW    [][]float64

	// Full per-cell scratch arrays.
	xFull, yFull   []float64
	cxFull, cyFull []float64
	gxFull, gyFull []float64

	// Parallel execution: the worker pool and the run context it polls. The
	// SoA wirelength kernels are pure functions writing caller-owned CSR
	// slots, so no per-worker model clones exist anymore.
	pool *par.Pool
	ctx  context.Context

	// Flat SoA netlist view in CSR-by-net layout, built once per engine:
	// netOff[ni] is the first pin slot of net ni; pinCell, pinDX, pinDY are
	// the per-pin cell index (-1 for pad pins) and offsets; netWeight the
	// per-net weight. Iterating these flat arrays replaces the pointer-chasing
	// walk over nl.Nets[ni].Pins in the hot loops.
	netOff    []int32
	pinCell   []int32
	pinDX     []float64
	pinDY     []float64
	netWeight []float64

	// Wirelength kernel state, CSR-parallel to the pin layout: gathered pin
	// coordinates, the per-pin exponential scratch of the last value
	// evaluation, per-net axis states and values, and per-pin gradients.
	// Ownership: inside evalWL's parallel pass a worker touches only the
	// slots of the nets in its chunk; the serial reduction then reads
	// everything in net order.
	curX, curY            []float64
	expPX, expNX          []float64
	expPY, expNY          []float64
	stX, stY              []wirelength.AxisState
	netVal                []float64
	pinGX, pinGY          []float64
	netValClean           []bool // netVal/curX/curY/exp*/st* hold results at current coords+γ
	netGradClean          []bool // pinGX/pinGY hold gradients at current coords+γ
	gamma                 float64
	netRecomps, netReuses atomic.Int64
	fullEvals, deltaEvals int64
	noReuse               bool // tests/benchmarks disable delta reuse to measure it

	// Incremental-evaluation state: vPrev is the variable vector the full
	// coordinate arrays currently reflect; refresh diffs a new vector against
	// it and marks exactly the incident nets dirty through the var→nets CSR
	// (varNetOff/varNets, deduplicated) and updates the cells of varCellOff/
	// varCells. wlAllDirty is the γ-epoch hammer: SetGamma invalidates every
	// net at once without walking the incidence lists.
	vPrev       []float64
	havePrev    bool
	wlAllDirty  bool
	varNetOff   []int32
	varNets     []int32
	varCellOff  []int32
	varCells    []int32
	changedVars []int32 // refresh scratch: indices of moved variables

	// Density term cache: dgx/dgy hold the (unweighted) density gradients of
	// the last density gradient pass; densVal the objective. densClean means
	// densVal is the potential's value at the current coordinates (and the
	// potential's internal tables/residuals match them); densGradClean means
	// dgx/dgy match too. λ is applied at fold time, so λ changes between
	// outer stages never invalidate the cache.
	dgx, dgy                 []float64
	densVal                  float64
	densClean, densGradClean bool

	// Congestion feedback controller; nil when Options.Congestion is off.
	cong *congestion.Controller

	// Term-gradient scratch (soft alignment).
	sgx, sgy []float64

	hard          bool
	lambda, alpha float64
	funcEvals     int
}

func newEngine(nl *netlist.Netlist, pl *netlist.Placement, core *geom.Core, o Options) *engine {
	e := &engine{nl: nl, pl: pl, core: core, o: o, lse: o.WLModel == "lse"}
	e.hard = o.AlignMode == AlignHard && len(o.Groups) > 0

	nc := nl.NumCells()
	e.xVar = make([]int, nc)
	e.yVar = make([]int, nc)
	e.yOff = make([]float64, nc)
	for i := range e.xVar {
		e.xVar[i] = -1
		e.yVar[i] = -1
	}

	pitch := core.RowH()
	if e.hard {
		for _, g := range o.Groups {
			if len(g.Cols) == 0 || len(g.Cols[0]) == 0 {
				continue
			}
			bits := len(g.Cols[0])
			gy := e.ny
			e.ny++
			e.yLo = append(e.yLo, core.Region.Lo.Y)
			groupH := float64(bits-1)*pitch + rowHOf(nl, g)
			e.yHi = append(e.yHi, core.Region.Hi.Y-groupH)
			var colVars []int
			var colWs []float64
			for _, col := range g.Cols {
				gx := e.nx
				e.nx++
				maxW := 0.0
				for b, c := range col {
					if nl.Cell(c).Fixed {
						continue
					}
					e.xVar[c] = gx
					e.yVar[c] = gy
					e.yOff[c] = float64(b) * pitch
					if w := nl.Cell(c).W; w > maxW {
						maxW = w
					}
				}
				e.xLo = append(e.xLo, core.Region.Lo.X)
				e.xHi = append(e.xHi, core.Region.Hi.X-maxW)
				colVars = append(colVars, gx)
				colWs = append(colWs, maxW)
			}
			e.groupColVars = append(e.groupColVars, colVars)
			e.groupColW = append(e.groupColW, colWs)
		}
	}
	for i := range nl.Cells {
		if nl.Cells[i].Fixed || e.xVar[i] >= 0 {
			continue
		}
		e.xVar[i] = e.nx
		e.nx++
		e.xLo = append(e.xLo, core.Region.Lo.X)
		e.xHi = append(e.xHi, core.Region.Hi.X-nl.Cells[i].W)
		e.yVar[i] = e.ny
		e.ny++
		e.yLo = append(e.yLo, core.Region.Lo.Y)
		e.yHi = append(e.yHi, core.Region.Hi.Y-nl.Cells[i].H)
	}
	e.nVars = e.nx + e.ny

	// The density grid grows with the design: about three movable cells
	// per bin, clamped to [16, 128] bins a side.
	dim := int(math.Sqrt(float64(nl.NumMovable())/3)) + 8
	if dim < 16 {
		dim = 16
	}
	if dim > 128 {
		dim = 128
	}
	e.grid = geom.NewGrid(core.Region, dim, dim)
	e.pot = density.NewPotential(nl, pl, e.grid, o.TargetDensity)
	e.cong = congestion.New(nl, e.grid, o.Congestion)

	e.xFull = make([]float64, nc)
	e.yFull = make([]float64, nc)
	e.cxFull = make([]float64, nc)
	e.cyFull = make([]float64, nc)
	e.gxFull = make([]float64, nc)
	e.gyFull = make([]float64, nc)
	e.sgx = make([]float64, nc)
	e.sgy = make([]float64, nc)
	e.dgx = make([]float64, nc)
	e.dgy = make([]float64, nc)
	for i := range nl.Cells {
		e.xFull[i] = pl.X[i]
		e.yFull[i] = pl.Y[i]
		e.cxFull[i] = pl.X[i] + nl.Cells[i].W/2
		e.cyFull[i] = pl.Y[i] + nl.Cells[i].H/2
	}

	// Worker pool. Workers==1 (or a one-core GOMAXPROCS) keeps every hot
	// path inline on the calling goroutine — the exact serial code path.
	e.pool = par.New(o.Workers)
	e.ctx = context.Background()

	// Flat SoA netlist view: CSR pin layout plus per-net weights.
	nNets := len(nl.Nets)
	e.netOff = make([]int32, nNets+1)
	for ni := range nl.Nets {
		e.netOff[ni+1] = e.netOff[ni] + int32(nl.Nets[ni].Degree())
	}
	totalPins := int(e.netOff[nNets])
	e.pinCell = make([]int32, totalPins)
	e.pinDX = make([]float64, totalPins)
	e.pinDY = make([]float64, totalPins)
	e.netWeight = make([]float64, nNets)
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		e.netWeight[ni] = net.Weight
		off := int(e.netOff[ni])
		for k, pid := range net.Pins {
			pin := nl.Pin(pid)
			if pin.Cell == netlist.NoCell {
				e.pinCell[off+k] = -1
			} else {
				e.pinCell[off+k] = int32(pin.Cell)
			}
			e.pinDX[off+k] = pin.DX
			e.pinDY[off+k] = pin.DY
		}
	}

	// Wirelength kernel state.
	e.curX = make([]float64, totalPins)
	e.curY = make([]float64, totalPins)
	e.expPX = make([]float64, totalPins)
	e.expNX = make([]float64, totalPins)
	e.expPY = make([]float64, totalPins)
	e.expNY = make([]float64, totalPins)
	e.pinGX = make([]float64, totalPins)
	e.pinGY = make([]float64, totalPins)
	e.stX = make([]wirelength.AxisState, nNets)
	e.stY = make([]wirelength.AxisState, nNets)
	e.netVal = make([]float64, nNets)
	e.netValClean = make([]bool, nNets)
	e.netGradClean = make([]bool, nNets)

	e.vPrev = make([]float64, e.nVars)
	e.changedVars = make([]int32, 0, e.nVars)
	e.buildIncidence()
	return e
}

// buildIncidence constructs the two deduplicated CSR incidence maps the
// delta evaluator diffs through: variable → cells (to update the full
// coordinate arrays of exactly the moved cells) and variable → nets (to mark
// exactly the affected nets dirty). In hard alignment mode one variable can
// own many cells and a net can touch one variable through several pins; the
// per-variable net lists carry each net once.
func (e *engine) buildIncidence() {
	nl := e.nl
	// var → cells.
	cellCnt := make([]int32, e.nVars+1)
	for c := range nl.Cells {
		if e.xVar[c] < 0 {
			continue
		}
		cellCnt[e.xVar[c]+1]++
		cellCnt[e.nx+e.yVar[c]+1]++
	}
	for i := 0; i < e.nVars; i++ {
		cellCnt[i+1] += cellCnt[i]
	}
	e.varCellOff = cellCnt
	e.varCells = make([]int32, cellCnt[e.nVars])
	fill := make([]int32, e.nVars)
	copy(fill, cellCnt[:e.nVars])
	for c := range nl.Cells {
		if e.xVar[c] < 0 {
			continue
		}
		xv, yv := e.xVar[c], e.nx+e.yVar[c]
		e.varCells[fill[xv]] = int32(c)
		fill[xv]++
		e.varCells[fill[yv]] = int32(c)
		fill[yv]++
	}

	// var → nets, deduplicated per (variable, net) pair. Nets are visited in
	// ascending order, so "last net appended to this variable" detects
	// duplicates without a set.
	netCnt := make([]int32, e.nVars+1)
	last := make([]int32, e.nVars)
	for i := range last {
		last[i] = -1
	}
	countVar := func(v int, ni int32) {
		if last[v] != ni {
			last[v] = ni
			netCnt[v+1]++
		}
	}
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		if net.Degree() < 2 {
			continue
		}
		for _, pid := range net.Pins {
			pin := nl.Pin(pid)
			if pin.Cell == netlist.NoCell || e.xVar[pin.Cell] < 0 {
				continue
			}
			countVar(e.xVar[pin.Cell], int32(ni))
			countVar(e.nx+e.yVar[pin.Cell], int32(ni))
		}
	}
	for i := 0; i < e.nVars; i++ {
		netCnt[i+1] += netCnt[i]
	}
	e.varNetOff = netCnt
	e.varNets = make([]int32, netCnt[e.nVars])
	for i := range last {
		last[i] = -1
	}
	netFill := make([]int32, e.nVars)
	copy(netFill, netCnt[:e.nVars])
	appendVar := func(v int, ni int32) {
		if last[v] != ni {
			last[v] = ni
			e.varNets[netFill[v]] = ni
			netFill[v]++
		}
	}
	for ni := range nl.Nets {
		net := &nl.Nets[ni]
		if net.Degree() < 2 {
			continue
		}
		for _, pid := range net.Pins {
			pin := nl.Pin(pid)
			if pin.Cell == netlist.NoCell || e.xVar[pin.Cell] < 0 {
				continue
			}
			appendVar(e.xVar[pin.Cell], int32(ni))
			appendVar(e.nx+e.yVar[pin.Cell], int32(ni))
		}
	}
}

// setGamma installs a new smoothing parameter and invalidates every net at
// once: stored values and exponentials are exact only at the γ they were
// computed with, so each step of the λ/γ-schedule dirties the whole
// wirelength state. The density cache is untouched — it does not depend
// on γ.
func (e *engine) setGamma(g float64) {
	e.gamma = g
	e.wlAllDirty = true
}

// rowHOf returns the cell height of a group (uniform in row-based designs).
func rowHOf(nl *netlist.Netlist, g AlignGroup) float64 {
	return nl.Cell(g.Cols[0][0]).H
}

// initVars seeds the variable vector from the current placement: shared
// variables start at the mean of their members.
func (e *engine) initVars(v []float64) {
	cnt := make([]float64, e.nVars)
	for i := range v {
		v[i] = 0
	}
	for c := range e.nl.Cells {
		if e.xVar[c] < 0 {
			continue
		}
		v[e.xVar[c]] += e.pl.X[c]
		cnt[e.xVar[c]]++
		v[e.nx+e.yVar[c]] += e.pl.Y[c] - e.yOff[c]
		cnt[e.nx+e.yVar[c]]++
	}
	for i := range v {
		if cnt[i] > 0 {
			v[i] /= cnt[i]
		}
	}
	// Hard mode: the quadratic start puts all of a group's columns at
	// nearly the same x, and columns cannot tunnel through each other later
	// (density is a barrier), so their initial left-to-right order persists
	// into the final stage order. Spread each group's columns in chain-
	// connectivity order around the group's mean.
	gi := 0
	for _, g := range e.o.Groups {
		if len(g.Cols) == 0 || len(g.Cols[0]) == 0 || !e.hard {
			continue
		}
		colVars := e.groupColVars[gi]
		colWs := e.groupColW[gi]
		gi++
		order := chainOrder(e.nl, g, 16)
		total := 0.0
		mean := 0.0
		for k, cv := range colVars {
			total += colWs[k]
			mean += v[cv]
		}
		mean /= float64(len(colVars))
		x := mean - total/2
		if x < e.core.Region.Lo.X {
			x = e.core.Region.Lo.X
		}
		for _, k := range order {
			v[colVars[k]] = x
			x += colWs[k]
		}
	}
	e.clampVars(v)
}

// refresh moves the engine's full-coordinate arrays and dirty-net state to
// the variable vector v. It is the only entry point that may change xFull/
// yFull/cxFull/cyFull: diffing v against vPrev identifies exactly the moved
// variables, their cells are updated through the var→cells CSR, and their
// nets marked dirty through the var→nets CSR. Every consumer of the full
// arrays (wirelength kernels, density, alignment, tracing) therefore sees
// coordinates whose staleness is tracked, which is what makes delta
// evaluation exact rather than heuristic.
func (e *engine) refresh(v []float64) {
	if !e.havePrev || e.noReuse {
		copy(e.vPrev, v)
		e.havePrev = true
		e.wlAllDirty = true
		e.densClean, e.densGradClean = false, false
		for c := range e.nl.Cells {
			if e.xVar[c] >= 0 {
				e.updateCell(c, v)
			}
		}
	} else {
		// Two-phase diff: find the moved variables first, then mark their
		// nets. Line-search probes move every variable (the CG direction is
		// dense), and for those the per-variable net walks cost more than
		// they save — when most variables moved, blanket-dirtying is both
		// cheaper and provably equivalent, since recomputing a clean net
		// reproduces its cached bits exactly.
		changed := e.changedVars[:0]
		for i, vi := range v {
			//placelint:ignore floateq bitwise change detection: an unchanged bit pattern provably leaves every downstream result identical, and NaN≠NaN conservatively re-dirties
			if vi == e.vPrev[i] {
				continue
			}
			e.vPrev[i] = vi
			changed = append(changed, int32(i))
			for _, c := range e.varCells[e.varCellOff[i]:e.varCellOff[i+1]] {
				e.updateCell(int(c), v)
			}
		}
		e.changedVars = changed
		if len(changed) > 0 {
			e.densClean, e.densGradClean = false, false
			if 4*len(changed) > e.nVars {
				e.wlAllDirty = true
			} else if !e.wlAllDirty {
				for _, i := range changed {
					for _, ni := range e.varNets[e.varNetOff[i]:e.varNetOff[i+1]] {
						e.netValClean[ni] = false
						e.netGradClean[ni] = false
					}
				}
			}
		}
	}
	if e.wlAllDirty {
		for i := range e.netValClean {
			e.netValClean[i] = false
			e.netGradClean[i] = false
		}
		e.wlAllDirty = false
	}
}

// updateCell recomputes one cell's corner and center coordinates from v.
func (e *engine) updateCell(c int, v []float64) {
	cell := &e.nl.Cells[c]
	e.xFull[c] = v[e.xVar[c]]
	e.yFull[c] = v[e.nx+e.yVar[c]] + e.yOff[c]
	e.cxFull[c] = e.xFull[c] + cell.W/2
	e.cyFull[c] = e.yFull[c] + cell.H/2
}

// eval computes the objective and, when grad is non-nil, the gradient at v.
// Value-only calls (grad == nil) are what the optimizer's line-search probes
// issue under ValueOnlyProbes; the delta evaluator then reuses per-net
// values, the density objective and the stored gradients wherever the
// incidence diff proves them current.
func (e *engine) eval(v, grad []float64) float64 {
	e.funcEvals++
	e.refresh(v)
	withGrad := grad != nil
	if withGrad {
		for i := range e.gxFull {
			e.gxFull[i] = 0
			e.gyFull[i] = 0
		}
	}

	reuse0 := e.netReuses.Load()
	recomp0 := e.netRecomps.Load()
	wl := e.evalWL(withGrad)
	if e.netReuses.Load() > reuse0 {
		e.deltaEvals++
	} else if e.netRecomps.Load() > recomp0 {
		e.fullEvals++
	}

	var dens float64
	if e.lambda > 0 {
		if e.densClean {
			dens = e.densVal
		} else {
			dens = e.pot.Value(e.cxFull, e.cyFull)
			if !math.IsNaN(dens) {
				e.densVal = dens
				e.densClean = true
			}
			e.densGradClean = false
		}
		if withGrad && !math.IsNaN(dens) {
			if !e.densGradClean {
				for i := range e.dgx {
					e.dgx[i] = 0
					e.dgy[i] = 0
				}
				if !e.pot.Gradient(e.dgx, e.dgy) {
					return math.NaN()
				}
				e.densGradClean = true
			}
			for i := range e.dgx {
				e.gxFull[i] += e.lambda * e.dgx[i]
				e.gyFull[i] += e.lambda * e.dgy[i]
			}
		}
	}
	var align float64
	if e.alpha > 0 && len(e.o.Groups) > 0 && !e.hard {
		align = e.evalAlign(withGrad, e.alpha)
	}

	if withGrad {
		for i := range grad {
			grad[i] = 0
		}
		for c := range e.nl.Cells {
			if e.xVar[c] < 0 {
				continue
			}
			grad[e.xVar[c]] += e.gxFull[c]
			grad[e.nx+e.yVar[c]] += e.gyFull[c]
		}
	}
	return wl + e.lambda*dens + e.alpha*align
}

// evalWL computes the smooth wirelength and, when withGrad is set,
// accumulates the weighted per-pin gradients into the full per-cell arrays.
//
// The evaluation is sharded by net through the SoA kernels of package
// wirelength: dirty nets gather their pin coordinates from the flat CSR
// view, run WAValueAxis/LSEValueAxis into their own exp/state slots, and —
// when a gradient is wanted — WAGradAxis/LSEGradAxis into their pin-gradient
// slots. Clean nets are skipped entirely; a net whose value is clean but
// whose gradient is stale gets a gradient-only pass from the stored
// exponentials, with no math.Exp call. The weighted objective sum and the
// scatter into per-cell gradients then run serially in net order, so the
// result is bit-identical at every worker count and to a from-scratch
// evaluation (the kernels are pure functions of stored inputs).
func (e *engine) evalWL(withGrad bool) float64 {
	nNets := len(e.netVal)
	// Hoist the hot slices and scalars out of the worker closure: the engine
	// holds atomic counters, so repeated field loads through e would not be
	// registerized inside the net loop.
	netOff, pinCell, pinDX, pinDY := e.netOff, e.pinCell, e.pinDX, e.pinDY
	curX, curY, xFull, yFull := e.curX, e.curY, e.xFull, e.yFull
	expPX, expNX, expPY, expNY := e.expPX, e.expNX, e.expPY, e.expNY
	netValClean, netGradClean := e.netValClean, e.netGradClean
	netVal, stX, stY := e.netVal, e.stX, e.stY
	pinGX, pinGY := e.pinGX, e.pinGY
	lse, gamma := e.lse, e.gamma
	if err := e.pool.Run(e.ctx, nNets, 32, func(lo, hi int) {
		var recomputed, reused int64
		for ni := lo; ni < hi; ni++ {
			off, end := int(netOff[ni]), int(netOff[ni+1])
			if end-off < 2 {
				continue
			}
			if netValClean[ni] && (!withGrad || netGradClean[ni]) {
				reused++
				continue
			}
			xs, ys := curX[off:end], curY[off:end]
			epx, enx := expPX[off:end], expNX[off:end]
			epy, eny := expPY[off:end], expNY[off:end]
			if !netValClean[ni] {
				recomputed++
				for k := off; k < end; k++ {
					if c := pinCell[k]; c >= 0 {
						curX[k] = xFull[c] + pinDX[k]
						curY[k] = yFull[c] + pinDY[k]
					} else {
						curX[k] = pinDX[k]
						curY[k] = pinDY[k]
					}
				}
				if lse {
					sx, wx := wirelength.LSEValueAxis(xs, epx, enx, gamma)
					sy, wy := wirelength.LSEValueAxis(ys, epy, eny, gamma)
					stX[ni], stY[ni] = sx, sy
					netVal[ni] = wx + wy
				} else {
					sx, wx := wirelength.WAValueAxis(xs, epx, enx, gamma)
					sy, wy := wirelength.WAValueAxis(ys, epy, eny, gamma)
					stX[ni], stY[ni] = sx, sy
					netVal[ni] = wx + wy
				}
				netValClean[ni] = true
				netGradClean[ni] = false
			} else {
				// Value current, gradient stale: the gradient-only fast path
				// below reconstructs it from the stored exponentials.
				reused++
			}
			if withGrad {
				if lse {
					wirelength.LSEGradAxis(epx, enx, stX[ni], pinGX[off:end])
					wirelength.LSEGradAxis(epy, eny, stY[ni], pinGY[off:end])
				} else {
					wirelength.WAGradAxis(xs, epx, enx, stX[ni], gamma, pinGX[off:end])
					wirelength.WAGradAxis(ys, epy, eny, stY[ni], gamma, pinGY[off:end])
				}
				netGradClean[ni] = true
			}
		}
		e.netRecomps.Add(recomputed)
		e.netReuses.Add(reused)
	}); err != nil {
		// Cancelled mid-evaluation: poison the objective so the optimizer
		// rejects the iterate; its own context poll stops the solve next.
		// Any nets marked clean hold valid results — cleanliness is per net,
		// not per evaluation — but the poisoned objective is discarded.
		return math.NaN()
	}

	// Serial reduction in net order.
	netWeight, xVar := e.netWeight, e.xVar
	gxFull, gyFull := e.gxFull, e.gyFull
	total := 0.0
	for ni := 0; ni < nNets; ni++ {
		off, end := int(netOff[ni]), int(netOff[ni+1])
		if end-off < 2 {
			continue
		}
		total += netWeight[ni] * netVal[ni]
		if !withGrad {
			continue
		}
		w := netWeight[ni]
		for k := off; k < end; k++ {
			c := pinCell[k]
			if c < 0 || xVar[c] < 0 {
				continue
			}
			gxFull[c] += w * pinGX[k]
			gyFull[c] += w * pinGY[k]
		}
	}
	return total
}

// evalAlign computes the soft alignment energy and adds weight·grad.
func (e *engine) evalAlign(withGrad bool, weight float64) float64 {
	if !withGrad {
		return alignEnergy(e.o.Groups, e.core.RowH(), e.cxFull, e.cyFull, nil, nil)
	}
	for i := range e.sgx {
		e.sgx[i] = 0
		e.sgy[i] = 0
	}
	a := alignEnergy(e.o.Groups, e.core.RowH(), e.cxFull, e.cyFull, e.sgx, e.sgy)
	for i := range e.sgx {
		e.gxFull[i] += weight * e.sgx[i]
		e.gyFull[i] += weight * e.sgy[i]
	}
	return a
}

// gradL1 sums |g| over movable cells.
func gradL1(gx, gy []float64, nl *netlist.Netlist) float64 {
	s := 0.0
	for i := range nl.Cells {
		if nl.Cells[i].Fixed {
			continue
		}
		s += math.Abs(gx[i]) + math.Abs(gy[i])
	}
	return s
}

// innerOpts assembles the inner-solver options for one λ stage, attaching
// flight-recorder telemetry when recording is on: every accepted iterate and
// every health event (rollback, line-search reset, CG restart, divergence)
// lands in the trace. The callback only observes, so the iterate sequence is
// bit-identical to an unrecorded run.
func (e *engine) innerOpts(ctx context.Context, rec *obs.Recorder, outer int, stepInit float64) opt.Options {
	oo := opt.Options{
		MaxIter:  e.o.InnerIters,
		GradTol:  1e-7,
		StepInit: stepInit,
		Ctx:      ctx,
		// Line-search probes ask for the objective alone; the delta
		// evaluator then skips every per-pin gradient kernel and the density
		// chain-rule pass for them, and the accepted iterate's gradient comes
		// mostly from stored exponentials and tables. The iterate sequence is
		// bit-identical to fused probes (see opt.Options.ValueOnlyProbes).
		ValueOnlyProbes: true,
	}
	if rec.Active() {
		oo.Callback = func(iter int, f, gnorm float64) bool {
			rec.SolverIter("global", outer, iter, f, gnorm)
			return true
		}
		oo.OnEvent = func(ev opt.Event) {
			rec.SolverEvent("global", outer, ev.Kind, ev.Iter, ev.F, ev.Step)
		}
	}
	return oo
}

// run executes the λ-scheduled outer loop.
func (e *engine) run(ctx context.Context) (Result, error) {
	nl, pl := e.nl, e.pl
	rec := obs.From(ctx)
	// The run context reaches into the parallel kernels so a deadline can
	// stop work between chunks; determinism is unaffected because partial
	// results are poisoned (NaN) rather than used.
	e.ctx = ctx
	e.pot.SetParallel(e.pool, ctx)
	v := make([]float64, e.nVars)
	e.initVars(v)

	gammaHi := 8 * math.Max(e.grid.BinW, e.grid.BinH)
	gammaLo := 0.5 * math.Max(e.grid.BinW, e.grid.BinH)
	if e.o.Refine {
		// Warm start: the placement is already spread, so the schedule skips
		// the exploratory large-γ stages and polishes from mid-schedule.
		gammaHi = 2 * math.Max(e.grid.BinW, e.grid.BinH)
	}
	e.setGamma(gammaHi)

	// Auto-scale λ (and α in soft mode) from first-order balance.
	e.lambda, e.alpha = 0, 0
	e.refresh(v)
	for i := range e.gxFull {
		e.gxFull[i] = 0
		e.gyFull[i] = 0
	}
	e.evalWL(true)
	wlNorm := gradL1(e.gxFull, e.gyFull, nl)

	dgx := make([]float64, len(e.gxFull))
	dgy := make([]float64, len(e.gyFull))
	e.pot.Eval(e.cxFull, e.cyFull, dgx, dgy)
	densNorm := gradL1(dgx, dgy, nl)
	lambda0 := 1e-4
	if densNorm > 0 {
		lambda0 = 0.2 * wlNorm / densNorm
	}

	alpha0 := 0.0
	if len(e.o.Groups) > 0 && !e.hard {
		agx := make([]float64, len(e.gxFull))
		agy := make([]float64, len(e.gyFull))
		alignEnergy(e.o.Groups, e.core.RowH(), e.cxFull, e.cyFull, agx, agy)
		if alignNorm := gradL1(agx, agy, nl); alignNorm > 0 {
			alpha0 = 0.02 * wlNorm / alignNorm * e.o.AlignWeight
		}
	}

	res := Result{}
	e.lambda = lambda0
	e.alpha = alpha0
	// Over-penalization guard: past some λ the smooth-kernel objective
	// stops tracking exact overflow and the iterates drift. Keep the best
	// iterate seen and stop once overflow plateaus.
	bestV := make([]float64, len(v))
	bestOv := math.Inf(1)
	sinceBest := 0
	// Health bookkeeping: γ re-annealing boost (1 = schedule as planned)
	// and the divergence strike count. Two strikes and the run gives up so
	// the caller can fall back to a simpler formulation.
	gammaBoost := 1.0
	diverged := 0
	// lastOv tracks the exact density overflow of the committed placement;
	// the congestion controller gates its snapshot cadence on it (inflating
	// a still-clustered placement is pure HPWL cost). Seeded with a real
	// measurement only when the loop is on — it costs an exact map pass.
	lastOv := math.Inf(1)
	if e.cong != nil {
		lastOv = density.Overflow(nl, pl, e.grid, e.o.TargetDensity)
	}
	var stageErr error
	for outer := 0; outer < e.o.MaxOuterIters; outer++ {
		if pipeline.Expired(ctx) {
			res.Diagnostics.Partial = true
			stageErr = pipeline.StageError("global", pipeline.ErrTimeout)
			rec.Event("global", "deadline")
			rec.Logf(obs.Warn, "global",
				"deadline expired at outer %d; committing best iterate", outer)
			break
		}
		// Congestion feedback: pl holds the committed iterate (the initial
		// placement at outer 0), so the snapshot sees what the spreader
		// produced. Inflation changes the density objective at unchanged
		// coordinates, so both density caches must drop (§14: all-or-nothing).
		if e.cong.Due(outer, lastOv) {
			if e.cong.Snapshot(ctx, e.pool, pl) {
				e.pot.SetAreaScale(e.cong.Scale())
				e.densClean, e.densGradClean = false, false
				st := e.cong.Stats()
				rec.SolverEvent("global", outer, "congestion-inflate", 0, 0, e.lambda)
				rec.Logf(obs.Debug, "global",
					"congestion snapshot %d at outer %d: %d cells inflated (max ×%.2f), RUDY overflow %.1f",
					st.Snapshots, outer, st.InflatedCells, st.MaxInflation,
					st.Overflow[len(st.Overflow)-1])
			}
		}

		frac := float64(outer) / math.Max(1, float64(e.o.MaxOuterIters-1))
		gamma := gammaHi * math.Pow(gammaLo/gammaHi, frac)
		if gammaBoost != 1 {
			gamma = math.Min(gammaHi, gamma*gammaBoost)
		}
		e.setGamma(gamma)

		r := opt.Minimize(e.eval, v, e.innerOpts(ctx, rec, outer, e.stepInit(v)))
		res.FuncEvals += r.FuncEvals
		res.OuterIters = outer + 1
		res.Diagnostics.Recoveries += r.Recoveries
		rec.Add("global/recoveries", int64(r.Recoveries))

		if r.Diverged || !finiteVec(v) {
			// The inner solve blew up beyond its own recovery budget: roll
			// back to the best iterate and re-anneal — smoother γ, gentler λ
			// — so the next stage re-approaches the barrier gradually.
			diverged++
			res.Diagnostics.Rollbacks++
			if bestOv < math.Inf(1) {
				copy(v, bestV)
			} else {
				e.initVars(v)
			}
			e.lambda = math.Max(lambda0, e.lambda*0.25)
			if e.alpha > 0 {
				e.alpha = math.Max(alpha0, e.alpha*0.25)
			}
			gammaBoost *= 2
			rec.SolverEvent("global", outer, "outer-rollback", r.Iters, r.F, 0)
			rec.SolverEvent("global", outer, "re-anneal", r.Iters, r.F, e.lambda)
			rec.Logf(obs.Warn, "global",
				"inner solve diverged at outer %d; rolled back and re-annealed (λ→%.3g, γ boost ×%g)",
				outer, e.lambda, gammaBoost)
			if diverged >= 2 {
				res.Diagnostics.Diverged = true
				stageErr = pipeline.StageError("global", pipeline.ErrDiverged)
				rec.Logf(obs.Warn, "global", "health guard gave up after %d diverged stages", diverged)
				break
			}
			continue
		}

		e.clampVars(v)
		e.commit(v)
		ov := density.Overflow(nl, pl, e.grid, e.o.TargetDensity)
		lastOv = ov
		if ov < bestOv-1e-4 {
			bestOv = ov
			copy(bestV, v)
			sinceBest = 0
		} else {
			sinceBest++
		}
		if e.o.Trace != nil || rec.Active() {
			e.refresh(v)
			p := obs.TrajectoryPoint{
				Outer:     outer,
				Inner:     r.Iters,
				HPWL:      pl.HPWL(nl),
				Overflow:  ov,
				AlignRMS:  AlignmentScore(e.o.Groups, e.core.RowH(), e.cxFull, e.cyFull),
				Objective: r.F,
				Lambda:    e.lambda,
				Alpha:     e.alpha,
				Gamma:     gamma,
			}
			if e.o.Trace != nil {
				e.o.Trace(p)
			}
			rec.OuterIter("global", p)
		}
		if r.Stopped {
			res.Diagnostics.Partial = true
			stageErr = pipeline.StageError("global", pipeline.ErrTimeout)
			break
		}
		if ov < overflowTarget && outer >= 3 {
			break
		}
		if sinceBest >= 4 {
			break // density progress has stalled; more λ only hurts
		}
		e.lambda *= 2
		if e.alpha > 0 {
			e.alpha *= 1.7
		}
	}
	if bestOv < math.Inf(1) {
		copy(v, bestV)
	}

	// Soft mode needs a final alignment polish before legalization; hard
	// mode is aligned by construction. Skipped on an abnormal stop: the
	// best iterate is worth more than a polish under a blown budget.
	if stageErr == nil && !e.hard && len(e.o.Groups) > 0 && e.alpha > 0 {
		e.alpha *= 64
		// Outer index -1 marks the soft-alignment polish solve in the trace.
		r := opt.Minimize(e.eval, v, e.innerOpts(ctx, rec, -1, e.stepInit(v)))
		res.FuncEvals += r.FuncEvals
		res.Diagnostics.Recoveries += r.Recoveries
		rec.Add("global/recoveries", int64(r.Recoveries))
		if r.Stopped {
			res.Diagnostics.Partial = true
			stageErr = pipeline.StageError("global", pipeline.ErrTimeout)
		}
		e.clampVars(v)
	}

	e.commit(v)
	pl.ClampInto(nl, e.core.Region)
	e.refresh(v)
	res.HPWL = pl.HPWL(nl)
	res.Overflow = density.Overflow(nl, pl, e.grid, e.o.TargetDensity)
	res.AlignRMS = AlignmentScore(e.o.Groups, e.core.RowH(), e.cxFull, e.cyFull)
	res.Workers = e.pool.Workers()
	res.NetRecomputes = e.netRecomps.Load()
	res.NetReuses = e.netReuses.Load()
	res.FullEvals = e.fullEvals
	res.DeltaEvals = e.deltaEvals
	rec.Add("global/net_recomputes", res.NetRecomputes)
	rec.Add("global/net_reuses", res.NetReuses)
	rec.Add("global/evals_full", res.FullEvals)
	rec.Add("global/evals_delta", res.DeltaEvals)
	if e.cong != nil {
		st := e.cong.Stats()
		res.Congestion = &st
	}
	rec.Logf(obs.Debug, "global",
		"done: %d outer iters, %d evals, HPWL %.0f, overflow %.3f, align RMS %.3f",
		res.OuterIters, res.FuncEvals, res.HPWL, res.Overflow, res.AlignRMS)
	return res, stageErr
}

// finiteVec reports whether every component of v is finite.
func finiteVec(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// stepInit picks the first trial step so the strongest variable moves about
// a quarter bin.
func (e *engine) stepInit(v []float64) float64 {
	g := make([]float64, len(v))
	e.eval(v, g)
	maxG := 0.0
	for _, gv := range g {
		if a := math.Abs(gv); a > maxG {
			maxG = a
		}
	}
	if maxG == 0 {
		return 1
	}
	return 0.25 * math.Max(e.grid.BinW, e.grid.BinH) / maxG
}

// clampVars keeps every variable inside its feasible interval.
func (e *engine) clampVars(v []float64) {
	for i := 0; i < e.nx; i++ {
		v[i] = geom.Clamp(v[i], e.xLo[i], math.Max(e.xLo[i], e.xHi[i]))
	}
	for i := 0; i < e.ny; i++ {
		v[e.nx+i] = geom.Clamp(v[e.nx+i], e.yLo[i], math.Max(e.yLo[i], e.yHi[i]))
	}
}

// commit writes the variable vector back into the placement.
func (e *engine) commit(v []float64) {
	for c := range e.nl.Cells {
		if e.xVar[c] < 0 {
			continue
		}
		e.pl.X[c] = v[e.xVar[c]]
		e.pl.Y[c] = v[e.nx+e.yVar[c]] + e.yOff[c]
	}
}
