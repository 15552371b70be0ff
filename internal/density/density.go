// Package density implements the bin-based cell-density machinery of
// analytical global placement: an exact utilization map with the standard
// overflow metric, and the NTUplace3-style smooth bell-shaped potential with
// analytic gradients, used as the spreading penalty during optimization.
//
// The Potential evaluates through flat SoA kernels (soa.go): per-cell 1-D
// bell tables with a separable normalization, a branch-free table-driven
// splat, and a chain-rule gradient over the same tables. The split Value /
// Gradient API lets the placement engine's delta evaluator reuse a cached
// objective and still obtain gradients from the stored tables; Eval fuses
// the two for ordinary callers. Results are bit-identical at every worker
// count (SetParallel).
package density

import (
	"context"
	"math"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
)

// Map holds per-bin area accumulations over a grid.
type Map struct {
	Grid geom.Grid
	Bins []float64 // area (or potential) per bin, Grid.Index order
}

// NewMap returns a zeroed map over grid.
func NewMap(grid geom.Grid) *Map {
	return &Map{Grid: grid, Bins: make([]float64, grid.Bins())}
}

// Reset zeroes all bins.
func (m *Map) Reset() {
	for i := range m.Bins {
		m.Bins[i] = 0
	}
}

// AddRect distributes the area of r into the bins it overlaps, exactly.
func (m *Map) AddRect(r geom.Rect) {
	i0, i1, j0, j1 := m.Grid.Range(r)
	for j := j0; j < j1; j++ {
		for i := i0; i < i1; i++ {
			ov := m.Grid.BinRect(i, j).Overlap(r)
			if ov > 0 {
				m.Bins[m.Grid.Index(i, j)] += ov
			}
		}
	}
}

// Utilization builds the exact utilization map of a placement: per-bin
// occupied area (movable + fixed) divided by bin area.
func Utilization(nl *netlist.Netlist, pl *netlist.Placement, grid geom.Grid) *Map {
	m := NewMap(grid)
	for i := range nl.Cells {
		m.AddRect(pl.CellRect(nl, netlist.CellID(i)))
	}
	binArea := grid.BinW * grid.BinH
	for i := range m.Bins {
		m.Bins[i] /= binArea
	}
	return m
}

// Overflow returns the total-overflow ratio of a placement at the given
// target utilization: Σ_b max(0, area_b − target·binArea) / Σ movable area.
// This is the standard global-placement stopping metric (0 = fully spread).
func Overflow(nl *netlist.Netlist, pl *netlist.Placement, grid geom.Grid, target float64) float64 {
	m := NewMap(grid)
	for i := range nl.Cells {
		m.AddRect(pl.CellRect(nl, netlist.CellID(i)))
	}
	binArea := grid.BinW * grid.BinH
	cap := target * binArea
	over := 0.0
	for _, a := range m.Bins {
		if a > cap {
			over += a - cap
		}
	}
	mov := nl.MovableArea()
	if mov <= 0 {
		return 0
	}
	return over / mov
}

// MaxUtilization returns the maximum bin utilization of a placement.
func MaxUtilization(nl *netlist.Netlist, pl *netlist.Placement, grid geom.Grid) float64 {
	u := Utilization(nl, pl, grid)
	maxU := 0.0
	for _, v := range u.Bins {
		if v > maxU {
			maxU = v
		}
	}
	return maxU
}

// Potential is the smooth density model. Given cell centers it computes
//
//	N(x, y) = Σ_b (D_b − T_b)²
//
// where D_b spreads each cell's area over nearby bins with the bell-shaped
// kernel of NTUplace3, and T_b is the per-bin target area (target
// utilization × bin area, reduced by fixed-cell blockage). The gradient with
// respect to each movable cell's center is computed analytically, treating
// the per-cell normalization constant as locally fixed (the standard
// approximation).
type Potential struct {
	nl     *netlist.Netlist
	grid   geom.Grid
	target []float64 // per-bin target area T_b
	dens   []float64 // scratch: per-bin spread density D_b
	diff   []float64 // scratch: D_b − T_b

	// Congestion-feedback inflation (SetAreaScale): a caller-owned
	// per-cell area multiplier, indexed by CellID; nil means identity.
	areaScale []float64

	// Parallel execution state (SetParallel). pool == nil runs inline.
	pool *par.Pool
	ctx  context.Context

	// SoA scratch, sized on first use (soa.go). tabX/tabY hold the per-cell
	// 1-D bell constants and the tables the current Value pass filled; norm
	// is the separable normalization; valReady gates Gradient.
	movable  []int32    // indices of movable cells, ascending
	norm     []float64  // per-movable-cell kernel normalization at current centers
	tabX     axisTables // x-axis bell constants + current tables
	tabY     axisTables // y-axis bell constants + current tables
	valReady bool       // a Value pass has filled the tables and residuals
}

// NewPotential prepares a potential for nl over grid with the given target
// utilization. Fixed cells immediately reduce the targets of the bins they
// block.
func NewPotential(nl *netlist.Netlist, pl *netlist.Placement, grid geom.Grid, targetUtil float64) *Potential {
	p := &Potential{
		nl:     nl,
		grid:   grid,
		target: make([]float64, grid.Bins()),
		dens:   make([]float64, grid.Bins()),
		diff:   make([]float64, grid.Bins()),
	}
	binArea := grid.BinW * grid.BinH
	for i := range p.target {
		p.target[i] = targetUtil * binArea
	}
	// Fixed cells consume capacity exactly.
	for i := range nl.Cells {
		if !nl.Cells[i].Fixed {
			continue
		}
		r := pl.CellRect(nl, netlist.CellID(i))
		i0, i1, j0, j1 := grid.Range(r)
		for j := j0; j < j1; j++ {
			for bi := i0; bi < i1; bi++ {
				idx := grid.Index(bi, j)
				p.target[idx] -= grid.BinRect(bi, j).Overlap(r)
				if p.target[idx] < 0 {
					p.target[idx] = 0
				}
			}
		}
	}
	return p
}

// bell evaluates the one-dimensional bell kernel and its derivative for a
// cell of size w whose center is at distance d (signed) from the bin center.
// wb is the bin size along the axis. This is the reference form; the hot
// path precomputes the piecewise constants per cell and fills tables
// (axisTables.fill), which the kernel tests cross-check against bell.
func bell(d, w, wb float64) (p, dp float64) {
	ad := math.Abs(d)
	r1 := w/2 + wb   // inner knee
	r2 := w/2 + 2*wb // support radius
	if ad >= r2 {
		return 0, 0
	}
	a := 4 / ((w + 2*wb) * (w + 4*wb))
	b := 2 / (wb * (w + 4*wb))
	var sign float64 = 1
	if d < 0 {
		sign = -1
	}
	if ad <= r1 {
		return 1 - a*ad*ad, -2 * a * ad * sign
	}
	t := ad - r2
	return b * t * t, 2 * b * t * sign
}

// SetParallel attaches a worker pool (and the context it polls) to the
// potential. Subsequent Eval calls shard their passes across the pool; a nil
// pool (the default) keeps evaluation inline on the calling goroutine. The
// parallel schedule never changes the result: every floating-point
// accumulation order is fixed by cell and bin indices, not by worker count
// (see package par). When the context expires mid-evaluation Eval returns
// NaN, which the optimizer's numerical-health guard already treats as a
// rejected iterate; the caller's own context polling then stops the solve.
func (p *Potential) SetParallel(pool *par.Pool, ctx context.Context) {
	p.pool = pool
	p.ctx = ctx
}

// Eval computes N at the cell centers (cx, cy), parallel to nl.Cells, and
// adds ∂N/∂cx into gx and ∂N/∂cy into gy when they are non-nil. Fixed cells
// contribute nothing (their blockage already lowered the targets).
//
// Eval is the composition of Value and Gradient (soa.go): a table-fill +
// splat pass producing the objective, then — when a gradient is requested —
// a chain-rule pass over the same tables. Callers that can prove the
// coordinates have not changed since the last Value may call Gradient alone;
// the global-placement engine's delta evaluator does exactly that.
func (p *Potential) Eval(cx, cy []float64, gx, gy []float64) float64 {
	n := p.Value(cx, cy)
	if math.IsNaN(n) || (gx == nil && gy == nil) {
		return n
	}
	if !p.Gradient(gx, gy) {
		return math.NaN()
	}
	return n
}

// ensureScratch sizes the movable-cell scratch on first use. Cell sizes and
// the movable set are immutable for the lifetime of a Potential, so the
// per-cell bell constants and the fixed CSR table layout are computed once
// here; only the table *contents* change per evaluation.
func (p *Potential) ensureScratch() {
	if p.movable != nil {
		return
	}
	g := p.grid
	p.movable = make([]int32, 0, len(p.nl.Cells))
	for ci := range p.nl.Cells {
		if !p.nl.Cells[ci].Fixed {
			p.movable = append(p.movable, int32(ci))
		}
	}
	n := len(p.movable)
	p.norm = make([]float64, n)
	p.tabX.init(n)
	p.tabY.init(n)
	for mi, ci := range p.movable {
		capX := p.tabX.setConsts(mi, effSize(p.nl.Cells[ci].W, g.BinW), g.BinW)
		capY := p.tabY.setConsts(mi, effSize(p.nl.Cells[ci].H, g.BinH), g.BinH)
		p.tabX.off[mi+1] = p.tabX.off[mi] + int32(capX)
		p.tabY.off[mi+1] = p.tabY.off[mi] + int32(capY)
	}
	p.tabX.p = make([]float64, p.tabX.off[n])
	p.tabX.dp = make([]float64, p.tabX.off[n])
	p.tabY.p = make([]float64, p.tabY.off[n])
	p.tabY.dp = make([]float64, p.tabY.off[n])
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// effSize inflates very small cells to the bin size so their kernel support
// is never empty (standard smoothing of tiny cells).
func effSize(w, wb float64) float64 {
	if w < wb {
		return wb
	}
	return w
}

// Grid returns the potential's bin grid.
func (p *Potential) Grid() geom.Grid { return p.grid }

// SetAreaScale installs a per-cell area multiplier, indexed by CellID (nil
// restores the identity). The congestion controller inflates cells in
// over-demand bins this way: the scaled area enters only the kernel
// normalization of the next Value pass, so the bell support and the SoA table
// layout (§14 contract) are untouched. The slice is retained, not copied —
// the caller owns it and must not mutate it mid-evaluation. Changing the
// scale changes the objective at unchanged coordinates; callers that cache
// density values or gradients (the placement engine) must invalidate those
// caches themselves.
func (p *Potential) SetAreaScale(scale []float64) { p.areaScale = scale }
