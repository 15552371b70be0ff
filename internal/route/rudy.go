package route

import (
	"context"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/par"
)

// CalibratedCapacity is the RUDY routing capacity per unit bin area that
// placement evaluation and the congestion feedback loop share. One fixed
// value keeps congestion comparable across placers on the same design; the
// absolute value only scales the numbers.
const CalibratedCapacity = 0.15

// RUDYOptions configures the congestion estimate.
type RUDYOptions struct {
	WireWidth float64 // routed wire width in database units; 0 means 1
	Capacity  float64 // routing capacity per unit bin area; 0 means 1
}

// CongestionMap is the per-bin RUDY routing-demand estimate.
type CongestionMap struct {
	Grid geom.Grid
	// Demand is per-bin routing demand normalized by capacity: 1.0 means
	// the bin is exactly at capacity.
	Demand []float64
}

// RUDY computes the Rectangular Uniform wire DensitY congestion estimate:
// each net spreads (HPWL · wireWidth) of routing area uniformly over its
// bounding box. Degenerate (flat) boxes are padded by the wire width.
func RUDY(nl *netlist.Netlist, pl *netlist.Placement, grid geom.Grid, opt RUDYOptions) *CongestionMap {
	return RUDYPool(context.Background(), nil, nl, pl, grid, opt)
}

// RUDYPool is RUDY parallelized across a worker pool. The per-net wire
// boxes and densities are computed independently in a first pass; the bin
// accumulation is then tiled by grid rows, with each row owned by exactly
// one worker and nets visited in ascending order within it, so every bin
// receives its contributions in the same order as the serial loop and the
// map is bit-identical at every worker count. A nil pool runs inline. When
// ctx expires mid-computation the returned map is nil.
func RUDYPool(ctx context.Context, pool *par.Pool, nl *netlist.Netlist, pl *netlist.Placement, grid geom.Grid, opt RUDYOptions) *CongestionMap {
	cm := &CongestionMap{Grid: grid, Demand: make([]float64, grid.Bins())}
	boxes := make([]geom.Rect, len(nl.Nets))
	dens := make([]float64, len(nl.Nets))
	if err := rudyInto(ctx, pool, nl, pl, grid, opt, boxes, dens, cm.Demand); err != nil {
		return nil
	}
	return cm
}

// Estimator computes repeated RUDY snapshots of an evolving placement over a
// fixed grid, owning the SoA scratch (per-net wire boxes and densities, the
// flat per-bin demand accumulator) across calls: the congestion-feedback loop
// of global placement snapshots every few outer iterations, and none of those
// snapshots allocates. Snapshots follow the same two-pass row-tiled
// discipline as RUDYPool, so each map is bit-identical at every worker count.
type Estimator struct {
	nl    *netlist.Netlist
	grid  geom.Grid
	opt   RUDYOptions
	boxes []geom.Rect
	dens  []float64
	cm    CongestionMap
}

// NewEstimator prepares an estimator for nl over grid. The options are
// normalized once here (zero WireWidth/Capacity become 1).
func NewEstimator(nl *netlist.Netlist, grid geom.Grid, opt RUDYOptions) *Estimator {
	if opt.WireWidth <= 0 {
		opt.WireWidth = 1
	}
	if opt.Capacity <= 0 {
		opt.Capacity = 1
	}
	return &Estimator{
		nl:    nl,
		grid:  grid,
		opt:   opt,
		boxes: make([]geom.Rect, len(nl.Nets)),
		dens:  make([]float64, len(nl.Nets)),
		cm:    CongestionMap{Grid: grid, Demand: make([]float64, grid.Bins())},
	}
}

// Snapshot recomputes the congestion map at pl into the estimator's reused
// buffers and returns it. The returned map is owned by the estimator and
// valid until the next Snapshot. A nil pool runs inline; when ctx expires
// mid-computation the result is nil and the internal state is unspecified
// (the next Snapshot recomputes everything regardless).
func (e *Estimator) Snapshot(ctx context.Context, pool *par.Pool, pl *netlist.Placement) *CongestionMap {
	for i := range e.cm.Demand {
		e.cm.Demand[i] = 0
	}
	if err := rudyInto(ctx, pool, e.nl, pl, e.grid, e.opt, e.boxes, e.dens, e.cm.Demand); err != nil {
		return nil
	}
	return &e.cm
}

// rudyInto is the shared RUDY core: normalized per-bin demand accumulated
// into the caller-owned demand slice (zeroed by the caller), using the
// caller-owned per-net scratch. opt must already carry positive
// WireWidth/Capacity defaults when called from Estimator; RUDYPool normalizes
// here for one-shot callers.
func rudyInto(ctx context.Context, pool *par.Pool, nl *netlist.Netlist, pl *netlist.Placement, grid geom.Grid, opt RUDYOptions, boxes []geom.Rect, dens []float64, demand []float64) error {
	if opt.WireWidth <= 0 {
		opt.WireWidth = 1
	}
	if opt.Capacity <= 0 {
		opt.Capacity = 1
	}

	// Pass 1: per-net boxes and spread densities (independent per net).
	if err := pool.Run(ctx, len(nl.Nets), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Reset first: the estimator reuses this scratch across
			// snapshots, and skipped nets must not leak a stale density.
			dens[i] = 0
			net := &nl.Nets[i]
			if net.Degree() < 2 {
				continue
			}
			bb := pl.NetBBox(nl, netlist.NetID(i))
			hpwl := bb.W() + bb.H()
			if hpwl == 0 {
				continue
			}
			// Pad flat boxes so division by area stays sane.
			pad := opt.WireWidth / 2
			box := geom.NewRect(bb.Lo.X-pad, bb.Lo.Y-pad, bb.Hi.X+pad, bb.Hi.Y+pad)
			boxes[i] = box
			dens[i] = net.Weight * hpwl * opt.WireWidth / box.Area()
		}
	}); err != nil {
		return err
	}

	// Pass 2: accumulation tiled by grid rows; per-bin order is net order.
	if err := pool.Run(ctx, grid.NY, 2, func(loRow, hiRow int) {
		for i := range nl.Nets {
			if dens[i] == 0 {
				continue
			}
			box := boxes[i]
			i0, i1, j0, j1 := grid.Range(box)
			if j0 < loRow {
				j0 = loRow
			}
			if j1 > hiRow {
				j1 = hiRow
			}
			for j := j0; j < j1; j++ {
				for bi := i0; bi < i1; bi++ {
					ov := grid.BinRect(bi, j).Overlap(box)
					if ov > 0 {
						demand[grid.Index(bi, j)] += dens[i] * ov
					}
				}
			}
		}
	}); err != nil {
		return err
	}

	binArea := grid.BinW * grid.BinH
	for i := range demand {
		demand[i] /= opt.Capacity * binArea
	}
	return nil
}

// CongestionStats summarizes a congestion map for evaluation tables.
type CongestionStats struct {
	Max      float64 // peak bin demand/capacity
	Mean     float64 // average demand/capacity
	ACE5     float64 // average congestion of the worst 5% of bins (ACE metric)
	Overflow float64 // Σ max(0, demand − 1) over bins, in bin units
}

// Stats computes summary statistics of the map.
func (cm *CongestionMap) Stats() CongestionStats {
	n := len(cm.Demand)
	if n == 0 {
		return CongestionStats{}
	}
	sorted := make([]float64, n)
	copy(sorted, cm.Demand)
	sort.Float64s(sorted)
	var s CongestionStats
	sum := 0.0
	for _, v := range sorted {
		sum += v
		if v > 1 {
			s.Overflow += v - 1
		}
	}
	s.Mean = sum / float64(n)
	s.Max = sorted[n-1]
	k := int(math.Ceil(float64(n) * 0.05))
	if k < 1 {
		k = 1
	}
	top := 0.0
	for _, v := range sorted[n-k:] {
		top += v
	}
	s.ACE5 = top / float64(k)
	return s
}
