package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/density"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/route"
	"repro/internal/wirelength"
)

// replaySeconds is how long each kernel replay repeats its kernel.
const replaySeconds = 0.3

// kernelStats accumulates kernel replay timings; a batch of designs sums.
type kernelStats struct {
	designs              int
	gamma                float64 // summed over designs
	pins                 int
	valueNs, gradNs      float64 // per pass over every net, both axes
	densW1, densWN       float64 // wall ms per Value+Gradient
	densCPUW1, densCPUWN float64 // CPU ms per Value+Gradient
}

// gridDim is the density grid global placement derives for nl.
func gridDim(nl *netlist.Netlist) int {
	dim := int(math.Sqrt(float64(nl.NumMovable())/3)) + 8
	return max(16, min(128, dim))
}

// replayKernels times the wirelength and density kernels at the placement
// pl, as global placement calls them, and checks that 1 and workers workers
// give bit-identical values and gradients. γ is fixed at the schedule's
// final value, half the larger bin side.
func replayKernels(nl *netlist.Netlist, pl *netlist.Placement, chip *geom.Core, workers int, ks *kernelStats) error {
	dim := gridDim(nl)
	grid := geom.NewGrid(chip.Region, dim, dim)
	gamma := 0.5 * math.Max(grid.BinW, grid.BinH)
	ks.designs++
	ks.gamma += gamma

	csr := newPinCSR(nl, pl)
	ks.pins += len(csr.xs)
	p1, pN := par.New(1), par.New(workers)
	v1, g1 := csr.eval(p1, gamma)
	vN, gN := csr.eval(pN, gamma)
	if err := sameBits("wirelength value", []float64{v1}, []float64{vN}); err != nil {
		return err
	}
	if err := sameBits("wirelength gradient", g1, gN); err != nil {
		return err
	}
	wall, _ := timePerCall(func() { csr.value(p1, gamma) })
	ks.valueNs += wall * 1e9
	wall, _ = timePerCall(func() { csr.grad(p1, gamma) })
	ks.gradNs += wall * 1e9

	d1 := newDensityReplay(nl, pl, grid, p1)
	dN := newDensityReplay(nl, pl, grid, pN)
	if err := sameBits("density value", []float64{d1.eval()}, []float64{dN.eval()}); err != nil {
		return err
	}
	if err := sameBits("density gradient", append(d1.gx, d1.gy...), append(dN.gx, dN.gy...)); err != nil {
		return err
	}
	wall, cpu := timePerCall(func() { d1.eval() })
	ks.densW1 += wall * 1e3
	ks.densCPUW1 += cpu * 1e3
	wall, cpu = timePerCall(func() { dN.eval() })
	ks.densWN += wall * 1e3
	ks.densCPUWN += cpu * 1e3
	return nil
}

// densityReplay evaluates a density potential at fixed cell centers.
type densityReplay struct {
	pot            *density.Potential
	cx, cy, gx, gy []float64
}

// newDensityReplay builds the potential global placement would build for
// grid (target density 0.9), evaluated on pool.
func newDensityReplay(nl *netlist.Netlist, pl *netlist.Placement, grid geom.Grid, pool *par.Pool) *densityReplay {
	n := nl.NumCells()
	d := &densityReplay{
		pot: density.NewPotential(nl, pl, grid, 0.9),
		cx:  make([]float64, n), cy: make([]float64, n),
		gx: make([]float64, n), gy: make([]float64, n),
	}
	d.pot.SetParallel(pool, context.Background())
	for i := range nl.Cells {
		d.cx[i] = pl.X[i] + nl.Cells[i].W/2
		d.cy[i] = pl.Y[i] + nl.Cells[i].H/2
	}
	return d
}

// eval runs one Value and Gradient pass, the density half of an objective
// evaluation, leaving the gradient in gx and gy.
func (d *densityReplay) eval() float64 {
	clear(d.gx)
	clear(d.gy)
	v := d.pot.Value(d.cx, d.cy)
	d.pot.Gradient(d.gx, d.gy)
	return v
}

// metrics sets the kernel metrics from the accumulated stats.
func (ks *kernelStats) metrics(m metricSet) {
	m["wirelength.gamma"] = ks.gamma / float64(ks.designs)
	m["wirelength.value_ns_per_pin"] = ks.valueNs / float64(ks.pins)
	m["wirelength.grad_ns_per_pin"] = ks.gradNs / float64(ks.pins)
	m["density.eval_ms.w1"] = ks.densW1
	m["density.eval_ms.wN"] = ks.densWN
	m["density.eval_cpu_ms.w1"] = ks.densCPUW1
	m["density.eval_cpu_ms.wN"] = ks.densCPUWN
}

// timePerCall repeats fn for replaySeconds (at least three times) and
// returns the median wall seconds of one call and the mean process CPU
// seconds per call.
func timePerCall(fn func()) (wall, cpu float64) {
	var ts []float64
	cpu0 := selfUsage().cpu
	total := obs.StartStopwatch()
	for len(ts) < 3 || total.Seconds() < replaySeconds {
		sw := obs.StartStopwatch()
		fn()
		ts = append(ts, sw.Seconds())
	}
	return median(ts), (selfUsage().cpu - cpu0) / float64(len(ts))
}

// sameBits compares two float slices bit for bit: a at one worker against
// b at many, or a replay against a report.
func sameBits(what string, a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("%s: %d values against %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("%s: element %d is %v against %v", what, i, a[i], b[i])
		}
	}
	return nil
}

// pinCSR is the netlist's pins in CSR-by-net layout at a fixed placement,
// with the kernels' scratch: the layout global placement evaluates.
type pinCSR struct {
	off          []int
	xs, ys       []float64
	epx, enx     []float64
	epy, eny     []float64
	stX, stY     []wirelength.AxisState
	netVal       []float64
	pinGX, pinGY []float64
}

// newPinCSR gathers pin coordinates (cell corner plus pin offset, pads at
// their offsets) for every net.
func newPinCSR(nl *netlist.Netlist, pl *netlist.Placement) *pinCSR {
	c := &pinCSR{off: make([]int, len(nl.Nets)+1)}
	for ni := range nl.Nets {
		for _, pid := range nl.Nets[ni].Pins {
			pin := nl.Pin(pid)
			x, y := pin.DX, pin.DY
			if pin.Cell != netlist.NoCell {
				x += pl.X[pin.Cell]
				y += pl.Y[pin.Cell]
			}
			c.xs = append(c.xs, x)
			c.ys = append(c.ys, y)
		}
		c.off[ni+1] = len(c.xs)
	}
	n := len(c.xs)
	c.epx, c.enx = make([]float64, n), make([]float64, n)
	c.epy, c.eny = make([]float64, n), make([]float64, n)
	c.pinGX, c.pinGY = make([]float64, n), make([]float64, n)
	c.stX = make([]wirelength.AxisState, len(nl.Nets))
	c.stY = make([]wirelength.AxisState, len(nl.Nets))
	c.netVal = make([]float64, len(nl.Nets))
	return c
}

// value runs WAValueAxis on both axes of every net with at least two pins.
func (c *pinCSR) value(pool *par.Pool, gamma float64) {
	pool.Run(context.Background(), len(c.netVal), 32, func(lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			a, b := c.off[ni], c.off[ni+1]
			if b-a < 2 {
				continue
			}
			sx, wx := wirelength.WAValueAxis(c.xs[a:b], c.epx[a:b], c.enx[a:b], gamma)
			sy, wy := wirelength.WAValueAxis(c.ys[a:b], c.epy[a:b], c.eny[a:b], gamma)
			c.stX[ni], c.stY[ni] = sx, sy
			c.netVal[ni] = wx + wy
		}
	})
}

// grad runs WAGradAxis on both axes from the last value pass.
func (c *pinCSR) grad(pool *par.Pool, gamma float64) {
	pool.Run(context.Background(), len(c.netVal), 32, func(lo, hi int) {
		for ni := lo; ni < hi; ni++ {
			a, b := c.off[ni], c.off[ni+1]
			if b-a < 2 {
				continue
			}
			wirelength.WAGradAxis(c.xs[a:b], c.epx[a:b], c.enx[a:b], c.stX[ni], gamma, c.pinGX[a:b])
			wirelength.WAGradAxis(c.ys[a:b], c.epy[a:b], c.eny[a:b], c.stY[ni], gamma, c.pinGY[a:b])
		}
	})
}

// eval runs a value and a gradient pass and returns the total value, summed
// in net order, and the per-pin gradients.
func (c *pinCSR) eval(pool *par.Pool, gamma float64) (float64, []float64) {
	c.value(pool, gamma)
	c.grad(pool, gamma)
	total := 0.0
	for _, v := range c.netVal {
		total += v
	}
	return total, append(append([]float64(nil), c.pinGX...), c.pinGY...)
}

// routeReplay times the three estimators metrics.Evaluate calls, each on its
// own with Evaluate's settings, and checks they reproduce the report.
func routeReplay(nl *netlist.Netlist, pl *netlist.Placement, chip *geom.Core, workers int, rep metrics.Report, m metricSet) error {
	const dim = 32 // metrics.Options defaults
	pool := par.New(workers)
	ctx := context.Background()
	grid := geom.NewGrid(chip.Region, dim, dim)

	sw := obs.StartStopwatch()
	gr := route.GlobalRoute(nl, pl, chip.Region, route.GRouteOptions{NX: dim, NY: dim, WirePitch: 1, CapacityFactor: 0.8})
	m["route.groute_s"] += sw.Seconds()

	sw = obs.StartStopwatch()
	route.RUDYPool(ctx, pool, nl, pl, grid, route.RUDYOptions{WireWidth: 1, Capacity: 0.15})
	m["route.rudy_s"] += sw.Seconds()

	sw = obs.StartStopwatch()
	st := route.SteinerWLPool(ctx, pool, nl, pl)
	m["route.steiner_s"] += sw.Seconds()

	if err := sameBits("routed overflow", []float64{gr.Overflow}, []float64{rep.Routed.Overflow}); err != nil {
		return err
	}
	return sameBits("Steiner wirelength", []float64{st}, []float64{rep.SteinerWL})
}
