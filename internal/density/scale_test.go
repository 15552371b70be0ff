package density

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/netlist"
)

// pinchedProblem clusters every cell into one corner of the grid so the
// density objective is strictly positive — area scaling then has an
// observable effect.
func pinchedProblem(seed int64, nCells int) (*netlist.Netlist, *netlist.Placement, geom.Grid) {
	rng := rand.New(rand.NewSource(seed))
	nl := netlist.New(fmt.Sprintf("pinch%d", seed))
	for i := 0; i < nCells; i++ {
		nl.MustAddCell(fmt.Sprintf("c%d", i), "std", 4+float64(rng.Intn(5))*2, 8, false)
	}
	pl := netlist.NewPlacement(nl)
	for i := range nl.Cells {
		pl.X[i] = rng.Float64() * 50
		pl.Y[i] = rng.Float64() * 50
	}
	return nl, pl, geom.NewGrid(geom.NewRect(0, 0, 200, 200), 24, 24)
}

func centersOf(nl *netlist.Netlist, pl *netlist.Placement) (cx, cy []float64) {
	cx = make([]float64, len(nl.Cells))
	cy = make([]float64, len(nl.Cells))
	for i := range nl.Cells {
		cx[i] = pl.X[i] + nl.Cells[i].W/2
		cy[i] = pl.Y[i] + nl.Cells[i].H/2
	}
	return cx, cy
}

// TestUnitScalesAreNoOp pins the identity contract of the congestion hook:
// an all-1.0 area scale — and a nil reset — produce the bit-identical value
// and gradient of a scale-free potential.
func TestUnitScalesAreNoOp(t *testing.T) {
	nl, pl, grid := pinchedProblem(21, 150)
	cx, cy := centersOf(nl, pl)

	plain := NewPotential(nl, pl, grid, 0.9)
	fP := plain.Value(cx, cy)
	gxP := make([]float64, len(nl.Cells))
	gyP := make([]float64, len(nl.Cells))
	plain.Gradient(gxP, gyP)
	if fP == 0 {
		t.Fatal("pinched placement has zero density value; scaling is unobservable")
	}

	scaled := NewPotential(nl, pl, grid, 0.9)
	ones := make([]float64, len(nl.Cells))
	for i := range ones {
		ones[i] = 1
	}
	scaled.SetAreaScale(ones)
	fS := scaled.Value(cx, cy)
	if fS != fP {
		t.Fatalf("unit scales: Value %v != plain %v", fS, fP)
	}
	gxS := make([]float64, len(nl.Cells))
	gyS := make([]float64, len(nl.Cells))
	scaled.Gradient(gxS, gyS)
	for i := range gxS {
		if gxS[i] != gxP[i] || gyS[i] != gyP[i] {
			t.Fatalf("unit scales: cell %d grad (%v,%v) != plain (%v,%v)",
				i, gxS[i], gyS[i], gxP[i], gyP[i])
		}
	}

	// nil restores the identity.
	scaled.SetAreaScale(nil)
	if f := scaled.Value(cx, cy); f != fP {
		t.Fatalf("nil reset: Value %v != plain %v", f, fP)
	}
}

// TestAreaScaleChangesObjective checks the scale actually enters the kernel:
// doubling every cell's effective area on an overfull placement strictly
// raises the density value at unchanged coordinates.
func TestAreaScaleChangesObjective(t *testing.T) {
	nl, pl, grid := pinchedProblem(22, 150)
	cx, cy := centersOf(nl, pl)
	plain := NewPotential(nl, pl, grid, 0.9)
	fP := plain.Value(cx, cy)

	scaled := NewPotential(nl, pl, grid, 0.9)
	twos := make([]float64, len(nl.Cells))
	for i := range twos {
		twos[i] = 2
	}
	scaled.SetAreaScale(twos)
	if fS := scaled.Value(cx, cy); fS <= fP {
		t.Fatalf("doubled area: Value %v, want > plain %v", fS, fP)
	}
}
