package route

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/netlist"
)

// goldenRoute globally routes a fixed generated design whose movable cells
// are scattered over the core by a seeded generator. The pitch leaves about
// a fifth of the edges overflowed, so both the uncongested tie-breaks and
// rip-up-and-reroute decide the result.
func goldenRoute() *GRouteResult {
	b := gen.Generate(gen.Config{
		Name: "grgold", Seed: 3, Bits: 8,
		Units: []gen.UnitKind{gen.Adder, gen.RegBank}, RandomCells: 300,
	})
	nl, pl, core := b.Netlist, b.Placement, b.Core.Region
	rng := rand.New(rand.NewSource(11))
	for i := range nl.Cells {
		if nl.Cells[i].Fixed {
			continue
		}
		pl.SetLoc(netlist.CellID(i), geom.Point{
			X: core.Lo.X + rng.Float64()*(core.W()-nl.Cells[i].W),
			Y: core.Lo.Y + rng.Float64()*(core.H()-nl.Cells[i].H),
		})
	}
	return GlobalRoute(nl, pl, core, GRouteOptions{NX: 24, NY: 24, WirePitch: 0.2})
}

// binOverflowHash is the FNV-64a hash of the bit patterns of v, so a golden
// pins every bin exactly without listing them.
func binOverflowHash(v []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGlobalRouteGolden pins the router's results on a fixed design to the
// values the path-building candidate scorer produced, so scoring changes
// must keep every candidate's cost and the strict-< tie-break exact.
func TestGlobalRouteGolden(t *testing.T) {
	r := goldenRoute()
	if r.Overflow != 80.90625000000009 || r.MaxUsage != 1.1622276029055691 ||
		r.WirelengthDB != 81064.66666666752 || r.OverflowEdges != 207 || r.OverflowBins != 242 {
		t.Fatalf("Overflow %v MaxUsage %v WirelengthDB %v OverflowEdges %d OverflowBins %d, "+
			"want 80.90625000000009 1.1622276029055691 81064.66666666752 207 242",
			r.Overflow, r.MaxUsage, r.WirelengthDB, r.OverflowEdges, r.OverflowBins)
	}
	if h := binOverflowHash(r.BinOverflow); h != 0xdb809cfe09151d1b {
		t.Fatalf("BinOverflow hash %#x, want 0xdb809cfe09151d1b", h)
	}
}

// TestRouteAllocatesOnlyTheWinner checks that candidate scoring is
// allocation-free: routing a segment allocates once, for the chosen path.
func TestRouteAllocatesOnlyTheWinner(t *testing.T) {
	const n = 16
	r := &grouter{grid: geom.NewGrid(geom.NewRect(0, 0, 160, 160), n, n)}
	r.hUse = make([]float64, (n-1)*n)
	r.vUse = make([]float64, n*(n-1))
	r.hCap, r.vCap = 3, 3
	for i := range r.hUse {
		r.hUse[i] = float64(i % 5)
	}
	for i := range r.vUse {
		r.vUse[i] = float64(i % 4)
	}
	segs := [][2][2]int{{{0, 0}, {15, 15}}, {{3, 9}, {12, 2}}, {{7, 7}, {7, 1}}, {{2, 5}, {14, 5}}}
	allocs := testing.AllocsPerRun(50, func() {
		for _, s := range segs {
			r.route(s[0], s[1])
		}
	})
	if allocs != float64(len(segs)) {
		t.Fatalf("routing %d segments allocated %v times, want one per segment", len(segs), allocs)
	}
}
