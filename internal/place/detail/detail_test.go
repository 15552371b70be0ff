package detail_test

import (
	"testing"

	"repro/internal/datapath"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place/detail"
	"repro/internal/place/global"
	"repro/internal/place/legal"
)

func legalBench(t *testing.T) (*gen.Benchmark, *netlist.Placement, []global.AlignGroup) {
	t.Helper()
	b := gen.Generate(gen.Config{
		Name: "dt", Seed: 31, Bits: 8,
		Units:       []gen.UnitKind{gen.Adder},
		RandomCells: 250,
		Pads:        12,
	})
	ext := datapath.Extract(b.Netlist, datapath.DefaultOptions())
	groups := global.AlignGroupsFromExtraction(ext)
	pl := b.Placement.Clone()
	if _, err := global.Place(b.Netlist, pl, b.Core, global.Options{
		MaxOuterIters: 16, InnerIters: 30, Groups: groups,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := legal.Legalize(b.Netlist, pl, b.Core, legal.Options{Groups: groups}); err != nil {
		t.Fatal(err)
	}
	return b, pl, groups
}

func lockedFromGroups(n int, groups []global.AlignGroup) []bool {
	locked := make([]bool, n)
	for _, g := range groups {
		for _, col := range g.Cols {
			for _, c := range col {
				locked[c] = true
			}
		}
	}
	return locked
}

func TestImproveReducesHPWLAndStaysLegal(t *testing.T) {
	b, pl, groups := legalBench(t)
	locked := lockedFromGroups(b.Netlist.NumCells(), groups)
	res := detail.Improve(b.Netlist, pl, b.Core, detail.Options{Locked: locked})
	if res.HPWLAfter > res.HPWLBefore+1e-9 {
		t.Errorf("HPWL increased: %.1f -> %.1f", res.HPWLBefore, res.HPWLAfter)
	}
	if res.Moves == 0 {
		t.Error("no improving moves found (implausible on a fresh legalization)")
	}
	if err := pl.CheckLegal(b.Netlist, b.Core); err != nil {
		t.Fatalf("detailed placement broke legality: %v", err)
	}
}

func TestImproveKeepsLockedCellsPut(t *testing.T) {
	b, pl, groups := legalBench(t)
	locked := lockedFromGroups(b.Netlist.NumCells(), groups)
	before := pl.Clone()
	detail.Improve(b.Netlist, pl, b.Core, detail.Options{Locked: locked})
	for i, isLocked := range locked {
		if isLocked && (pl.X[i] != before.X[i] || pl.Y[i] != before.Y[i]) {
			t.Fatalf("locked cell %d moved", i)
		}
	}
}

func TestImproveWithoutLocks(t *testing.T) {
	b, pl, _ := legalBench(t)
	res := detail.Improve(b.Netlist, pl, b.Core, detail.Options{Passes: 1})
	if res.HPWLAfter > res.HPWLBefore+1e-9 {
		t.Errorf("HPWL increased without locks: %.1f -> %.1f", res.HPWLBefore, res.HPWLAfter)
	}
	if err := pl.CheckLegal(b.Netlist, b.Core); err != nil {
		t.Fatalf("not legal: %v", err)
	}
}

func TestImproveFixesObviousSwap(t *testing.T) {
	// Two cells in one row placed in crossing order relative to their
	// anchor pads, with an unconnected cell between them so the row fills
	// one reorder window: window reordering must uncross them.
	nl := netlist.New("x")
	padL := nl.MustAddCell("padL", "PAD", 1, 1, true)
	padR := nl.MustAddCell("padR", "PAD", 1, 1, true)
	a := nl.MustAddCell("a", "STD", 4, 10, false)
	c := nl.MustAddCell("c", "STD", 4, 10, false)
	m := nl.MustAddCell("m", "STD", 4, 10, false)
	nl.MustAddNet("nl", 1,
		netlist.Endpoint{Cell: padL, Pin: "P", Dir: netlist.DirOutput},
		netlist.Endpoint{Cell: a, Pin: "A", Dir: netlist.DirInput},
	)
	nl.MustAddNet("nr", 1,
		netlist.Endpoint{Cell: padR, Pin: "P", Dir: netlist.DirOutput},
		netlist.Endpoint{Cell: c, Pin: "A", Dir: netlist.DirInput},
	)
	core := geom.NewCore(geom.NewRect(0, 0, 100, 20), 10, 1)
	pl := netlist.NewPlacement(nl)
	pl.SetLoc(padL, geom.Point{X: -1, Y: 0})
	pl.SetLoc(padR, geom.Point{X: 100, Y: 0})
	pl.SetLoc(c, geom.Point{X: 40, Y: 0}) // c wants right, sits left
	pl.SetLoc(m, geom.Point{X: 44, Y: 0})
	pl.SetLoc(a, geom.Point{X: 48, Y: 0}) // a wants left, sits right
	res := detail.Improve(nl, pl, core, detail.Options{Passes: 1})
	if res.Moves == 0 || res.HPWLAfter >= res.HPWLBefore {
		t.Fatalf("crossing not fixed: %+v", res)
	}
	if !(pl.X[a] < pl.X[c]) {
		t.Errorf("order not fixed: a=%g c=%g", pl.X[a], pl.X[c])
	}
	if err := pl.CheckLegal(nl, core); err != nil {
		t.Fatal(err)
	}
}

func TestImproveVerticalSwap(t *testing.T) {
	// Same-width cells in adjacent rows, each pulled to the other's row.
	nl := netlist.New("v")
	padB := nl.MustAddCell("padB", "PAD", 1, 1, true)
	padT := nl.MustAddCell("padT", "PAD", 1, 1, true)
	a := nl.MustAddCell("a", "STD", 4, 10, false)
	c := nl.MustAddCell("c", "STD", 4, 10, false)
	nl.MustAddNet("nb", 1,
		netlist.Endpoint{Cell: padB, Pin: "P", Dir: netlist.DirOutput},
		netlist.Endpoint{Cell: a, Pin: "A", Dir: netlist.DirInput},
	)
	nl.MustAddNet("nt", 1,
		netlist.Endpoint{Cell: padT, Pin: "P", Dir: netlist.DirOutput},
		netlist.Endpoint{Cell: c, Pin: "A", Dir: netlist.DirInput},
	)
	core := geom.NewCore(geom.NewRect(0, 0, 100, 20), 10, 1)
	pl := netlist.NewPlacement(nl)
	pl.SetLoc(padB, geom.Point{X: 50, Y: -10})
	pl.SetLoc(padT, geom.Point{X: 50, Y: 20})
	pl.SetLoc(a, geom.Point{X: 50, Y: 10}) // a wants bottom, sits top
	pl.SetLoc(c, geom.Point{X: 50, Y: 0})  // c wants top, sits bottom
	res := detail.Improve(nl, pl, core, detail.Options{Passes: 1})
	if res.Moves == 0 {
		t.Fatalf("vertical swap not found: %+v", res)
	}
	if !(pl.Y[a] == 0 && pl.Y[c] == 10) {
		t.Errorf("swap wrong: a.y=%g c.y=%g", pl.Y[a], pl.Y[c])
	}
	if err := pl.CheckLegal(nl, core); err != nil {
		t.Fatal(err)
	}
}
