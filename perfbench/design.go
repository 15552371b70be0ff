package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/bookshelf"
	"repro/internal/gen"
	"repro/internal/obs"
)

// workload is one benchmark input and flow. The flow workloads (flat-13k,
// ml-27k) place one generated design in process through core.PlaceCtx; the
// serve workload drives dpplaced over HTTP with a batch of small designs.
type workload struct {
	name string
	why  string

	// Design recipe: gen.Generate with these parameters.
	bits   int
	units  []gen.UnitKind
	random int

	// Flow workloads: the flow's options.
	multilevel bool
	congestion bool
	serial     bool // one worker; otherwise runtime.NumCPU()

	// Serve workload: designs per batch, and the fewest jobs a run
	// completes, so that job_p90_s has ten samples beyond it.
	designs, minJobs int
}

// flowDesignSeed is the generator seed of the flow workloads' circuit. The
// circuit is fixed: global placement on it is chaotic in the input order
// (relabelling the same circuit flips it between a 13- and a 5-iteration
// solve), so a seeded circuit would make flow_s and hpwl bimodal.
const flowDesignSeed = 5

// batchSeed is the generator seed of the serve workload's first design; the
// batch is gen seeds batchSeed..batchSeed+designs-1. The batch is fixed and
// the workload seed permutes the order jobs are submitted in: routed
// overflow varies so much between 367-cell designs (standard deviation
// above the mean) that the sum over a seeded batch of ten spreads by half
// its median from one seed to the next.
const batchSeed = 1

var workloads = []workload{
	{
		name:  "flat-13k",
		why:   "12,893 cells, 6.7% datapath, flat with congestion feedback on all cores: global placement is most of the flow, so kernel, parallel and congestion changes show here",
		bits:  32,
		units: []gen.UnitKind{gen.Adder, gen.RegBank, gen.Shifter, gen.MuxTree}, random: 12000,
		congestion: true,
	},
	{
		name:  "ml-27k",
		why:   "26,893 cells, 3.2% datapath, multilevel on one worker: the serial baseline, the only V-cycle, and detail and evaluation at their largest",
		bits:  32,
		units: []gen.UnitKind{gen.Adder, gen.RegBank, gen.Shifter, gen.MuxTree}, random: 26000,
		multilevel: true, serial: true,
	},
	{
		name:  "serve-small",
		why:   "dpplaced closed loop, one client per core, ten 367-cell 41%-datapath designs: admission, queueing, journal, SSE and artifacts weigh as much as the solve",
		bits:  8,
		units: []gen.UnitKind{gen.Adder, gen.RegBank}, random: 200,
		designs: 10, minJobs: 100,
	},
}

// smallWorkloads are the smoke-mode versions: the same flows on designs
// small enough for a unit test. The multilevel design clears the V-cycle's
// 400-movable-cell floor so coarsening still runs.
var smallWorkloads = map[string]workload{
	"flat-13k":    {bits: 8, units: []gen.UnitKind{gen.Adder, gen.RegBank}, random: 150, congestion: true},
	"ml-27k":      {bits: 8, units: []gen.UnitKind{gen.Adder, gen.RegBank}, random: 600, multilevel: true, serial: true},
	"serve-small": {bits: 8, units: []gen.UnitKind{gen.Adder}, random: 60, designs: 3},
}

// lookupWorkload finds a workload by name; smoke selects its tiny version.
func lookupWorkload(name string, smoke bool) (workload, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		if smoke {
			s := smallWorkloads[name]
			s.name, s.why = w.name, w.why
			return s, nil
		}
		return w, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// workers is the flow's worker count.
func (w workload) workers() int {
	if w.serial {
		return 1
	}
	return runtime.NumCPU()
}

// isServe reports whether w drives the daemon.
func (w workload) isServe() bool { return w.designs > 0 }

// design is one generated design on disk.
type design struct {
	name string
	aux  string // path of the .aux file
}

// writeDesign generates the design of seed and writes it as Bookshelf files
// under dir.
func (w workload) writeDesign(dir, name string, seed int64) (design, error) {
	b := gen.Generate(gen.Config{Name: name, Seed: seed, Bits: w.bits, Units: w.units, RandomCells: w.random})
	d := &bookshelf.Design{Netlist: b.Netlist, Placement: b.Placement, Core: b.Core}
	aux, err := bookshelf.WriteAux(dir, name, d)
	if err != nil {
		return design{}, fmt.Errorf("write %s: %w", name, err)
	}
	return design{name: name, aux: aux}, nil
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 5

// setupFlow writes the flow workload's design setupReps times into dir and
// returns it with the median set-up seconds.
func setupFlow(w workload, dir string) (design, float64, error) {
	var times []float64
	var d design
	for i := 0; i < setupReps; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return design{}, 0, err
		}
		sw := obs.StartStopwatch()
		var err error
		d, err = w.writeDesign(dir, "design", flowDesignSeed)
		if err != nil {
			return design{}, 0, err
		}
		times = append(times, sw.Seconds())
	}
	return d, median(times), nil
}

// writeBatch writes the serve workload's designs into dir.
func writeBatch(w workload, dir string) ([]design, error) {
	ds := make([]design, w.designs)
	for i := range ds {
		d, err := w.writeDesign(filepath.Join(dir, fmt.Sprintf("d%02d", i)), fmt.Sprintf("d%02d", i), batchSeed+int64(i))
		if err != nil {
			return nil, err
		}
		ds[i] = d
	}
	return ds, nil
}
