package core

import "repro/internal/obs"

// RunReport builds the dpplace-run-report/v1 document for this result: the
// one place both dpplace -report and the dpplaced job artifact assemble it.
// design and mode label the run; exit is the machine-readable exit class
// (pipeline.Classify of the run error, or a caller override such as
// "interrupted"); rec supplies the collected counters and λ-schedule
// trajectory (nil leaves both empty). Callers attach what only they have —
// the evaluation report (Metrics), a daemon's MetricsSnapshot — before
// writing it.
func (r *Result) RunReport(design string, mode Mode, exit string, rec *obs.Recorder) *obs.RunReport {
	out := &obs.RunReport{
		Design:  design,
		Mode:    mode.String(),
		Exit:    exit,
		Partial: r.Partial,
		Workers: r.GlobalResult.Workers,
		HPWL: obs.HPWLSummary{
			Global: r.HPWLGlobal,
			Legal:  r.HPWLLegal,
			Final:  r.HPWLFinal,
		},
		StageSeconds: map[string]float64{
			"extract":  r.Times.Extract.Seconds(),
			"global":   r.Times.Global.Seconds(),
			"legalize": r.Times.Legalize.Seconds(),
			"detail":   r.Times.Detail.Seconds(),
		},
		Counters:   rec.Counters(),
		Trajectory: rec.Trajectory(),
	}
	if r.Multilevel != nil {
		out.Levels = r.Multilevel.Levels
		out.ClusterRatio = r.Multilevel.ClusterRatio
	}
	if c := r.GlobalResult.Congestion; c != nil {
		out.Congestion = c.Report()
	}
	for _, deg := range r.Degradations {
		out.Degradations = append(out.Degradations, obs.DegradeEntry{
			Stage: deg.Stage, Group: deg.Group, Reason: deg.Reason,
		})
	}
	return out
}
