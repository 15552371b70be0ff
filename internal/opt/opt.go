// Package opt implements the unconstrained nonlinear optimizer driving
// analytical global placement: Polak–Ribière+ conjugate gradients with a
// Barzilai–Borwein initial step and Armijo backtracking line search. The
// objective is supplied as a closure so the placer can fold wirelength,
// density and alignment terms together.
//
// The solver is resilient: it polls an optional context cooperatively (both
// per iteration and per line-search trial) and runs a numerical-health guard
// that detects NaN/Inf objectives or gradients and pathological line-search
// stalls, recovering by rolling back to the best iterate, damping the step
// and restarting with steepest descent. When no fault occurs the iterate
// sequence is bit-identical to the unguarded solver.
package opt

import (
	"context"
	"math"

	"repro/internal/faultinject"
	"repro/internal/pipeline"
)

// maxRecoveries bounds consecutive numerical-health recoveries (NaN/Inf
// rollback, pathological line-search reset) before Minimize gives up and
// reports Diverged.
const maxRecoveries = 3

// Func evaluates an objective at x, fills grad (same length as x) with its
// gradient, and returns the objective value.
type Func func(x, grad []float64) float64

// Options controls Minimize.
type Options struct {
	MaxIter  int     // hard iteration cap; 0 means 100
	GradTol  float64 // stop when ||g||/sqrt(n) < GradTol; 0 means 1e-4
	StepInit float64 // first trial step; 0 means 1
	// Callback, when non-nil, runs after every accepted iterate; returning
	// false stops the optimization early (used for λ-schedule hand-off).
	Callback func(iter int, f, gradNorm float64) bool
	// Ctx, when non-nil, is polled cooperatively at every iteration and
	// every line-search trial; on expiry Minimize stops at the best iterate
	// found so far and sets Result.Stopped.
	Ctx context.Context
	// OnEvent, when non-nil, observes solver health events — rollbacks,
	// line-search resets, CG restarts, divergence. Callback sees only
	// accepted iterates, so without this hook a diverged-then-recovered
	// solve shows up as nothing but a gap in iteration numbers.
	OnEvent func(Event)
	// ValueOnlyProbes makes the Armijo line search call f with a nil
	// gradient slice for trial points, re-evaluating only the accepted
	// iterate with its gradient. The Armijo test reads just the objective, so
	// the iterate sequence is bit-identical either way for any deterministic
	// f; the option exists because objectives with an incremental evaluator
	// (the placement engine) answer value-only probes far cheaper than fused
	// value+gradient ones. FuncEvals counts the extra gradient evaluation.
	ValueOnlyProbes bool
}

// Event kinds reported through Options.OnEvent.
const (
	// EventNaNRollback: a non-finite objective or gradient forced a
	// rollback to the best iterate with step damping.
	EventNaNRollback = "nan-rollback"
	// EventLineSearchReset: the Armijo search hit non-finite trial values
	// (or an injected stall) and was reset from the best iterate.
	EventLineSearchReset = "linesearch-reset"
	// EventCGRestart: the conjugate direction stopped being a descent
	// direction and the search restarted with steepest descent.
	EventCGRestart = "cg-restart"
	// EventDiverged: the health guard exhausted maxRecoveries and gave up.
	EventDiverged = "diverged"
)

// Event describes one solver health event.
type Event struct {
	Kind     string
	Iter     int     // accepted iterations completed when the event fired
	F        float64 // objective at the event (may be non-finite)
	GradNorm float64 // RMS gradient norm at the event (may be non-finite)
	Step     float64 // step scale after any damping
}

// Result reports the optimizer outcome.
type Result struct {
	F          float64 // final objective value
	Iters      int     // accepted iterations
	GradNorm   float64 // final RMS gradient norm
	Converged  bool    // gradient tolerance reached
	FuncEvals  int     // objective evaluations including line search
	Stopped    bool    // context expired before convergence or MaxIter
	Diverged   bool    // health guard exhausted maxRecoveries
	Recoveries int     // rollback/damping events performed by the guard
}

// Minimize runs PR+ nonlinear CG from x, overwriting x with the best iterate
// found.
func Minimize(f Func, x []float64, opt Options) Result {
	n := len(x)
	if n == 0 {
		return Result{Converged: true}
	}
	if opt.MaxIter <= 0 {
		opt.MaxIter = 100
	}
	if opt.GradTol <= 0 {
		opt.GradTol = 1e-4
	}
	if opt.StepInit <= 0 {
		opt.StepInit = 1
	}

	g := make([]float64, n)     // current gradient
	gPrev := make([]float64, n) // previous gradient
	d := make([]float64, n)     // search direction
	xTrial := make([]float64, n)
	gTrial := make([]float64, n)

	// Best finite iterate seen, for rollback and for the returned x.
	bestX := make([]float64, n)
	bestF := math.Inf(1)

	res := Result{}
	fx := f(x, g)
	res.FuncEvals++
	if faultinject.Hit(faultinject.SiteOptNaNGrad) {
		g[0] = math.NaN()
	}
	for i := range d {
		d[i] = -g[i]
	}
	gg := dot(g, g)
	step := opt.StepInit
	if isFinite(fx) && isFinite(gg) {
		bestF = fx
		copy(bestX, x)
	}

	consecutive := 0 // health recoveries since the last accepted step
	sqrtN := math.Sqrt(float64(n))
	for it := 0; it < opt.MaxIter; it++ {
		if pipeline.Expired(opt.Ctx) {
			res.Stopped = true
			break
		}

		// Numerical health: a non-finite objective or gradient would poison
		// the search direction. Roll back to the best iterate (re-evaluating
		// its gradient), damp the step and restart with steepest descent.
		if !isFinite(fx) || !isFinite(gg) {
			if !isFinite(bestF) || consecutive >= maxRecoveries {
				res.Diverged = true
				if opt.OnEvent != nil {
					opt.OnEvent(Event{Kind: EventDiverged, Iter: res.Iters,
						F: fx, GradNorm: math.Sqrt(gg) / sqrtN, Step: step})
				}
				break
			}
			consecutive++
			res.Recoveries++
			copy(x, bestX)
			fx = f(x, g)
			res.FuncEvals++
			if faultinject.Hit(faultinject.SiteOptNaNGrad) {
				g[0] = math.NaN()
			}
			gg = dot(g, g)
			for i := range d {
				d[i] = -g[i]
			}
			step = math.Max(step*0.1, 1e-12)
			if opt.OnEvent != nil {
				opt.OnEvent(Event{Kind: EventNaNRollback, Iter: res.Iters,
					F: fx, GradNorm: math.Sqrt(gg) / sqrtN, Step: step})
			}
			continue
		}

		gnorm := math.Sqrt(gg) / sqrtN
		res.GradNorm = gnorm
		if gnorm < opt.GradTol {
			res.Converged = true
			break
		}

		// Armijo backtracking along d from the adaptive initial step.
		dg := dot(d, g)
		if dg >= 0 {
			// Not a descent direction (CG drift): restart with steepest descent.
			for i := range d {
				d[i] = -g[i]
			}
			dg = -gg
			if opt.OnEvent != nil {
				opt.OnEvent(Event{Kind: EventCGRestart, Iter: res.Iters,
					F: fx, GradNorm: gnorm, Step: step})
			}
		}
		const c1 = 1e-4
		alpha := step
		var fNew float64
		accepted := false
		pathological := false // saw a NaN/Inf trial objective
		stalled := faultinject.Hit(faultinject.SiteOptLineSearchStall)
		for ls := 0; ls < 30; ls++ {
			if pipeline.Expired(opt.Ctx) {
				res.Stopped = true
				break
			}
			for i := range xTrial {
				xTrial[i] = x[i] + alpha*d[i]
			}
			if opt.ValueOnlyProbes {
				fNew = f(xTrial, nil)
			} else {
				fNew = f(xTrial, gTrial)
			}
			res.FuncEvals++
			// Reject non-finite trial objectives outright: an Inf (or a NaN
			// compared against a NaN fx) must never be accepted, even when it
			// formally satisfies the Armijo comparison.
			if !math.IsNaN(fNew) && !math.IsInf(fNew, 0) &&
				fNew <= fx+c1*alpha*dg && !stalled {
				accepted = true
				break
			}
			if math.IsNaN(fNew) || math.IsInf(fNew, 0) {
				pathological = true
			}
			alpha *= 0.5
		}
		if res.Stopped {
			break
		}
		if !accepted {
			if pathological || stalled {
				// The model is returning non-finite values at this scale (or
				// a stall was injected): recover instead of silently stopping
				// at a possibly poor iterate.
				if consecutive >= maxRecoveries {
					res.Diverged = pathological
					if opt.OnEvent != nil && pathological {
						opt.OnEvent(Event{Kind: EventDiverged, Iter: res.Iters,
							F: fx, GradNorm: math.Sqrt(gg) / sqrtN, Step: step})
					}
					break
				}
				consecutive++
				res.Recoveries++
				if bestF < fx {
					copy(x, bestX)
					fx = f(x, g)
					res.FuncEvals++
					gg = dot(g, g)
				}
				for i := range d {
					d[i] = -g[i]
				}
				step = math.Max(step*0.1, 1e-12)
				if opt.OnEvent != nil {
					opt.OnEvent(Event{Kind: EventLineSearchReset, Iter: res.Iters,
						F: fx, GradNorm: math.Sqrt(gg) / sqrtN, Step: step})
				}
				continue
			}
			// Line search failed on a finite landscape: the gradient is either
			// tiny or the model is at convergence scale. Stop with the current
			// iterate, as the unguarded solver did.
			break
		}
		consecutive = 0

		if opt.ValueOnlyProbes {
			// The accepted trial was probed without its gradient; evaluate it
			// now. A deterministic f returns the identical objective, so fNew
			// stands and only gTrial is consumed.
			f(xTrial, gTrial)
			res.FuncEvals++
		}
		copy(gPrev, g)
		copy(g, gTrial)
		copy(x, xTrial)
		fx = fNew
		res.Iters++
		if isFinite(fx) && fx <= bestF {
			bestF = fx
			copy(bestX, x)
		}
		if faultinject.Hit(faultinject.SiteOptNaNGrad) {
			g[0] = math.NaN()
		}

		ggNew := dot(g, g)
		// Polak–Ribière+ with automatic restart.
		gy := ggNew - dot(g, gPrev)
		beta := gy / gg
		if beta < 0 || it%(n+1) == n {
			beta = 0
		}
		for i := range d {
			d[i] = -g[i] + beta*d[i]
		}
		gg = ggNew

		// Barzilai–Borwein-style initial step for the next iteration:
		// grow on easy acceptance, inherit the backtracked scale otherwise.
		// Exact equality is intended: alpha is initialized to step and only
		// changes when backtracking multiplies it, so == detects "the first
		// trial step was accepted", not numerical coincidence.
		//placelint:ignore floateq alpha is a copy of step unless backtracking rescaled it; == detects acceptance exactly
		if alpha == step {
			step = alpha * 2
		} else {
			step = alpha * 1.25
		}

		if opt.Callback != nil && !opt.Callback(res.Iters, fx, math.Sqrt(gg)/sqrtN) {
			break
		}
	}
	// On an abnormal stop, hand back the best iterate rather than whatever
	// the failure left in x.
	if (res.Stopped || res.Diverged) && isFinite(bestF) && (!isFinite(fx) || bestF < fx) {
		copy(x, bestX)
		fx = bestF
	}
	res.F = fx
	res.GradNorm = math.Sqrt(gg) / sqrtN
	return res
}

func isFinite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
