package main

import (
	"context"
	"fmt"
	"runtime"

	"mthplace/internal/baseline"
	"mthplace/internal/celllib"
	"mthplace/internal/check"
	"mthplace/internal/core"
	"mthplace/internal/flow"
	"mthplace/internal/geom"
	"mthplace/internal/lefdef"
	"mthplace/internal/legalize"
	"mthplace/internal/netlist"
	"mthplace/internal/placer"
	"mthplace/internal/power"
	"mthplace/internal/route"
	"mthplace/internal/rowgrid"
	"mthplace/internal/sta"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
	"mthplace/pkg/mth"
)

var allFlows = []mth.ID{mth.Flow1, mth.Flow2, mth.Flow3, mth.Flow4, mth.Flow5}

// benchConfig is the configuration every flow run uses: the defaults with
// the rap backend pinned (the default milp backend overruns its 12 s
// budget by minutes at paper size), at the workload's scale.
func benchConfig(scale float64) mth.Config {
	cfg := mth.DefaultConfig()
	cfg.Core.Solve.Backend = mth.BackendRAP
	cfg.Synth.Scale = scale
	return cfg
}

// qor is the quality of one flow result, as compared between the facade run
// and the traced composition.
type qor struct {
	Disp, HPWL, RoutedWL int64
	Rung                 string
}

func qorOf(m mth.Metrics) qor {
	return qor{Disp: m.Displacement, HPWL: m.HPWL, RoutedWL: m.RoutedWL, Rung: m.SolveRung}
}

// designRun is one design's untraced run through pkg/mth.
type designRun struct {
	name   string
	setupS []float64 // every NewRunner wall time
	runner *mth.Runner
	times  map[runKey][]float64
	flows  map[mth.ID]mth.Metrics // first unrouted result per flow
	routed *mth.Metrics           // first routed Flow 5 result
}

type runKey struct {
	id     mth.ID
	routed bool
}

// prepare builds spec's runner `setups` times, keeping the last; a failed
// set-up counts every planned flow as failed.
func prepare(ctx context.Context, t *tally, spec mth.Spec, cfg mth.Config, setups int, flows []mth.ID) *designRun {
	dr := &designRun{name: spec.Name(), times: map[runKey][]float64{}, flows: map[mth.ID]mth.Metrics{}}
	for range setups {
		dr.runner = nil
		dt, err := timed(func() (err error) {
			dr.runner, err = mth.NewRunner(ctx, spec, cfg)
			return err
		})
		if err != nil {
			for _, id := range flows {
				t.record(fmt.Sprintf("%s %v", dr.name, id), fmt.Errorf("setup: %w", err))
			}
			return nil
		}
		dr.setupS = append(dr.setupS, dt)
	}
	return dr
}

// run times one Run(id, withRoute) and audits the result with
// Runner.VerifyResult outside the timed region; a warm-up run's time is
// not kept. A repetition must repeat the first result's QoR, and a routed
// Flow 5 must land on the unrouted placement.
func (dr *designRun) run(ctx context.Context, t *tally, id mth.ID, withRoute, warmup bool) {
	var res *mth.Result
	dt, err := timed(func() (err error) {
		res, err = dr.runner.Run(ctx, id, withRoute)
		return err
	})
	what := fmt.Sprintf("%s %v routed=%v", dr.name, id, withRoute)
	if !t.record(what, err) {
		return
	}
	t.audit(what, dr.runner.VerifyResult(res).Err())
	if !warmup {
		k := runKey{id, withRoute}
		dr.times[k] = append(dr.times[k], dt)
	}
	m := res.Metrics
	placed := qorOf(m)
	placed.RoutedWL = 0
	if first, ok := dr.flows[id]; ok {
		t.audit(what, compareQoR(what, placed, qorOf(first), capped(m, first)))
	} else if !withRoute {
		dr.flows[id] = m
	}
	if withRoute {
		if dr.routed == nil {
			dr.routed = &m
		} else {
			t.audit(what, compareQoR(what, qorOf(m), qorOf(*dr.routed), capped(m, *dr.routed)))
		}
	}
}

// placeS is the sum over flows of the median unrouted wall time.
func (dr *designRun) placeS() float64 {
	var sum float64
	for k, ts := range dr.times {
		if !k.routed {
			sum += median(ts)
		}
	}
	return sum
}

// routeS is the median routed minus the median unrouted Flow 5 wall time.
func (dr *designRun) routeS() float64 {
	ts, ok := dr.times[runKey{mth.Flow5, true}]
	if !ok {
		return 0
	}
	return median(ts) - median(dr.times[runKey{mth.Flow5, false}])
}

// runFacade prepares every design, then runs each flow w.reps times
// unrouted and Flow 5 w.routes times routed, after one untimed warm-up
// round each when w.warmup is set. Repetitions go round the designs, so a
// slow moment on the host touches one repetition of many designs rather
// than all repetitions of one; a design's times are the medians.
func runFacade(ctx context.Context, t *tally, specs []mth.Spec, cfg mth.Config, w flowWorkload) []*designRun {
	var runs []*designRun
	for _, spec := range specs {
		if dr := prepare(ctx, t, spec, cfg, w.setups, w.flows); dr != nil {
			runs = append(runs, dr)
		}
	}
	rounds := func(n int, do func(dr *designRun, warm bool)) {
		if w.warmup && n > 0 {
			n++
		}
		for r := range n {
			for _, dr := range runs {
				do(dr, w.warmup && r == 0)
			}
		}
	}
	rounds(w.reps, func(dr *designRun, warm bool) {
		for _, id := range w.flows {
			dr.run(ctx, t, id, false, warm)
		}
	})
	rounds(w.routes, func(dr *designRun, warm bool) { dr.run(ctx, t, mth.Flow5, true, warm) })
	return runs
}

// capped reports whether either result's solve stopped on a budget.
func capped(a, b mth.Metrics) bool {
	stopped := func(m mth.Metrics) bool {
		return m.SolveRung != "" && m.SolveRung != mth.RungILP && m.SolveRung != "baseline"
	}
	return stopped(a) || stopped(b)
}

// solveRec is the provenance of one RAP solve in the traced composition.
type solveRec struct {
	design    string
	flow      mth.ID
	rung      string
	reason    string
	gap       float64
	optimal   bool
	improved  bool
	nodes     int
	iters     int
	seconds   float64
	objective float64
	greedy    float64
	clusters  int
	arcs      int
	model     *core.Model // until compareGreedy has run
}

func (s solveRec) String() string {
	state := "optimal"
	if !s.optimal {
		state = "capped"
	}
	return fmt.Sprintf("solve %s %v: %s rung=%s reason=%q gap=%.4f%% nodes=%d iters=%d solve_s=%.3f obj=%.6g greedy=%.6g improved=%v",
		s.design, s.flow, state, s.rung, s.reason, 100*s.gap, s.nodes, s.iters, s.seconds, s.objective, s.greedy, s.improved)
}

// traced is the per-layer state of a traced run.
type traced struct {
	tr       tracer
	solves   []solveRec
	allocMB  float64 // bytes allocated inside placer.Global, MiB
	overflow int
}

// prepared is the traced equivalent of a flow.Runner: the shared Flow (1)
// starting point every flow clones.
type prepared struct {
	name  string
	base  *netlist.Design
	grid  rowgrid.PairGrid
	ref   []geom.Point
	nminR int
}

// setup prepares spec through the same public calls flow.NewRunner makes
// under the default config, one span per layer call.
func (x *traced) setup(spec synth.Spec, cfg flow.Config) (*prepared, error) {
	p := &prepared{name: spec.Name()}
	err := x.tr.do("flow.setup", func() error {
		tc := tech.Default()
		lib := celllib.New(tc)
		var d *netlist.Design
		if err := x.tr.do("synth.generate", func() (err error) {
			d, err = synth.Generate(tc, lib, spec, cfg.Synth)
			return err
		}); err != nil {
			return err
		}
		var m *lefdef.MLEF
		if err := x.tr.do("lefdef.mlef", func() (err error) {
			m, err = lefdef.ApplyMLEF(d)
			return err
		}); err != nil {
			return err
		}
		before := readGoStats()
		_ = x.tr.do("placer.global", func() error {
			placer.Global(d, cfg.Placer)
			return nil
		})
		x.allocMB += readGoStats().sub(before).allocBytes / (1 << 20)
		g := rowgrid.Uniform(d.Die, m.PairH)
		if err := x.tr.do("legalize.uniform", func() error { return legalize.Uniform(d, g) }); err != nil {
			return err
		}
		p.base, p.grid, p.ref = d, g, d.Positions()
		return x.tr.do("baseline.assign", func() error {
			ba, err := baseline.AssignRows(d, g, cfg.Baseline)
			if err != nil {
				return fmt.Errorf("baseline row assignment: %w", err)
			}
			p.nminR = ba.NminR
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// run executes one flow through the same public calls flow.Runner.Run
// makes, one span per layer call; withRoute adds routing, STA and power.
func (x *traced) run(ctx context.Context, p *prepared, cfg flow.Config, id mth.ID, withRoute bool) (*flow.Result, error) {
	var res *flow.Result
	err := x.tr.do("flow.place", func() (err error) {
		res, err = x.place(ctx, p, cfg, id)
		return err
	})
	if err != nil || !withRoute {
		return res, err
	}
	err = x.tr.do("flow.route", func() error { return x.route(res, cfg) })
	return res, err
}

func (x *traced) place(ctx context.Context, p *prepared, cfg flow.Config, id mth.ID) (*flow.Result, error) {
	d := p.base.Clone()
	met := flow.Metrics{Flow: id}
	if id == mth.Flow1 {
		met.HPWL = d.TotalHPWL()
		return &flow.Result{Design: d, Metrics: met}, nil
	}
	var stack *rowgrid.MixedStack
	var seedY map[int32]int64
	var cellPair map[int32]int
	if id.UsesILP() {
		var cl *core.Clusters
		var model *core.Model
		var sol *core.Assignment
		var ra *core.RowAssignment
		if err := x.tr.do("core.clusters", func() (err error) {
			cl, err = core.BuildClusters(ctx, d, cfg.Core.S, cfg.Core.KMeansIters)
			return err
		}); err != nil {
			return nil, err
		}
		if err := x.tr.do("core.model", func() (err error) {
			model, err = core.BuildModel(ctx, d, p.grid, cl, p.nminR, cfg.Core.Cost)
			return err
		}); err != nil {
			return nil, err
		}
		start := len(x.tr.spans)
		if err := x.tr.do("core.solve", func() (err error) {
			sol, err = core.Solve(ctx, model, cfg.Core.Solve)
			return err
		}); err != nil {
			return nil, err
		}
		x.recordSolve(p.name, id, model, sol, x.tr.spans[start].Dur.Seconds())
		if err := x.tr.do("core.finalize", func() (err error) {
			ra, err = core.Finalize(d, p.grid, model, cl, sol)
			return err
		}); err != nil {
			return nil, err
		}
		met.SolveRung, met.SolveGap = sol.Stats.Rung, sol.Stats.Gap
		stack, seedY, cellPair = ra.Stack, ra.SeedY, ra.CellPair
	} else {
		if err := x.tr.do("baseline.assign", func() error {
			ba, err := baseline.AssignRows(d, p.grid, cfg.Baseline)
			if err != nil {
				return fmt.Errorf("baseline assignment: %w", err)
			}
			stack, seedY, cellPair = ba.Stack, ba.SeedY, ba.CellPair
			return nil
		}); err != nil {
			return nil, err
		}
		met.SolveRung = "baseline"
	}
	if err := x.tr.do("lefdef.mlef", func() error { return lefdef.Revert(d) }); err != nil {
		return nil, err
	}
	var err error
	if id.UsesFenceLegalization() {
		err = x.tr.do("legalize.fence", func() error {
			return legalize.FenceAware(ctx, d, stack, seedY, cfg.FencePasses)
		})
	} else {
		err = x.tr.do("legalize.rowcon", func() error {
			for i, y := range seedY {
				if !d.Insts[i].Fixed {
					d.Insts[i].Pos.Y = y
				}
			}
			return legalize.RowConstraintAssigned(ctx, d, stack, cellPair)
		})
	}
	if err != nil {
		return nil, err
	}
	if err := x.tr.do("legalize.verify", func() error { return legalize.VerifyMixed(d, stack) }); err != nil {
		return nil, fmt.Errorf("%v produced illegal placement: %w", id, err)
	}
	met.Displacement = d.Displacement(p.ref)
	met.HPWL = d.TotalHPWL()
	return &flow.Result{Design: d, Stack: stack, Metrics: met}, nil
}

// recordSolve keeps the solve's provenance. Whether it beat the greedy
// answer on the same model is decided later by compareGreedy, outside
// every span.
func (x *traced) recordSolve(design string, id mth.ID, m *core.Model, sol *core.Assignment, seconds float64) {
	rec := solveRec{model: m,
		design: design, flow: id,
		rung: sol.Stats.Rung, reason: sol.Stats.DegradeReason, gap: sol.Stats.Gap,
		optimal: sol.Stats.Optimal, nodes: sol.Stats.Nodes, iters: sol.Stats.LPIters,
		seconds: seconds, objective: sol.Objective, clusters: m.Clusters.N(),
	}
	for _, row := range m.Cost {
		rec.arcs += len(row)
	}
	x.solves = append(x.solves, rec)
}

// compareGreedy solves every pending model greedily and records whether
// the RAP solve improved on that answer, then drops the model.
func (x *traced) compareGreedy() {
	for i := range x.solves {
		s := &x.solves[i]
		if s.model == nil {
			continue
		}
		if g, err := core.SolveGreedy(s.model); err == nil {
			s.greedy = g.Objective
			s.improved = s.objective < g.Objective-1e-9*max(1, g.Objective)
		}
		s.model = nil
	}
}

func (x *traced) route(res *flow.Result, cfg flow.Config) error {
	var rt *route.Result
	if err := x.tr.do("route.route", func() (err error) {
		rt, err = route.Route(res.Design, cfg.Route)
		return err
	}); err != nil {
		return err
	}
	var timing *sta.Result
	if err := x.tr.do("sta.analyze", func() (err error) {
		opt := cfg.STA
		opt.NetLength = rt.NetLength
		timing, err = sta.Analyze(res.Design, opt)
		return err
	}); err != nil {
		return err
	}
	var pwr *power.Result
	if err := x.tr.do("power.analyze", func() (err error) {
		opt := cfg.Power
		opt.NetLength = rt.NetLength
		pwr, err = power.Analyze(res.Design, opt)
		return err
	}); err != nil {
		return err
	}
	x.overflow += rt.Overflow
	m := &res.Metrics
	m.Routed, m.RoutedWL, m.Overflow = true, rt.WirelengthDBU, rt.Overflow
	m.WNSps, m.TNSps, m.PowerMW = timing.WNSps, timing.TNSps, pwr.TotalMW()
	return nil
}

// audit runs the same invariant checks as flow.Runner.VerifyResult.
func (x *traced) audit(p *prepared, res *flow.Result) error {
	var rep *check.Report
	_ = x.tr.do("check.audit", func() error {
		rep = check.Netlist(res.Design)
		if res.Stack != nil {
			rep.Merge(check.Placement(res.Design, res.Stack))
			rep.Merge(check.Fences(res.Design, res.Stack))
		} else {
			rep.Merge(check.PlacementUniform(res.Design, p.grid))
		}
		rep.Merge(check.Metrics(res.Design, p.ref, res.Metrics.Displacement, res.Metrics.HPWL))
		return nil
	})
	return rep.Err()
}

// compareQoR checks that two runs of one flow gave the same QoR. A solve
// stopped by its time budget may end on a different incumbent in two runs,
// so a mismatch is only an error when both solves proved their optimum.
func compareQoR(what string, got, want qor, capped bool) error {
	if got == want {
		return nil
	}
	if capped {
		fmt.Printf("NOTE %s: budget-capped solves differ (%+v, %+v); not compared\n", what, got, want)
		return nil
	}
	return fmt.Errorf("QoR differs between two runs of the same flow: %+v, %+v", got, want)
}

// runDesign runs every flow of one design through the traced composition
// and audits each result; routedFlow, when nonzero, is also routed.
func (x *traced) runDesign(ctx context.Context, t *tally, spec synth.Spec, cfg flow.Config, flows []mth.ID, routedFlow mth.ID) (*prepared, map[mth.ID]*flow.Result) {
	out := map[mth.ID]*flow.Result{}
	p, err := x.setup(spec, cfg)
	if err != nil {
		for _, id := range flows {
			t.record(fmt.Sprintf("traced %s %v", spec.Name(), id), fmt.Errorf("setup: %w", err))
		}
		return nil, out
	}
	for _, id := range flows {
		what := fmt.Sprintf("traced %s %v", spec.Name(), id)
		res, err := x.run(ctx, p, cfg, id, id == routedFlow)
		x.compareGreedy()
		if !t.record(what, err) {
			continue
		}
		t.audit(what, x.audit(p, res))
		out[id] = res
	}
	runtime.GC()
	return p, out
}
