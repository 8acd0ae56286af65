package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"mthplace/internal/synth"
	"mthplace/pkg/mth"
)

// flowWorkload runs a set of designs through the placement flows. The
// designs are the paper's instances at the default generator seed; the
// workload seed only orders them. Re-generating them per seed would
// measure the instances rather than the program: between generator seeds
// 1 and 2, nova_300 at scale 1.0 moves 14% in displacement and 16% in
// set-up time, and at other seeds a few of the sweep's exact solves run
// into the 12 s budget (README.md).
type flowWorkload struct {
	specs func() []mth.Spec
	scale float64
	flows []mth.ID
	// setups is how many times each design is prepared, reps how many
	// times each flow runs unrouted, and routes how many times Flow 5 runs
	// routed, with STA and power (0: never); a design's times are the
	// medians.
	setups, reps, routes int
	// warmup adds an untimed first round of flows and of routed flows:
	// a design's first run pays for page faults and heap growth that the
	// later ones do not (up to 30% of a routed Flow 5 at 0.05 scale).
	warmup bool
}

// novaWorkload is the paper's own size: nova_300 at scale 1.0, Flow 5
// only, not routed (the router's ~0.5 ms per cell would swamp the run).
var novaWorkload = flowWorkload{
	specs:  func() []mth.Spec { s, _ := mth.FindSpec("nova_300"); return []mth.Spec{s} },
	scale:  1.0,
	flows:  []mth.ID{mth.Flow5},
	setups: 3,
	reps:   1,
}

// sweepWorkload is the paper's Fig. 4 set at a scale where every solve
// proves optimal: all five flows per design, Flow 5 also routed.
var sweepWorkload = flowWorkload{
	specs:  synth.ParameterSweepSpecs,
	scale:  0.05,
	flows:  allFlows,
	setups: 3,
	reps:   5,
	routes: 3,
	warmup: true,
}

// flowSums accumulates the end-to-end values of flow results.
type flowSums struct {
	setupS, placeS, routeS float64
	ops                    int
	disp, hpwl, wl         int64
	tnsNS                  float64
	gaps                   []float64
}

func (s *flowSums) addDesign(dr *designRun) {
	if dr == nil {
		return
	}
	fmt.Printf("design %-10s setup_s=%.4f place_s=%.4f route_s=%.4f\n", dr.name, median(dr.setupS), dr.placeS(), dr.routeS())
	s.setupS += median(dr.setupS)
	s.placeS += dr.placeS()
	s.routeS += dr.routeS()
	for id, m := range dr.flows {
		s.addFlow(id, m)
	}
	if dr.routed != nil {
		s.ops++
		s.wl += dr.routed.RoutedWL
		s.tnsNS += dr.routed.TNSps / 1000
	}
}

func (s *flowSums) addFlow(id mth.ID, m mth.Metrics) {
	s.ops++
	s.disp += m.Displacement
	s.hpwl += m.HPWL
	if id.UsesILP() {
		s.gaps = append(s.gaps, m.SolveGap)
	}
}

// values renders the sums as the end-to-end metrics. A solve with an
// unknown gap (the greedy rung) counts as a 100% gap.
func (s *flowSums) values() map[string]float64 {
	gap := 0.0
	for _, g := range s.gaps {
		if g < 0 {
			g = 1
		}
		gap += 100 * g
	}
	if len(s.gaps) > 0 {
		gap /= float64(len(s.gaps))
	}
	v := map[string]float64{
		"setup_s":         s.setupS,
		"place_s":         s.placeS,
		"ops_per_s":       float64(s.ops) / (s.placeS + s.routeS),
		"solve_bound_pct": 100 - gap,
		"solve_gap_pct":   gap,
		"disp_dbu":        float64(s.disp),
		"hpwl_dbu":        float64(s.hpwl),
		"peak_rss_mb":     peakRSSMB(),
		"heap_live_mb":    maxLiveMB,
	}
	if s.wl > 0 {
		v["route_s"] = s.routeS
		v["routed_wl_dbu"] = float64(s.wl)
		v["tns_ns"] = s.tnsNS
	}
	return v
}

// inputs returns the workload's designs, in seed order, and its config.
func (w flowWorkload) inputs(seed int64) ([]mth.Spec, mth.Config) {
	specs := w.specs()
	rng := rand.New(rand.NewPCG(uint64(seed), 0xde5))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs, benchConfig(w.scale)
}

// plain is the untraced run through pkg/mth: the end-to-end metrics.
func (w flowWorkload) plain(ctx context.Context, t *tally, seed int64, _ float64) map[string]float64 {
	specs, cfg := w.inputs(seed)
	var sums flowSums
	for _, dr := range runFacade(ctx, t, specs, cfg, w) {
		sums.addDesign(dr)
	}
	return sums.values()
}

// traced runs each design through the traced composition, then once
// through pkg/mth, asserts the two agree, and reports per-layer metrics
// plus the tracing overhead (traced minus untraced end-to-end values).
func (w flowWorkload) traced(ctx context.Context, t *tally, seed int64, _ float64) map[string]float64 {
	specs, cfg := w.inputs(seed)
	x := &traced{}
	var plain, tracedSums flowSums
	var gs goStats
	routedFlow := mth.ID(0)
	if w.routes > 0 {
		routedFlow = mth.Flow5
	}
	for _, spec := range specs {
		g0 := readGoStats()
		p, res := x.runDesign(ctx, t, spec, cfg, w.flows, routedFlow)
		d := readGoStats().sub(g0)
		gs.allocBytes += d.allocBytes
		gs.gcCPUSec += d.gcCPUSec
		once := w
		once.setups, once.reps, once.routes = 1, 1, min(w.routes, 1)
		drs := runFacade(ctx, t, []mth.Spec{spec}, cfg, once)
		if p == nil || len(drs) == 0 {
			continue
		}
		dr := drs[0]
		plain.addDesign(dr)
		if p.nminR != dr.runner.NminR || p.base.TotalHPWL() != dr.runner.Base.TotalHPWL() {
			t.audit(spec.Name()+" setup", fmt.Errorf("traced setup (N_minR %d, HPWL %d) differs from pkg/mth (N_minR %d, HPWL %d)",
				p.nminR, p.base.TotalHPWL(), dr.runner.NminR, dr.runner.Base.TotalHPWL()))
		}
		for id, r := range res {
			tracedSums.addFlow(id, r.Metrics)
			want, ok := dr.flows[id]
			if !ok {
				continue
			}
			if id == routedFlow && dr.routed != nil {
				want.RoutedWL = dr.routed.RoutedWL
				tracedSums.ops++
			}
			what := fmt.Sprintf("%s %v", spec.Name(), id)
			t.audit(what, compareQoR(what, qorOf(r.Metrics), qorOf(want), capped(r.Metrics, want)))
		}
		runtime.GC()
	}
	for _, s := range x.solves {
		fmt.Println(s)
	}
	x.tr.print()

	tracedSums.setupS = x.tr.seconds("flow.setup")
	tracedSums.placeS = x.tr.seconds("flow.place")
	tracedSums.routeS = x.tr.seconds("flow.route")
	tv, pv := tracedSums.values(), plain.values()
	v := map[string]float64{
		"placer.alloc_mb":    x.allocMB,
		"route.overflow":     float64(x.overflow),
		"go.alloc_mb":        gs.allocBytes / (1 << 20),
		"go.gc_cpu_s":        gs.gcCPUSec,
		"overhead.setup_s":   tv["setup_s"] - pv["setup_s"],
		"overhead.place_s":   tv["place_s"] - pv["place_s"],
		"overhead.ops_per_s": tv["ops_per_s"] - pv["ops_per_s"],
	}
	for _, l := range []string{
		"synth.generate", "lefdef.mlef", "placer.global", "legalize.uniform", "legalize.fence",
		"legalize.rowcon", "legalize.verify", "baseline.assign", "core.clusters", "core.model",
		"core.solve", "core.finalize", "route.route", "sta.analyze", "power.analyze", "check.audit",
	} {
		v[l+"_s"] = x.tr.seconds(l)
	}
	var solveS float64
	var optimal, capped, improved int
	for _, s := range x.solves {
		v["core.clusters_n"] += float64(s.clusters)
		v["core.model_arcs"] += float64(s.arcs)
		v["rap.nodes"] += float64(s.nodes)
		v["rap.subgrad_iters"] += float64(s.iters)
		solveS += s.seconds
		if s.optimal {
			optimal++
		} else {
			capped++
		}
		if s.improved {
			improved++
		}
	}
	if n := float64(len(x.solves)); n > 0 {
		v["rap.iters_per_s"] = v["rap.subgrad_iters"] / solveS
		v["solve.optimal_frac"] = float64(optimal) / n
		v["solve.capped_frac"] = float64(capped) / n
		v["solve.improved_frac"] = float64(improved) / n
	}
	return v
}

// servicePlain is service_mix's untraced run: the end-to-end metrics.
func servicePlain(ctx context.Context, t *tally, seed int64, seconds float64) map[string]float64 {
	return serviceValues(runService(ctx, t, seed, seconds, false))
}

// serviceValues aggregates the passes: set-up and throughput as medians
// over passes, placement time as the sum over executed requests of each
// one's median over passes, latency over every measured job, and QoR over
// the first pass's batch (every pass returns the same results).
func serviceValues(passes []*svcPass) map[string]float64 {
	if len(passes) == 0 {
		return map[string]float64{"peak_rss_mb": peakRSSMB()}
	}
	var setups, rates, lat, live []float64
	// perReq collects each executed request's placement time, one sample
	// per pass.
	perReq := map[int][]float64{}
	for i, p := range passes {
		setups = append(setups, p.setupS)
		live = append(live, p.liveMB)
		var place time.Duration
		jobs := 0
		for j, o := range p.batch {
			if o.err != nil {
				continue
			}
			jobs++
			lat = append(lat, o.latMS)
			if m, ok := metrics5(o); ok && !o.res.CacheHit {
				place += m.TotalTime
				perReq[j] = append(perReq[j], m.TotalTime.Seconds())
			}
		}
		rates = append(rates, float64(jobs)/p.wallS)
		fmt.Printf("pass %d: setup_s=%.4f place_s=%.4f jobs=%d wall_s=%.4f jobs_per_s=%.3f\n",
			i, p.setupS, place.Seconds(), jobs, p.wallS, rates[i])
	}
	var placeS float64
	for _, ts := range perReq {
		placeS += median(ts)
	}
	var disp, hpwl int64
	var bound float64
	var n int
	for _, o := range passes[0].batch {
		if m, ok := metrics5(o); ok {
			disp += m.Displacement
			hpwl += m.HPWL
			g := m.SolveGap
			if g < 0 {
				g = 1
			}
			bound += 100 * (1 - g)
			n++
		}
	}
	p50, p95 := percentile(lat, 50), percentile(lat, 95)
	fmt.Printf("%-20s %s ms\n%-20s %s ms\n", "job_p50_ms", p50, "job_p95_ms", p95)
	v := map[string]float64{
		"setup_s":      median(setups),
		"place_s":      placeS,
		"ops_per_s":    median(rates),
		"jobs_per_s":   median(rates),
		"disp_dbu":     float64(disp),
		"hpwl_dbu":     float64(hpwl),
		"peak_rss_mb":  peakRSSMB(),
		"heap_live_mb": median(live),
	}
	if n > 0 {
		v["solve_bound_pct"] = bound / float64(n)
		v["solve_gap_pct"] = 100 - bound/float64(n)
	}
	return v
}

// serviceTraced runs untraced passes, then passes whose client calls are
// timed, and reports the per-layer metrics (from those timings and the
// jobs' own timestamps) and the difference between the two sets of passes.
func serviceTraced(ctx context.Context, t *tally, seed int64, seconds float64) map[string]float64 {
	fmt.Println("untraced passes:")
	pv := serviceValues(runService(ctx, t, seed, seconds/2, false))
	fmt.Println("traced passes:")
	g0 := readGoStats()
	passes := runService(ctx, t, seed, seconds/2, true)
	gs := readGoStats().sub(g0)
	tv := serviceValues(passes)
	var submit, status, queue, exec []float64
	var jobs, executed, hits, degraded, retries int
	for _, p := range passes {
		for _, o := range p.batch {
			if o.err != nil {
				continue
			}
			jobs++
			submit = append(submit, o.submitMS)
			status = append(status, o.statusMS...)
			if o.res.CacheHit {
				hits++
				continue
			}
			executed++
			v := o.view
			if v.Started != nil && v.Finished != nil {
				queue = append(queue, float64(v.Started.Sub(v.Submitted))/float64(time.Millisecond))
				exec = append(exec, float64(v.Finished.Sub(*v.Started))/float64(time.Millisecond))
			}
			retries += max(0, v.Attempts-1)
			if v.Degraded {
				degraded++
			}
		}
	}
	fmt.Printf("service jobs=%d executed=%d hits=%d status_calls=%d\n", jobs, executed, hits, len(status))
	v := map[string]float64{
		"transport.submit_ms": median(submit),
		"transport.status_ms": median(status),
		"scheduler.queue_ms":  median(queue),
		"scheduler.exec_ms":   median(exec),
		"scheduler.retries":   float64(retries),
		"go.alloc_mb":         gs.allocBytes / (1 << 20),
		"go.gc_cpu_s":         gs.gcCPUSec,
		"overhead.setup_s":    tv["setup_s"] - pv["setup_s"],
		"overhead.place_s":    tv["place_s"] - pv["place_s"],
		"overhead.ops_per_s":  tv["ops_per_s"] - pv["ops_per_s"],
	}
	if executed > 0 {
		v["scheduler.degraded_frac"] = float64(degraded) / float64(executed)
	}
	if jobs > 0 {
		v["store.cache_hit_frac"] = float64(hits) / float64(jobs)
	}
	return v
}
