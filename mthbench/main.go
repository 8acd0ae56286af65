// Command mthbench is the repository's benchmark. It runs one workload of
// the placement engine, checks every result, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) by name and unit; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 1, "failed": 0, "metrics": {"setup_s": {"value": 9.9, "unit": "s"}, ...}}
//
// Usage:
//
//	mthbench --workload paper_nova300|table_sweep|service_mix --seed N --seconds S --trace 0|1
//
// See README.md in this directory for the workloads, the metrics and which
// layer metric should move which end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics every workload reports with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"place_s", "s"},
	{"ops_per_s", "1/s"},
	{"solve_bound_pct", "%"},
	{"disp_dbu", "dbu"},
	{"hpwl_dbu", "dbu"},
	{"heap_live_mb", "MB"},
}

// reported are the further end-to-end values printed for the workloads they
// apply to. They are not part of the JSON line: they are zero or undefined
// on some workload, or (peak_rss_mb) vary with the collector's timing by
// more than any usable bound on the small workloads.
var reported = []metricDef{
	{"peak_rss_mb", "MB"},
	{"route_s", "s"},
	{"solve_gap_pct", "%"},
	{"routed_wl_dbu", "dbu"},
	{"tns_ns", "ns"},
	{"jobs_per_s", "1/s"},
	{"failed_frac", "frac"},
}

// perLayer are the metrics every workload reports with --trace 1; a layer
// the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"synth.generate_s", "s"},
	{"lefdef.mlef_s", "s"},
	{"placer.global_s", "s"},
	{"placer.alloc_mb", "MB"},
	{"legalize.uniform_s", "s"},
	{"legalize.fence_s", "s"},
	{"legalize.rowcon_s", "s"},
	{"legalize.verify_s", "s"},
	{"baseline.assign_s", "s"},
	{"core.clusters_s", "s"},
	{"core.clusters_n", "count"},
	{"core.model_s", "s"},
	{"core.model_arcs", "count"},
	{"core.solve_s", "s"},
	{"core.finalize_s", "s"},
	{"rap.nodes", "count"},
	{"rap.subgrad_iters", "count"},
	{"rap.iters_per_s", "1/s"},
	{"solve.optimal_frac", "frac"},
	{"solve.capped_frac", "frac"},
	{"solve.improved_frac", "frac"},
	{"route.route_s", "s"},
	{"route.overflow", "count"},
	{"sta.analyze_s", "s"},
	{"power.analyze_s", "s"},
	{"check.audit_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cpu_s", "s"},
	{"transport.submit_ms", "ms"},
	{"transport.status_ms", "ms"},
	{"scheduler.queue_ms", "ms"},
	{"scheduler.exec_ms", "ms"},
	{"scheduler.retries", "count"},
	{"scheduler.degraded_frac", "frac"},
	{"store.cache_hit_frac", "frac"},
	{"overhead.setup_s", "s"},
	{"overhead.place_s", "s"},
	{"overhead.ops_per_s", "1/s"},
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	plain, traced func(ctx context.Context, t *tally, seed int64, seconds float64) map[string]float64
}{
	"paper_nova300": {novaWorkload.plain, novaWorkload.traced},
	"table_sweep":   {sweepWorkload.plain, sweepWorkload.traced},
	"service_mix":   {servicePlain, serviceTraced},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("mthbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: paper_nova300, table_sweep or service_mix")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "how long the time-boxed part of a run measures")
	trace := fs.Int("trace", 0, "1: run the traced composition and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "mthbench: need --workload %s and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d host: %s nproc=%d GOMAXPROCS=%d\n",
		*name, *seed, *seconds, *trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	var t tally
	ctx := context.Background()
	var vals map[string]float64
	defs := endToEnd
	if *trace == 1 {
		vals = w.traced(ctx, &t, *seed, *seconds)
		defs = perLayer
	} else {
		vals = w.plain(ctx, &t, *seed, *seconds)
		vals["failed_frac"] = t.failedFrac()
		for _, d := range append(slices.Clone(endToEnd), reported...) {
			if v, ok := vals[d.name]; ok {
				fmt.Printf("%-20s %18.6f %s\n", d.name, v, d.unit)
			}
		}
	}
	line := resultLine{
		Correct:   !t.auditFailed,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if *trace == 1 {
		for _, d := range perLayer {
			fmt.Printf("%-24s %18.6f %s\n", d.name, line.Metrics[d.name].Value, d.unit)
		}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mthbench: %v\n", err)
		return 1
	}
	fmt.Println(string(buf))
	if t.auditFailed || t.failed >= t.attempted {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}
