package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"

	"mthplace/pkg/mth"
)

// TestTracedMatchesFacade runs a golden-size design through the traced
// composition and through pkg/mth: every flow must give the same QoR, so
// the copied call sequence cannot drift away from flow.Runner.
func TestTracedMatchesFacade(t *testing.T) {
	ctx := context.Background()
	spec, err := mth.FindSpec("aes_300")
	if err != nil {
		t.Fatal(err)
	}
	cfg := benchConfig(0.02)
	var tl tally
	x := &traced{}
	p, res := x.runDesign(ctx, &tl, spec, cfg, allFlows, mth.Flow5)
	drs := runFacade(ctx, &tl, []mth.Spec{spec}, cfg, flowWorkload{flows: allFlows, setups: 1, reps: 2, routes: 2})
	if p == nil || len(drs) != 1 || tl.failed != 0 {
		t.Fatalf("runs failed: %d of %d operations", tl.failed, tl.attempted)
	}
	dr := drs[0]
	if p.nminR != dr.runner.NminR || p.base.TotalHPWL() != dr.runner.Base.TotalHPWL() {
		t.Errorf("setup differs: traced N_minR %d HPWL %d, facade N_minR %d HPWL %d",
			p.nminR, p.base.TotalHPWL(), dr.runner.NminR, dr.runner.Base.TotalHPWL())
	}
	for _, id := range allFlows {
		want := qorOf(dr.flows[id])
		if id == mth.Flow5 {
			want.RoutedWL = dr.routed.RoutedWL
		}
		got := qorOf(res[id].Metrics)
		if got != want {
			t.Errorf("%v: traced %+v, facade %+v", id, got, want)
		}
	}
	if len(x.solves) != 2 {
		t.Fatalf("recorded %d solves, want 2 (Flows 4 and 5)", len(x.solves))
	}
	for _, s := range x.solves {
		if !s.optimal || s.rung != mth.RungILP || s.model != nil {
			t.Errorf("solve provenance %v: want proven optimal with the model released", s)
		}
	}
	for _, name := range []string{"synth.generate", "placer.global", "core.solve", "legalize.fence", "legalize.rowcon", "route.route", "check.audit"} {
		if x.tr.seconds(name) <= 0 {
			t.Errorf("no time recorded under span %s", name)
		}
	}
}

func TestPercentileNeedsTenSamplesAbove(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{200, 95, 190, true}, // 10 samples above rank 190
		{199, 95, 190, false},
		{20, 50, 10, true},
		{19, 50, 10, false},
		{0, 50, 0, false},
	} {
		got := percentile(xs[:tc.n], tc.p)
		if got.N != tc.n || got.OK != tc.wantOK || (tc.n > 0 && got.Value != tc.want) {
			t.Errorf("percentile(n=%d, p%g) = %+v, want value %g ok %v n %d", tc.n, tc.p, got, tc.want, tc.wantOK, tc.n)
		}
	}
	if s := percentile(xs[:50], 95).String(); s != "n/a (n=50, fewer than 10 samples above p95)" {
		t.Errorf("withheld percentile renders %q", s)
	}
}

func TestFailedFracCountsErroredAndUnfinishedJobs(t *testing.T) {
	var tl tally
	outcomes := []error{
		jobErr(mth.JobView{ID: "a", State: mth.JobDone}, nil),
		jobErr(mth.JobView{ID: "b", State: mth.JobFailed, Error: "infeasible"}, nil),
		jobErr(mth.JobView{ID: "c", State: mth.JobCanceled}, nil),
		jobErr(mth.JobView{}, errors.New("connection refused")),
	}
	for i, err := range outcomes {
		tl.record(fmt.Sprintf("job %d", i), err)
	}
	tl.record("flow", nil)
	if tl.attempted != 5 || tl.failed != 3 || tl.failedFrac() != 0.6 {
		t.Errorf("attempted %d failed %d frac %g, want 5, 3, 0.6", tl.attempted, tl.failed, tl.failedFrac())
	}
	if tl.auditFailed {
		t.Error("an errored operation is not an audit failure")
	}
	tl.audit("flow", errors.New("overlap"))
	if !tl.auditFailed || tl.failed != 4 {
		t.Errorf("audit failure: auditFailed %v failed %d, want true, 4", tl.auditFailed, tl.failed)
	}
}

func TestServiceRequestsAreSeededAndMixed(t *testing.T) {
	hot, batch, hitOf := svcRequests(7)
	hot2, batch2, _ := svcRequests(7)
	if !reflect.DeepEqual(hot, hot2) || !reflect.DeepEqual(batch, batch2) {
		t.Fatal("the same seed gave different requests")
	}
	if _, other, _ := svcRequests(8); reflect.DeepEqual(batch, other) {
		t.Fatal("different seeds gave the same order")
	}
	hits := 0
	seeds := map[int64]bool{}
	for _, r := range hot {
		seeds[r.Seed] = true
	}
	for i, r := range batch {
		if h := hitOf[i]; h >= 0 {
			hits++
			if !reflect.DeepEqual(r, hot[h]) {
				t.Errorf("request %d is marked a repeat of hot %d but differs", i, h)
			}
			continue
		}
		if seeds[r.Seed] {
			t.Errorf("request %d reuses generator seed %d", i, r.Seed)
		}
		seeds[r.Seed] = true
	}
	if hits*5 != len(batch)*2 {
		t.Errorf("%d repeats in %d requests, want 40%%", hits, len(batch))
	}
}

func TestPassOrderIsSeededPermutation(t *testing.T) {
	const n = svcBatch
	if first := passOrder(7, 0, n); !slices.Equal(first, passOrder(8, 0, n)) || !slices.IsSorted(first) {
		t.Error("the first pass does not send the batch in its own order")
	}
	a, b := passOrder(7, 1, n), passOrder(7, 2, n)
	if !slices.Equal(a, passOrder(7, 1, n)) {
		t.Error("the same seed and pass gave different orders")
	}
	if slices.Equal(a, b) || slices.Equal(a, passOrder(8, 1, n)) {
		t.Error("different passes or seeds gave the same order")
	}
	sorted := slices.Clone(a)
	slices.Sort(sorted)
	if !slices.Equal(sorted, passOrder(7, 0, n)) {
		t.Errorf("order %v is not a permutation of 0..%d", a, n-1)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program emits in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames())
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, program emits %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program emits %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
