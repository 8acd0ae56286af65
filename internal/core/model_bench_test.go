package core

import (
	"context"
	"testing"

	"mthplace/internal/netlist"
	"mthplace/internal/rowgrid"
)

func benchModelInputs(b *testing.B) (context.Context, *netlist.Design, rowgrid.PairGrid, *Clusters, int) {
	b.Helper()
	d, g := placedDesign(b, 0.05)
	cl, err := BuildClusters(context.Background(), d, 0.3, 20)
	if err != nil {
		b.Fatal(err)
	}
	return ctxWithJobs(1), d, g, cl, nMinRFor(d, g)
}

// BenchmarkBuildModel measures the RAP cost-model build on one clustered
// design with a single worker, so the interesting numbers are allocations
// and the serial wall clock.
func BenchmarkBuildModel(b *testing.B) {
	ctx, d, g, cl, nMinR := benchModelInputs(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := BuildModel(ctx, d, g, cl, nMinR, DefaultCostParams()); err != nil {
			b.Fatal(err)
		}
	}
}
