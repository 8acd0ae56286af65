package mth_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mthplace/pkg/mth"
)

// TestFacadeSmoke drives the public API the way an external consumer
// would: find a Table II spec, shrink it, run the paper's final flow.
func TestFacadeSmoke(t *testing.T) {
	spec, err := mth.FindSpec("aes_300")
	if err != nil {
		t.Fatal(err)
	}
	cfg := mth.DefaultConfig()
	cfg.Synth.Scale = 0.02
	res, err := mth.Run(context.Background(), spec, cfg, mth.Flow5, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Flow != mth.Flow5 {
		t.Errorf("flow tag %v, want %v", res.Metrics.Flow, mth.Flow5)
	}
	if res.Metrics.HPWL <= 0 {
		t.Errorf("HPWL = %d, want > 0", res.Metrics.HPWL)
	}
}

// TestFacadeErrors: the re-exported sentinels classify failures from the
// internal layers.
func TestFacadeErrors(t *testing.T) {
	if _, err := mth.FindSpec("not_a_testcase"); err == nil {
		t.Error("FindSpec accepted an unknown name")
	}
	spec, err := mth.FindSpec("aes_300")
	if err != nil {
		t.Fatal(err)
	}
	cfg := mth.DefaultConfig()
	cfg.Synth.Scale = 0.02
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mth.Run(ctx, spec, cfg, mth.Flow5, false); !errors.Is(err, mth.ErrCanceled) {
		t.Errorf("pre-canceled run: err = %v, want ErrCanceled", err)
	}
}

// TestValidBackend: the exact and greedy backends (and the empty default)
// are accepted; the removed milp backend is rejected with an error that
// names the valid ones.
func TestValidBackend(t *testing.T) {
	for _, name := range []string{"", mth.BackendRAP, mth.BackendGreedy} {
		if err := mth.ValidBackend(name); err != nil {
			t.Errorf("ValidBackend(%q) = %v, want nil", name, err)
		}
	}
	err := mth.ValidBackend("milp")
	if err == nil {
		t.Fatal(`ValidBackend("milp") accepted a removed backend`)
	}
	if msg := err.Error(); !strings.Contains(msg, "rap") || !strings.Contains(msg, "greedy") {
		t.Errorf("error %q does not name the valid backends", msg)
	}
}

// TestFacadeScopedPools: the exported pool constructor composes with the
// config, mirroring how the job server budgets parallelism.
func TestFacadeScopedPools(t *testing.T) {
	spec, err := mth.FindSpec("aes_300")
	if err != nil {
		t.Fatal(err)
	}
	cfg := mth.DefaultConfig()
	cfg.Synth.Scale = 0.02
	cfg.Pool = mth.NewPool(2)
	r, err := mth.NewRunner(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pool() != cfg.Pool {
		t.Error("runner did not adopt the explicit pool")
	}
	if _, err := r.Run(context.Background(), mth.Flow2, false); err != nil {
		t.Fatal(err)
	}
}
