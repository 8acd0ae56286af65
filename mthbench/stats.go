package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"time"

	"mthplace/pkg/mth"
)

// minTail is how many samples must lie above a reported percentile: a tail
// estimate resting on fewer samples is noise, so it is not reported.
const minTail = 10

// pct is one percentile of a sample set. OK is false when fewer than minTail
// samples lie above it; N is the sample count either way.
type pct struct {
	P     float64
	Value float64
	N     int
	OK    bool
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of xs.
func percentile(xs []float64, p float64) pct {
	out := pct{P: p, N: len(xs)}
	if len(xs) == 0 {
		return out
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = max(1, min(rank, len(s)))
	out.Value = s[rank-1]
	out.OK = len(s)-rank >= minTail
	return out
}

// String renders the percentile with its sample count, or why it is withheld.
func (p pct) String() string {
	if !p.OK {
		return fmt.Sprintf("n/a (n=%d, fewer than %d samples above p%g)", p.N, minTail, p.P)
	}
	return fmt.Sprintf("%.3f (n=%d)", p.Value, p.N)
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tally counts the workload's operations (a flow, a routed flow or a job)
// and the ones that failed.
type tally struct {
	attempted, failed int
	// auditFailed is set when a result was produced but failed a
	// correctness check; it makes the whole run incorrect.
	auditFailed bool
}

// record counts one operation; a non-nil err marks it failed. It reports
// whether the operation succeeded.
func (t *tally) record(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Printf("FAIL %s: %v\n", what, err)
		return false
	}
	return true
}

// audit records a correctness-check failure against an operation that
// already counted as attempted.
func (t *tally) audit(what string, err error) {
	if err == nil {
		return
	}
	t.failed++
	t.auditFailed = true
	fmt.Printf("AUDIT %s: %v\n", what, err)
}

// failedFrac is failed operations ÷ operations attempted.
func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// jobErr folds a job's terminal view into the operation outcome: a call
// error, or any terminal state other than done, is a failure.
func jobErr(v mth.JobView, err error) error {
	if err != nil {
		return err
	}
	if v.State != mth.JobDone {
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	return nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, or 0 where
// /proc does not report it.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// goStats samples the runtime counters the per-layer report uses.
type goStats struct {
	allocBytes float64
	gcCPUSec   float64
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var g goStats
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.allocBytes = float64(s[0].Value.Uint64())
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.gcCPUSec = s[1].Value.Float64()
	}
	return g
}

func (g goStats) sub(o goStats) goStats {
	return goStats{allocBytes: g.allocBytes - o.allocBytes, gcCPUSec: g.gcCPUSec - o.gcCPUSec}
}

// maxLiveMB is the largest live heap seen by sampleLiveHeap, in MiB.
var maxLiveMB float64

// sampleLiveHeap records liveHeapMB in maxLiveMB.
func sampleLiveHeap() { maxLiveMB = max(maxLiveMB, liveHeapMB()) }

// liveHeapMB collects the heap and returns the live bytes that remain, in
// MiB: what the run holds at that point, independent of when the collector
// would have run.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// timed runs fn and returns its wall time in seconds. The heap is collected
// first, so one timed region does not pay for the previous one's garbage,
// and its live size is sampled.
func timed(fn func() error) (float64, error) {
	sampleLiveHeap()
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}
