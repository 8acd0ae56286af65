package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"mthplace/internal/server/scheduler"
	"mthplace/internal/server/transport"
	"mthplace/pkg/mth"
)

// Service shape: one local lane running one job at a time with the solve
// cache on, driven by a closed loop of two clients (one per CPU of the
// reference host), so one client's job waits in the queue while the
// other's runs. With two lanes, the consistent hash often sent both
// clients' jobs to the same lane while the other idled, so throughput
// followed the request order rather than the program. With two workers,
// both CPUs ran jobs, and a neighbour on the host taking part of one cut
// throughput twice as much as it cut the single-threaded flows
// (README.md).
const (
	svcLanes   = 1
	svcWorkers = 1
	svcClients = 2
	svcScale   = 0.05
	// svcBatch is the measured requests per pass. The second and fourth
	// request of every five repeat a primed request, so 40% are cache hits
	// and the median falls inside the misses rather than on the boundary
	// between hits and misses.
	svcBatch     = 80
	svcMinPasses = 5
	// svcPoll is the fixed Status poll interval. Client.Wait's 10 ms → 1 s
	// backoff would round latency into steps coarser than a fabric change.
	svcPoll = 3 * time.Millisecond
)

// svcDesigns are the Table II designs service jobs draw from. At svcScale
// each job takes tens to low hundreds of milliseconds; designs whose solve
// at some generator seeds runs into the 12 s budget, or whose instance is
// infeasible at some seeds, are left out (README.md), as the workload
// measures the fabric rather than the solver's tail.
var svcDesigns = []string{
	"aes_320", "aes_360", "ldpc_350", "fpu_4500", "point_200", "point_250", "des3_290", "vga_290",
}

// svcRequests builds the request stream: one primed ("hot") request per
// design at the default generator seed, then a measured batch in which 40%
// of the requests repeat a hot request and the rest are fresh instances
// (generator seeds 2, 3, ...). The requests are the same for every seed;
// the seed orders the batch (the first pass's order; see passOrder).
// Drawing generator seeds from the workload seed would move the batch's
// QoR sums by several percent from seed to seed.
func svcRequests(seed int64) (hot, batch []mth.JobRequest, hitOf []int) {
	req := func(design string, genSeed int64) mth.JobRequest {
		return mth.JobRequest{Testcase: design, Flows: []int{5}, Scale: svcScale, Seed: genSeed, Solver: mth.BackendRAP}
	}
	for _, d := range svcDesigns {
		hot = append(hot, req(d, 1))
	}
	for i := range svcBatch {
		if k := i % 5; k == 1 || k == 3 {
			h := (i/5*2 + k/3) % len(hot)
			batch = append(batch, hot[h])
			hitOf = append(hitOf, h)
		} else {
			batch = append(batch, req(svcDesigns[i%len(svcDesigns)], int64(2+i)))
			hitOf = append(hitOf, -1)
		}
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5e7c))
	rng.Shuffle(len(batch), func(i, j int) {
		batch[i], batch[j] = batch[j], batch[i]
		hitOf[i], hitOf[j] = hitOf[j], hitOf[i]
	})
	return hot, batch, hitOf
}

// jobOut is one request's client-side outcome.
type jobOut struct {
	view     mth.JobView
	res      mth.JobResult
	err      error
	latMS    float64
	submitMS float64
	statusMS []float64
}

// service is one in-process service instance served over loopback.
type service struct {
	sched  *scheduler.Scheduler
	srv    *http.Server
	served chan error
	client *mth.Client
}

func startService() (*service, error) {
	sched, err := scheduler.New(scheduler.Options{Workers: svcWorkers, Backends: svcLanes, CacheEntries: 512})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = sched.Shutdown(context.Background())
		return nil, err
	}
	s := &service{
		sched:  sched,
		srv:    &http.Server{Handler: transport.New(sched).Handler()},
		served: make(chan error, 1),
		client: mth.NewClient("http://" + ln.Addr().String()),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP edge and the scheduler down and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := s.srv.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	return errors.Join(herr, s.sched.Shutdown(ctx))
}

// do runs one request to its end: submit, poll Status at svcPoll until
// terminal, then read the result. Latency runs from the submit call until
// the result is read; with trace set, each Submit and Status call is timed
// as well.
func (s *service) do(ctx context.Context, req mth.JobRequest, trace bool) jobOut {
	var o jobOut
	t0 := time.Now()
	o.view, o.err = s.client.Submit(ctx, req)
	if trace {
		o.submitMS = msSince(t0)
	}
	for o.err == nil && !o.view.State.Terminal() {
		time.Sleep(svcPoll)
		var ts time.Time
		if trace {
			ts = time.Now()
		}
		o.view, o.err = s.client.Status(ctx, o.view.ID)
		if trace {
			o.statusMS = append(o.statusMS, msSince(ts))
		}
	}
	o.err = jobErr(o.view, o.err)
	if o.err == nil {
		o.res, o.err = s.client.Result(ctx, o.view.ID)
	}
	o.latMS = msSince(t0)
	return o
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// passOrder is the order in which pass number pass sends the batch's n
// requests: the batch's own order in the first pass, a permutation seeded
// by (seed, pass) in the later ones. The order decides which job queues
// behind which and which runs last, and moves a pass's throughput by
// several percent; varying it between passes lets the median over passes
// average that out instead of fixing it per seed.
func passOrder(seed int64, pass, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if pass > 0 {
		rng := rand.New(rand.NewPCG(uint64(seed), uint64(pass)))
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return order
}

// closedLoop sends reqs in the given order (nil: as listed) from
// svcClients clients, each sending its next request only after the
// previous one completed. The outcomes are indexed like reqs.
func (s *service) closedLoop(ctx context.Context, reqs []mth.JobRequest, order []int, trace bool) []jobOut {
	out := make([]jobOut, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range svcClients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if order != nil {
					i = order[i]
				}
				out[i] = s.do(ctx, reqs[i], trace)
			}
		}()
	}
	wg.Wait()
	return out
}

// svcPass is one fresh service: set up (start + prime the hot requests),
// then the measured batch.
type svcPass struct {
	setupS float64
	wallS  float64
	// liveMB is the live heap the pass added to the process: the larger
	// of the samples after priming and after the batch, less the sample
	// taken before the service started. The run keeps every pass's
	// results for its audit, so the process's own live heap grows with
	// the number of passes, which follows the host's speed.
	liveMB float64
	hot    []jobOut
	batch  []jobOut
}

func runPass(ctx context.Context, hot, batch []mth.JobRequest, order []int, trace bool) (*svcPass, error) {
	p := &svcPass{}
	var s *service
	var err error
	base := liveHeapMB()
	start := time.Now()
	if s, err = startService(); err != nil {
		return nil, err
	}
	p.hot = s.closedLoop(ctx, hot, nil, false)
	p.setupS = time.Since(start).Seconds()
	primed := liveHeapMB()
	start = time.Now()
	p.batch = s.closedLoop(ctx, batch, order, trace)
	p.wallS = time.Since(start).Seconds()
	p.liveMB = max(primed, liveHeapMB()) - base
	return p, s.stop()
}

// sameResult reports whether two results of one request agree bit for bit
// (metrics, including the stored timings, and placement digests).
func sameResult(a, b mth.JobResult) bool {
	return reflect.DeepEqual(a.Metrics, b.Metrics) && reflect.DeepEqual(a.Placements, b.Placements)
}

// untimed returns r without its wall-clock fields, which two executions of
// one request legitimately disagree on.
func untimed(r mth.JobResult) mth.JobResult {
	out := r
	out.ID, out.CacheHit = "", false
	out.Metrics = make(map[string]mth.Metrics, len(r.Metrics))
	for k, m := range r.Metrics {
		m.RAPTime, m.LegalTime, m.TotalTime = 0, 0, 0
		out.Metrics[k] = m
	}
	return out
}

// runService runs passes until `seconds` have elapsed (at least
// svcMinPasses) and audits them: every hit equals its primed miss, and
// every request's result equals the first pass's.
func runService(ctx context.Context, t *tally, seed int64, seconds float64, trace bool) []*svcPass {
	hot, batch, hitOf := svcRequests(seed)
	var passes []*svcPass
	start := time.Now()
	for len(passes) < svcMinPasses || time.Since(start).Seconds() < seconds {
		p, err := runPass(ctx, hot, batch, passOrder(seed, len(passes), len(batch)), trace)
		if p == nil {
			t.record("service start", err)
			return passes
		}
		if err != nil {
			fmt.Printf("NOTE service shutdown: %v\n", err)
		}
		n := len(passes)
		for i, o := range p.hot {
			t.record(fmt.Sprintf("pass %d hot %d %s", n, i, hot[i].Testcase), o.err)
		}
		for i, o := range p.batch {
			what := fmt.Sprintf("pass %d job %d %s", n, i, batch[i].Testcase)
			if !t.record(what, o.err) {
				continue
			}
			// A cache hit must return its primed result bit for bit; a
			// repeat the cache missed must still repeat its QoR.
			if h := hitOf[i]; h >= 0 && p.hot[h].err == nil {
				same := sameResult(o.res, p.hot[h].res)
				if !o.res.CacheHit {
					same = sameResult(untimed(o.res), untimed(p.hot[h].res))
				}
				if !same {
					t.audit(what, fmt.Errorf("repeat of primed request differs from its first result (cache hit %v)", o.res.CacheHit))
				}
			}
			if n > 0 && passes[0].batch[i].err == nil && !sameResult(untimed(o.res), untimed(passes[0].batch[i].res)) {
				t.audit(what, errors.New("result differs from the first pass's result for the same request"))
			}
		}
		passes = append(passes, p)
	}
	return passes
}

// metrics5 returns a job's Flow 5 metrics.
func metrics5(o jobOut) (mth.Metrics, bool) {
	m, ok := o.res.Metrics["5"]
	return m, ok && o.err == nil
}
