package scheduler

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// ErrQueueFull is returned by Backend.Enqueue when the backend's queue is at
// capacity; the transport maps it to 429.
var ErrQueueFull = errors.New("job queue full")

// Backend is one execution lane of the scheduler: a bounded queue with a
// fixed worker complement. The scheduler routes each job to exactly one
// backend by consistent-hashing its instance key, so resubmissions of the
// same instance land on the same lane (cache and data-locality affinity).
//
// Two implementations exist: Local runs jobs on in-process workers, and
// Remote (remote.go) dispatches them over HTTP to an mthserved worker
// process under a lease. The scheduler's only assumptions are the ones
// documented per method; everything job-lifecycle (claiming, retries,
// journaling) stays above this interface.
type Backend interface {
	// Name identifies the backend in /stats and journal records.
	Name() string
	// Enqueue hands a job to the backend, or returns ErrQueueFull. The
	// scheduler serializes all Enqueue calls under its own lock, so an
	// implementation may treat Depth/Enqueue as check-then-act.
	Enqueue(jb *Job) error
	// Depth is the number of jobs waiting (not yet claimed by a worker).
	Depth() int
	// Capacity is the queue bound Enqueue enforces.
	Capacity() int
	// Workers is the backend's concurrent-job complement.
	Workers() int
	// Start launches the workers; run is called once per dequeued job and
	// owns the job's whole lifecycle. Jobs enqueued before Start are kept.
	Start(run func(*Job))
	// Close stops intake and lets the workers drain what was queued.
	// Enqueue after Close is a programming error (the scheduler's intake
	// gate prevents it).
	Close()
	// Wait blocks until every worker has exited (Close must come first).
	Wait()
}

// Local is the in-process Backend: a buffered channel drained by a fixed
// set of goroutines.
type Local struct {
	name    string
	queue   chan *Job
	workers int
	wg      sync.WaitGroup
}

// NewLocal builds an in-process backend with the given queue bound and
// worker count (both >= 1). Call Start to begin draining.
func NewLocal(name string, workers, depth int) *Local {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	return &Local{name: name, queue: make(chan *Job, depth), workers: workers}
}

func (l *Local) Name() string  { return l.name }
func (l *Local) Depth() int    { return len(l.queue) }
func (l *Local) Capacity() int { return cap(l.queue) }
func (l *Local) Workers() int  { return l.workers }

func (l *Local) Enqueue(jb *Job) error {
	select {
	case l.queue <- jb:
		return nil
	default:
		return ErrQueueFull
	}
}

func (l *Local) Start(run func(*Job)) {
	l.wg.Add(l.workers)
	for i := 0; i < l.workers; i++ {
		go func() {
			defer l.wg.Done()
			for jb := range l.queue {
				run(jb)
			}
		}()
	}
}

func (l *Local) Close() { close(l.queue) }
func (l *Local) Wait()  { l.wg.Wait() }

// ringVnodes is the number of ring points per backend. 64 keeps the load
// spread within a few percent of uniform while the ring stays tiny.
const ringVnodes = 64

// ring consistent-hashes routing keys onto backend indices. With one
// backend everything maps to it; with more, each key deterministically owns
// a lane, and adding a backend moves only ~1/n of the keyspace — the
// property that will keep cache affinity through future elastic resizing.
type ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	idx  int
}

func newRing(backends int) *ring {
	r := &ring{points: make([]ringPoint, 0, backends*ringVnodes)}
	for i := 0; i < backends; i++ {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("backend-%d/vnode-%d", i, v)), idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// pick returns the backend index owning key: the first ring point at or
// clockwise-after the key's hash.
func (r *ring) pick(key string) int {
	if len(r.points) == 0 {
		return 0
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].idx
}

// pickLive returns the backend index owning key among the lanes live
// reports healthy, walking clockwise from the key's home point so a dead
// lane's keyspace spills onto its ring successor (and comes back home when
// the lane is readmitted). exclude skips one lane regardless of health —
// re-routing a job away from the lane that just failed it. When no lane
// qualifies, the unfiltered owner is returned with ok=false.
func (r *ring) pickLive(key string, exclude int, live func(int) bool) (idx int, ok bool) {
	if len(r.points) == 0 {
		return 0, false
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if start == len(r.points) {
		start = 0
	}
	seen := map[int]bool{}
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.idx] {
			continue
		}
		seen[p.idx] = true
		if p.idx != exclude && live(p.idx) {
			return p.idx, true
		}
	}
	return r.points[start].idx, false
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
