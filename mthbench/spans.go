package main

import (
	"fmt"
	"slices"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Parent is the index of the enclosing span,
// -1 at the top.
type span struct {
	Name   string
	Start  time.Time
	Dur    time.Duration
	Parent int
}

// tracer keeps the run's spans in memory; the per-layer report is built
// from them when the run ends.
type tracer struct {
	spans []span
	open  []int
}

// do records fn as a span named name, nested under any span still open.
func (t *tracer) do(name string, fn func() error) error {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Now(), Parent: parent})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	err := fn()
	t.spans[idx].Dur = time.Since(t.spans[idx].Start)
	t.open = t.open[:len(t.open)-1]
	return err
}

// seconds is the total duration of every span named name.
func (t *tracer) seconds(name string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.Dur
		}
	}
	return d.Seconds()
}

// layerRow is one line of the span summary.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// summary aggregates spans by name. A span's self time is its duration
// minus its children's; spans nest strictly because the benchmark calls
// the layers one at a time.
func (t *tracer) summary() []layerRow {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	byName := map[string]*layerRow{}
	var order []string
	for i, s := range t.spans {
		r, ok := byName[s.Name]
		if !ok {
			r = &layerRow{name: s.Name}
			byName[s.Name] = r
			order = append(order, s.Name)
		}
		r.count++
		r.total += s.Dur
		r.self += s.Dur - child[i]
	}
	out := make([]layerRow, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	slices.SortStableFunc(out, func(a, b layerRow) int { return int(b.self - a.self) })
	return out
}

// print writes the span summary, heaviest self time first.
func (t *tracer) print() {
	fmt.Printf("%-20s %7s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, r := range t.summary() {
		fmt.Printf("%-20s %7d %12.4f %12.4f\n", r.name, r.count, r.total.Seconds(), r.self.Seconds())
	}
}
