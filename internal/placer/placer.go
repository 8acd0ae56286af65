// Package placer implements the unconstrained global placement that stands
// in for the commercial P&R tool's initial placement (§III, step iii of the
// paper). The algorithm is a compact quadratic placer in the SimPL family:
//
//  1. wirelength minimisation: iterated weighted-centroid (Jacobi) sweeps of
//     the star net model, which converge to the quadratic (clique/(p−1))
//     wirelength minimum with fixed IO ports as anchors;
//  2. density spreading: recursive area-balanced bisection of overfilled
//     regions produces spread targets;
//  3. anchoring: each outer iteration re-solves the quadratic system with
//     growing pull toward the spread targets, interpolating between pure
//     wirelength quality and an overlap-free distribution.
//
// The result is a realistic wirelength-optimised, roughly density-legal
// placement; exact legality (sites, rows, no overlap) is established
// afterwards by the legalize package, as in a real flow.
package placer

import (
	"math/bits"
	"math/rand"
	"slices"

	"mthplace/internal/geom"
	"mthplace/internal/netlist"
)

// Options tune the global placer.
type Options struct {
	// OuterIters is the number of spread/anchor iterations (default 12).
	OuterIters int
	// SolveSweeps is the number of Jacobi sweeps per outer iteration
	// (default 24).
	SolveSweeps int
	// Seed randomises the initial jitter.
	Seed int64
	// AnchorBase is the initial anchor weight relative to net weight sum
	// (default 0.03); it doubles every outer iteration.
	AnchorBase float64
	// BinTarget is the approximate cell count per spreading leaf bin
	// (default 6).
	BinTarget int
}

func (o Options) withDefaults() Options {
	if o.OuterIters <= 0 {
		o.OuterIters = 12
	}
	if o.SolveSweeps <= 0 {
		o.SolveSweeps = 24
	}
	if o.AnchorBase <= 0 {
		o.AnchorBase = 0.03
	}
	if o.BinTarget <= 0 {
		o.BinTarget = 6
	}
	return o
}

// Global computes an unconstrained placement for all movable instances,
// writing lower-left positions into the design. The clock net is excluded
// from the wirelength objective (it is routed as a tree by CTS, and pulling
// every flop to one point would wreck the placement, as in real tools).
func Global(d *netlist.Design, opt Options) {
	opt = opt.withDefaults()
	n := len(d.Insts)
	if n == 0 {
		return
	}
	rng := rand.New(rand.NewSource(opt.Seed + 17))

	cx := make([]float64, n) // cell centers
	cy := make([]float64, n)
	area := make([]float64, n)
	movable := make([]bool, n)
	dieCx := float64(d.Die.Lo.X+d.Die.Hi.X) / 2
	dieCy := float64(d.Die.Lo.Y+d.Die.Hi.Y) / 2
	for i, in := range d.Insts {
		area[i] = float64(in.Width()) * float64(in.Height())
		movable[i] = !in.Fixed
		if in.Fixed {
			cx[i] = float64(in.Pos.X) + float64(in.Width())/2
			cy[i] = float64(in.Pos.Y) + float64(in.Height())/2
			continue
		}
		// Start near the die center with jitter to break symmetry.
		cx[i] = dieCx + (rng.Float64()-0.5)*float64(d.Die.W())*0.25
		cy[i] = dieCy + (rng.Float64()-0.5)*float64(d.Die.H())*0.25
	}

	nets := buildNets(d)
	ax := append([]float64(nil), cx...) // anchor targets
	ay := append([]float64(nil), cy...)

	lambda := 0.0
	for outer := 0; outer < opt.OuterIters; outer++ {
		solve(d, nets, cx, cy, ax, ay, movable, lambda, opt.SolveSweeps)
		spread(d, cx, cy, area, movable, ax, ay, opt.BinTarget)
		if outer == 0 {
			lambda = opt.AnchorBase
		} else {
			lambda *= 1.8
		}
	}
	// Final positions follow the spread targets (overlap-light).
	for i := range cx {
		if movable[i] {
			cx[i], cy[i] = ax[i], ay[i]
		}
	}
	writeBack(d, cx, cy, movable)
}

// placeNet is a net prepared for the quadratic model: participating cell
// indices, fixed-terminal centroid contribution and weight.
type placeNet struct {
	cells  []int32
	fx, fy float64 // sum of fixed/port pin coordinates
	nfixed int
	w      float64
}

func buildNets(d *netlist.Design) []placeNet {
	out := make([]placeNet, 0, len(d.Nets))
	for ni, net := range d.Nets {
		if int32(ni) == d.ClockNet || len(net.Pins) < 2 {
			continue
		}
		var pn placeNet
		for _, ref := range net.Pins {
			if ref.IsPort() {
				p := d.Ports[ref.Pin].Pos
				pn.fx += float64(p.X)
				pn.fy += float64(p.Y)
				pn.nfixed++
				continue
			}
			if d.Insts[ref.Inst].Fixed {
				p := d.PinPos(ref)
				pn.fx += float64(p.X)
				pn.fy += float64(p.Y)
				pn.nfixed++
				continue
			}
			pn.cells = append(pn.cells, ref.Inst)
		}
		if len(pn.cells) == 0 {
			continue
		}
		deg := len(pn.cells) + pn.nfixed
		pn.w = 1.0 / float64(deg-1)
		out = append(out, pn)
	}
	return out
}

// solve runs Jacobi sweeps of the star-model normal equations with anchor
// pull lambda toward (ax, ay).
func solve(d *netlist.Design, nets []placeNet, cx, cy, ax, ay []float64, movable []bool, lambda float64, sweeps int) {
	n := len(cx)
	sumW := make([]float64, n)
	numX := make([]float64, n)
	numY := make([]float64, n)
	for s := 0; s < sweeps; s++ {
		for i := 0; i < n; i++ {
			sumW[i], numX[i], numY[i] = 0, 0, 0
		}
		for _, pn := range nets {
			deg := float64(len(pn.cells) + pn.nfixed)
			var sx, sy float64
			for _, c := range pn.cells {
				sx += cx[c]
				sy += cy[c]
			}
			sx += pn.fx
			sy += pn.fy
			// Star center is the net centroid; each member is pulled to the
			// centroid of the *other* members to avoid self-attraction bias.
			for _, c := range pn.cells {
				ox := (sx - cx[c]) / (deg - 1)
				oy := (sy - cy[c]) / (deg - 1)
				numX[c] += pn.w * ox
				numY[c] += pn.w * oy
				sumW[c] += pn.w
			}
		}
		loX, hiX := float64(d.Die.Lo.X), float64(d.Die.Hi.X)
		loY, hiY := float64(d.Die.Lo.Y), float64(d.Die.Hi.Y)
		for i := 0; i < n; i++ {
			if !movable[i] {
				continue
			}
			den := sumW[i] + lambda
			if den <= 0 {
				continue
			}
			nx := (numX[i] + lambda*ax[i]) / den
			ny := (numY[i] + lambda*ay[i]) / den
			cx[i] = clampF(nx, loX, hiX)
			cy[i] = clampF(ny, loY, hiY)
		}
	}
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// spread computes overlap-light targets (ax, ay) by recursive area-balanced
// bisection: cells are recursively split along the longer region axis in
// coordinate order, each half receiving a region share proportional to its
// area demand; leaf bins distribute their cells uniformly.
//
// Areas must be non-negative integers (width × height products, exact in
// float64) and coordinates must not be NaN: the split then depends only on
// the set of cells in a region, never on the order they arrive in, which is
// what lets bisect select the split instead of sorting for it.
func spread(d *netlist.Design, cx, cy, area []float64, movable []bool, ax, ay []float64, binTarget int) {
	ids := make([]int, 0, len(cx))
	for i := range cx {
		if movable[i] {
			ids = append(ids, i)
		}
	}
	region := rectF{
		x0: float64(d.Die.Lo.X), y0: float64(d.Die.Lo.Y),
		x1: float64(d.Die.Hi.X), y1: float64(d.Die.Hi.Y),
	}
	bisect(ids, region, cx, cy, area, ax, ay, binTarget)
}

type rectF struct{ x0, y0, x1, y1 float64 }

func (r rectF) w() float64 { return r.x1 - r.x0 }
func (r rectF) h() float64 { return r.y1 - r.y0 }

// bisect spreads ids over r. In (key, id) order along the cut axis, the
// left half is the shortest prefix (at least one cell, at most all but one)
// whose area reaches half the region's; weightedSplit finds it by selection
// in linear time, so a whole spread costs O(n log n), not the O(n log² n)
// of sorting at every level.
func bisect(ids []int, r rectF, cx, cy, area, ax, ay []float64, binTarget int) {
	if len(ids) == 0 {
		return
	}
	if len(ids) <= binTarget || (r.w() < 1 && r.h() < 1) {
		// Leaf: order by x and distribute uniformly on a row-major mini
		// grid to kill residual overlap.
		slices.SortFunc(ids, byKey(cx))
		for k, id := range ids {
			f := (float64(k) + 0.5) / float64(len(ids))
			ax[id] = r.x0 + f*r.w()
			ay[id] = r.y0 + r.h()/2
		}
		return
	}
	vertCut := r.w() >= r.h() // cut the longer axis
	key := cy
	if vertCut {
		key = cx
	}
	var total float64
	for _, id := range ids {
		total += area[id]
	}
	cut := weightedSplit(ids, key, area, total/2, 2*bits.Len(uint(len(ids))))
	var acc float64
	for _, id := range ids[:cut] {
		acc += area[id]
	}
	fracArea := acc / total
	left, right := ids[:cut], ids[cut:]
	if vertCut {
		xm := r.x0 + r.w()*fracArea
		bisect(left, rectF{r.x0, r.y0, xm, r.y1}, cx, cy, area, ax, ay, binTarget)
		bisect(right, rectF{xm, r.y0, r.x1, r.y1}, cx, cy, area, ax, ay, binTarget)
	} else {
		ym := r.y0 + r.h()*fracArea
		bisect(left, rectF{r.x0, r.y0, r.x1, ym}, cx, cy, area, ax, ay, binTarget)
		bisect(right, rectF{r.x0, ym, r.x1, r.y1}, cx, cy, area, ax, ay, binTarget)
	}
}

// before is the strict total order of the split: key, then id.
func before(key []float64, a, b int) bool {
	return key[a] < key[b] || (key[a] == key[b] && a < b)
}

// byKey is before as a slices.SortFunc comparator.
func byKey(key []float64) func(a, b int) int {
	return func(a, b int) int {
		switch {
		case before(key, a, b):
			return -1
		case before(key, b, a):
			return 1
		}
		return 0
	}
}

// weightedSplit reorders ids (len ≥ 2) in place and returns cut such that
// ids[:cut] are the first cut cells in (key, id) order, where cut is the
// smallest k ≥ 1 whose prefix area reaches half, capped at len(ids)-1. It is
// a weighted quickselect: each round partitions the live range around a
// median-of-three pivot and keeps only the side holding the cell whose area
// crosses half. After depth rounds the live range is sorted instead, which
// bounds the worst case at O(n log n) for a depth of O(log n).
func weightedSplit(ids []int, key, area []float64, half float64, depth int) int {
	lo, hi := 0, len(ids) // the crossing cell's sorted position is in [lo, hi)
	var acc float64       // area of ids[:lo], all of which precede ids[lo:hi]
	for hi-lo > 12 && depth > 0 {
		depth--
		m, left := partition(ids, lo, hi, key, area)
		switch {
		case acc+left >= half:
			hi = m
		case acc+left+area[ids[m]] >= half:
			return min(m+1, len(ids)-1)
		default:
			acc += left + area[ids[m]]
			lo = m + 1
		}
	}
	slices.SortFunc(ids[lo:hi], byKey(key))
	for k := lo; k < hi-1; k++ {
		acc += area[ids[k]]
		if acc >= half {
			return min(k+1, len(ids)-1)
		}
	}
	return min(hi, len(ids)-1)
}

// partition splits ids[lo:hi] (hi-lo ≥ 3) around a median-of-three pivot
// under the (key, id) order, returning the pivot's final index m and the
// area of ids[lo:m]. ids are distinct, so every other cell falls strictly
// on one side, and the median of three distinct cells has one on each:
// lo < m < hi-1.
func partition(ids []int, lo, hi int, key, area []float64) (m int, left float64) {
	a, b, c := lo, lo+(hi-lo)/2, hi-1
	if before(key, ids[b], ids[a]) {
		a, b = b, a
	}
	if before(key, ids[c], ids[b]) {
		b = c
		if before(key, ids[b], ids[a]) {
			b = a
		}
	}
	ids[lo], ids[b] = ids[b], ids[lo]
	p := ids[lo]
	i, j := lo+1, hi-1
	for {
		for i <= j && before(key, ids[i], p) {
			left += area[ids[i]]
			i++
		}
		for i <= j && before(key, p, ids[j]) {
			j--
		}
		if i > j {
			break
		}
		ids[i], ids[j] = ids[j], ids[i]
		left += area[ids[i]]
		i++
		j--
	}
	ids[lo], ids[j] = ids[j], ids[lo]
	return j, left
}

// writeBack converts centers to clamped lower-left positions.
func writeBack(d *netlist.Design, cx, cy []float64, movable []bool) {
	for i, in := range d.Insts {
		if !movable[i] {
			continue
		}
		x := int64(cx[i]) - in.Width()/2
		y := int64(cy[i]) - in.Height()/2
		x = geom.ClampInt64(x, d.Die.Lo.X, d.Die.Hi.X-in.Width())
		y = geom.ClampInt64(y, d.Die.Lo.Y, d.Die.Hi.Y-in.Height())
		in.Pos = geom.Point{X: x, Y: y}
	}
}
