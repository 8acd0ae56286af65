package placer

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mthplace/internal/celllib"
	"mthplace/internal/geom"
	"mthplace/internal/lefdef"
	"mthplace/internal/netlist"
	"mthplace/internal/synth"
	"mthplace/internal/tech"
)

func genPlaced(t *testing.T, scale float64, opt Options) *netlist.Design {
	t.Helper()
	d := genMLEF(t, synth.TableII()[0], scale)
	Global(d, opt)
	return d
}

// genMLEF generates spec at scale in mLEF form, not yet placed.
func genMLEF(t testing.TB, spec synth.Spec, scale float64) *netlist.Design {
	t.Helper()
	tc := tech.Default()
	lib := celllib.New(tc)
	so := synth.DefaultOptions()
	so.Scale = scale
	d, err := synth.Generate(tc, lib, spec, so)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lefdef.ApplyMLEF(d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGlobalKeepsCellsInsideDie(t *testing.T) {
	d := genPlaced(t, 0.02, Options{OuterIters: 5, SolveSweeps: 8})
	for i, in := range d.Insts {
		r := in.Rect()
		if !d.Die.ContainsRect(r) {
			t.Fatalf("inst %d at %v outside die %v", i, r, d.Die)
		}
	}
}

func TestGlobalBeatsRandomPlacement(t *testing.T) {
	d := genPlaced(t, 0.03, Options{})
	placed := d.TotalHPWL()
	// Random placement baseline.
	rng := rand.New(rand.NewSource(123))
	for _, in := range d.Insts {
		in.Pos = geom.Point{
			X: d.Die.Lo.X + rng.Int63n(d.Die.W()-in.Width()),
			Y: d.Die.Lo.Y + rng.Int63n(d.Die.H()-in.Height()),
		}
	}
	random := d.TotalHPWL()
	if placed >= random {
		t.Errorf("global placement HPWL %d not better than random %d", placed, random)
	}
	// Expect a substantial gap (at least 2x) — the placer must actually
	// optimise, not just centralise.
	if placed*2 >= random {
		t.Errorf("global placement HPWL %d less than 2x better than random %d", placed, random)
	}
}

func TestGlobalSpreadsDensity(t *testing.T) {
	d := genPlaced(t, 0.05, Options{})
	// Split the die into a 4x4 grid; no bin may hold more than 40% of total
	// cell area (perfect spread would be 6.25%).
	const grid = 4
	var binArea [grid][grid]float64
	var total float64
	for _, in := range d.Insts {
		c := in.Rect().Center()
		gx := int((c.X - d.Die.Lo.X) * grid / d.Die.W())
		gy := int((c.Y - d.Die.Lo.Y) * grid / d.Die.H())
		if gx >= grid {
			gx = grid - 1
		}
		if gy >= grid {
			gy = grid - 1
		}
		a := float64(in.Width()) * float64(in.Height())
		binArea[gx][gy] += a
		total += a
	}
	for x := 0; x < grid; x++ {
		for y := 0; y < grid; y++ {
			if binArea[x][y] > 0.40*total {
				t.Errorf("bin (%d,%d) holds %.1f%% of cell area — not spread",
					x, y, 100*binArea[x][y]/total)
			}
		}
	}
}

func TestGlobalDeterministic(t *testing.T) {
	a := genPlaced(t, 0.02, Options{Seed: 5})
	b := genPlaced(t, 0.02, Options{Seed: 5})
	for i := range a.Insts {
		if a.Insts[i].Pos != b.Insts[i].Pos {
			t.Fatalf("inst %d differs between identical runs", i)
		}
	}
}

func TestGlobalRespectsFixedCells(t *testing.T) {
	tc := tech.Default()
	lib := celllib.New(tc)
	so := synth.DefaultOptions()
	so.Scale = 0.02
	d, err := synth.Generate(tc, lib, synth.TableII()[0], so)
	if err != nil {
		t.Fatal(err)
	}
	fixedPos := geom.Point{X: 540, Y: 432}
	d.Insts[3].Fixed = true
	d.Insts[3].Pos = fixedPos
	Global(d, Options{OuterIters: 3, SolveSweeps: 4})
	if d.Insts[3].Pos != fixedPos {
		t.Errorf("fixed cell moved to %v", d.Insts[3].Pos)
	}
}

func TestGlobalEmptyDesign(t *testing.T) {
	tc := tech.Default()
	lib := celllib.New(tc)
	d := &netlist.Design{Name: "empty", Tech: tc, Lib: lib, Die: geom.NewRect(0, 0, 1000, 1000), ClockNet: netlist.NoNet}
	Global(d, Options{}) // must not panic
}

func TestGlobalPullsConnectedCellsTogether(t *testing.T) {
	d := genPlaced(t, 0.03, Options{})
	// Average HPWL of 2-pin nets should be far below the die half-perimeter.
	var sum, n int64
	for ni := range d.Nets {
		if int32(ni) == d.ClockNet || len(d.Nets[ni].Pins) != 2 {
			continue
		}
		sum += d.NetHPWL(int32(ni))
		n++
	}
	if n == 0 {
		t.Skip("no 2-pin nets")
	}
	avg := sum / n
	if avg > d.Die.HalfPerimeter()/4 {
		t.Errorf("avg 2-pin net HPWL %d too large vs die %d", avg, d.Die.HalfPerimeter())
	}
}

// bisectRef is the full-sort bisection that weightedSplit replaced: every
// level sorts its cells along the cut axis under (key, id) and scans for the
// half-area prefix. It is the equivalence oracle for bisect.
func bisectRef(ids []int, r rectF, cx, cy, area, ax, ay []float64, binTarget int) {
	if len(ids) == 0 {
		return
	}
	if len(ids) <= binTarget || (r.w() < 1 && r.h() < 1) {
		sort.Slice(ids, func(a, b int) bool {
			if cx[ids[a]] != cx[ids[b]] {
				return cx[ids[a]] < cx[ids[b]]
			}
			return ids[a] < ids[b]
		})
		for k, id := range ids {
			f := (float64(k) + 0.5) / float64(len(ids))
			ax[id] = r.x0 + f*r.w()
			ay[id] = r.y0 + r.h()/2
		}
		return
	}
	vertCut := r.w() >= r.h()
	sort.Slice(ids, func(a, b int) bool {
		va, vb := cy[ids[a]], cy[ids[b]]
		if vertCut {
			va, vb = cx[ids[a]], cx[ids[b]]
		}
		if va != vb {
			return va < vb
		}
		return ids[a] < ids[b]
	})
	var total float64
	for _, id := range ids {
		total += area[id]
	}
	half := total / 2
	var acc float64
	cut := 0
	for cut < len(ids)-1 {
		acc += area[ids[cut]]
		cut++
		if acc >= half {
			break
		}
	}
	fracArea := acc / total
	left, right := ids[:cut], ids[cut:]
	if vertCut {
		xm := r.x0 + r.w()*fracArea
		bisectRef(left, rectF{r.x0, r.y0, xm, r.y1}, cx, cy, area, ax, ay, binTarget)
		bisectRef(right, rectF{xm, r.y0, r.x1, r.y1}, cx, cy, area, ax, ay, binTarget)
	} else {
		ym := r.y0 + r.h()*fracArea
		bisectRef(left, rectF{r.x0, r.y0, r.x1, ym}, cx, cy, area, ax, ay, binTarget)
		bisectRef(right, rectF{r.x0, ym, r.x1, r.y1}, cx, cy, area, ax, ay, binTarget)
	}
}

// spreadCase is one bisection input: cell centers, areas, the cells to
// spread (in arrival order) and the region.
type spreadCase struct {
	cx, cy, area []float64
	ids          []int
	r            rectF
}

// checkSpread fails unless bisect and bisectRef write bit-identical targets
// for every cell, including the ones they must leave untouched.
func checkSpread(t *testing.T, name string, c spreadCase, binTarget int) {
	t.Helper()
	n := len(c.cx)
	targets := func(run func(ids []int, r rectF, cx, cy, area, ax, ay []float64, binTarget int)) ([]float64, []float64) {
		ax, ay := make([]float64, n), make([]float64, n)
		for i := range ax {
			ax[i], ay[i] = -1, -1
		}
		run(slices.Clone(c.ids), c.r, c.cx, c.cy, c.area, ax, ay, binTarget)
		return ax, ay
	}
	gx, gy := targets(bisect)
	wx, wy := targets(bisectRef)
	for i := range gx {
		if math.Float64bits(gx[i]) != math.Float64bits(wx[i]) || math.Float64bits(gy[i]) != math.Float64bits(wy[i]) {
			t.Fatalf("%s (bin %d): cell %d target (%v, %v), full-sort reference (%v, %v)",
				name, binTarget, i, gx[i], gy[i], wx[i], wy[i])
		}
	}
}

// designCase is the spread input Global builds for d at its current
// placement, optionally with centers snapped to a grid of the given pitch
// (many duplicate keys).
func designCase(d *netlist.Design, pitch float64) spreadCase {
	n := len(d.Insts)
	c := spreadCase{cx: make([]float64, n), cy: make([]float64, n), area: make([]float64, n)}
	for i, in := range d.Insts {
		ctr := in.Rect().Center()
		c.cx[i], c.cy[i] = float64(ctr.X), float64(ctr.Y)
		if pitch > 0 {
			c.cx[i] = math.Floor(c.cx[i]/pitch) * pitch
			c.cy[i] = math.Floor(c.cy[i]/pitch) * pitch
		}
		c.area[i] = float64(in.Width()) * float64(in.Height())
		if !in.Fixed {
			c.ids = append(c.ids, i)
		}
	}
	c.r = rectF{float64(d.Die.Lo.X), float64(d.Die.Lo.Y), float64(d.Die.Hi.X), float64(d.Die.Hi.Y)}
	return c
}

// synthCase builds n cells whose key, area and arrival order come from the
// given functions, in a w × h region.
func synthCase(n int, w, h float64, key func(i int) (x, y float64), area func(i int) float64, order func(i int) int) spreadCase {
	c := spreadCase{cx: make([]float64, n), cy: make([]float64, n), area: make([]float64, n), ids: make([]int, n), r: rectF{0, 0, w, h}}
	for i := 0; i < n; i++ {
		c.cx[i], c.cy[i] = key(i)
		c.area[i] = area(i)
		c.ids[i] = order(i)
	}
	return c
}

// TestSpreadMatchesSortReference proves the selection-based spread writes
// exactly the targets the full-sort bisection did, on placed designs and on
// inputs built to break a selection: ties, zero and equal areas, sorted and
// reverse-sorted arrival, sizes at the leaf boundary, sub-dbu regions.
func TestSpreadMatchesSortReference(t *testing.T) {
	for _, scale := range []float64{0.02, 0.05} {
		d := genPlaced(t, scale, Options{OuterIters: 3, SolveSweeps: 8})
		for _, bin := range []int{1, 2, 6, 17} {
			checkSpread(t, "placed design", designCase(d, 0), bin)
			checkSpread(t, "placed design, snapped keys", designCase(d, float64(d.Die.W())/16), bin)
		}
		// The unplaced generator output stacks cells on few coordinates.
		checkSpread(t, "unplaced design", designCase(genMLEF(t, synth.TableII()[0], scale), 0), 6)
	}

	const bin = 6
	rng := rand.New(rand.NewSource(7))
	ident := func(i int) int { return i }
	keys := []struct {
		name string
		f    func(i int) (float64, float64)
	}{
		{"all-equal keys", func(int) (float64, float64) { return 50, 50 }},
		{"duplicate keys", func(int) (float64, float64) { return float64(rng.Intn(4)), float64(rng.Intn(3)) }},
		{"ascending keys", func(i int) (float64, float64) { return float64(i), float64(i) }},
		{"descending keys", func(i int) (float64, float64) { return float64(-i), float64(-i) }},
		{"random keys", func(int) (float64, float64) { return rng.Float64() * 100, rng.Float64() * 100 }},
	}
	areas := []struct {
		name string
		f    func(i int) float64
	}{
		{"equal areas", func(int) float64 { return 4 }},
		{"zero areas", func(int) float64 { return 0 }},
		{"some zero areas", func(i int) float64 { return float64((i % 3) * (i % 5)) }},
		{"random areas", func(int) float64 { return float64(rng.Intn(9) * rng.Intn(9)) }},
		{"one dominant", func(i int) float64 {
			if i == 3 {
				return 1000
			}
			return 1
		}},
		{"ascending areas", func(i int) float64 { return float64(i) }},
		{"descending areas", func(i int) float64 { return float64(1000 - i) }},
	}
	orders := []struct {
		name string
		f    func(n int) func(i int) int
	}{
		{"sorted ids", func(int) func(int) int { return ident }},
		{"reverse ids", func(n int) func(int) int { return func(i int) int { return n - 1 - i } }},
		{"shuffled ids", func(n int) func(int) int { p := rng.Perm(n); return func(i int) int { return p[i] } }},
	}
	regions := []struct {
		name string
		f    [2]float64
	}{
		{"square region", [2]float64{100, 100}},
		{"tall region", [2]float64{3, 1000}},
		{"wide region", [2]float64{1000, 3}},
		{"one-dbu region", [2]float64{1, 1}},
		{"sub-dbu width", [2]float64{0.5, 40}},
		{"sub-dbu both", [2]float64{0.5, 0.25}},
		{"zero-width region", [2]float64{0, 10}},
	}
	cases := 0
	for _, n := range []int{1, 2, bin, bin + 1, 13, 14, 100, 1000} {
		for _, key := range keys {
			for _, area := range areas {
				for _, order := range orders {
					for _, r := range regions {
						c := synthCase(n, r.f[0], r.f[1], key.f, area.f, order.f(n))
						checkSpread(t, fmt.Sprintf("n=%d %s, %s, %s, %s", n, key.name, area.name, order.name, r.name), c, bin)
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d synthetic cases match", cases)
}

// TestWeightedSplitDepthLimit drives the sort fallback at every depth, down
// to zero (a plain sort): the cut and the set of cells left of it must be
// those of the full sort.
func TestWeightedSplitDepthLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(300)
		key, area := make([]float64, n), make([]float64, n)
		for i := range key {
			key[i] = float64(rng.Intn(1 + n/4))
			area[i] = float64(rng.Intn(5) * rng.Intn(5))
		}
		ids := rng.Perm(n)
		var total float64
		for _, id := range ids {
			total += area[id]
		}
		sorted := slices.Clone(ids)
		slices.SortFunc(sorted, byKey(key))
		want, acc := n-1, 0.0
		for k, id := range sorted[:n-1] {
			if acc += area[id]; acc >= total/2 {
				want = k + 1
				break
			}
		}
		for depth := 0; depth <= 2*bits.Len(uint(n)); depth++ {
			got := slices.Clone(ids)
			cut := weightedSplit(got, key, area, total/2, depth)
			if cut != want {
				t.Fatalf("trial %d depth %d: cut %d, full sort %d", trial, depth, cut, want)
			}
			left := slices.Clone(got[:cut])
			slices.Sort(left)
			ref := slices.Clone(sorted[:cut])
			slices.Sort(ref)
			if !slices.Equal(left, ref) {
				t.Fatalf("trial %d depth %d: left half %v, full sort %v", trial, depth, left, ref)
			}
		}
	}
}

// FuzzSpread checks bisect against the full-sort reference on arbitrary
// small inputs. Each 4-byte record of data is one cell: x and y center (so
// keys collide often) and width and height (zero allowed); w and h set the
// region in eighths of a dbu, so sub-dbu regions occur.
func FuzzSpread(f *testing.F) {
	f.Add([]byte{}, uint8(6), uint16(800), uint16(800))
	f.Add([]byte{1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2, 1, 1, 2, 2}, uint8(6), uint16(800), uint16(80))
	f.Add([]byte{9, 0, 0, 3, 8, 1, 0, 0, 7, 2, 5, 5, 6, 3, 1, 1, 5, 4, 0, 9, 4, 5, 2, 2, 3, 6, 3, 3, 2, 7, 4, 4, 1, 8, 0, 0}, uint8(1), uint16(4), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, binTarget uint8, w, h uint16) {
		n := min(len(data)/4, 2048)
		c := spreadCase{cx: make([]float64, n), cy: make([]float64, n), area: make([]float64, n), ids: make([]int, n)}
		for i := 0; i < n; i++ {
			rec := data[4*i : 4*i+4]
			c.cx[i], c.cy[i] = float64(rec[0]), float64(rec[1])
			c.area[i] = float64(rec[2]%16) * float64(rec[3]%16)
			c.ids[i] = (i * 7919) % n // 7919 is prime: a fixed permutation
		}
		c.r = rectF{0, 0, float64(w) / 8, float64(h) / 8}
		checkSpread(t, "fuzz", c, 1+int(binTarget%32))
	})
}

// benchDesign is nova_300 (the paper's largest Table II design) at a scale
// small enough for a CI smoke run, in mLEF form and unplaced.
func benchDesign(b *testing.B) *netlist.Design {
	for _, spec := range synth.TableII() {
		if spec.Name() == "nova_300" {
			return genMLEF(b, spec, 0.1)
		}
	}
	b.Fatal("nova_300 not in Table II")
	return nil
}

func BenchmarkGlobal(b *testing.B) {
	d := benchDesign(b)
	pos := d.Positions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, in := range d.Insts {
			in.Pos = pos[k]
		}
		Global(d, Options{})
	}
}

// BenchmarkSpread times one density-spreading pass over a globally placed
// design, the kernel the selection split replaced a sort in.
func BenchmarkSpread(b *testing.B) {
	d := benchDesign(b)
	Global(d, Options{})
	c := designCase(d, 0)
	movable := make([]bool, len(d.Insts))
	for _, id := range c.ids {
		movable[id] = true
	}
	ax, ay := make([]float64, len(c.cx)), make([]float64, len(c.cx))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spread(d, c.cx, c.cy, c.area, movable, ax, ay, 6)
	}
}
