package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"time"

	"mthplace/internal/errs"
	"mthplace/internal/lp"
	"mthplace/internal/milp"
	"mthplace/internal/netlist"
	"mthplace/internal/obs"
	"mthplace/internal/rap"
	"mthplace/internal/rowgrid"
	"mthplace/internal/tech"
)

// Assignment is a RAP solution on the uniform pair grid.
type Assignment struct {
	// ClusterPair maps cluster index to its assigned pair index.
	ClusterPair []int
	// MinorityPairs is the sorted set of pairs chosen as minority rows.
	MinorityPairs []int
	// Objective is Σ f_cr over the assignment.
	Objective float64
	// Stats describe the solve.
	Stats SolveStats
}

// Ladder rungs, best to worst: the proven ILP optimum, the best incumbent
// an interrupted branch-and-bound had in hand, the greedy heuristic.
const (
	RungILP     = "ilp"
	RungAnytime = "anytime"
	RungGreedy  = "greedy"
)

// SolveStats report how a solution was obtained.
type SolveStats struct {
	Method     string // "ilp" or "greedy"
	NumVars    int
	NumBinary  int
	Nodes      int
	LPIters    int
	MILPStatus milp.Status
	Runtime    time.Duration
	// Optimal is true when the ILP proved optimality.
	Optimal bool
	// Rung names the degradation-ladder rung that produced the answer:
	// RungILP (proven optimum), RungAnytime (best incumbent of an
	// interrupted search), or RungGreedy (heuristic fallback).
	Rung string
	// Degraded is true when a limit or deadline forced the solve below the
	// RungILP it was asked for. A ForceGreedy solve is not degraded — the
	// caller got exactly what it requested.
	Degraded bool
	// DegradeReason says what forced the drop: "node-limit", "time-limit"
	// (the solver's own budgets), "deadline" (the caller's context), or
	// "pruned-infeasible" (candidate pruning cut off every ILP solution).
	DegradeReason string
	// Gap is the relative optimality-gap bound of the answer: 0 when
	// proven optimal, the (incumbent − bound)/|incumbent| bound for an
	// anytime incumbent, and -1 when no bound is known (greedy rung).
	Gap float64
}

// DegradePolicy selects what a RAP solve does when it cannot deliver the
// proven ILP optimum (a budget ran out, the context deadline expired, or
// candidate pruning made the ILP infeasible).
type DegradePolicy int8

const (
	// DegradeAnytime (the default) walks the ladder: proven ILP optimum →
	// the interrupted search's best incumbent (with its gap bound) → the
	// greedy heuristic. The solve then always returns the best feasible
	// answer it found, with Stats recording the rung, the reason and the
	// gap; only cancellation and genuine infeasibility surface as errors.
	DegradeAnytime DegradePolicy = iota
	// DegradeStrict fails fast: anything short of the proven optimum is an
	// error (ErrTimeout for an expired deadline, ErrTransient for an
	// exhausted solver budget or a pruning artifact). The oracle and
	// differential tests run Strict so a silently degraded solve can never
	// masquerade as the exact answer.
	DegradeStrict
)

// String implements fmt.Stringer.
func (p DegradePolicy) String() string {
	if p == DegradeStrict {
		return "strict"
	}
	return "anytime"
}

// Solver backends selectable through SolveOptions.Backend. All of them
// solve the same Eqs. (3)–(5) instance behind the same Solve entry point
// and degradation ladder; they differ in how.
const (
	// BackendMILP (the default) linearises the RAP into a mixed-binary LP
	// and runs the generic internal/milp branch and bound with root cuts.
	BackendMILP = "milp"
	// BackendRAP runs the structure-aware internal/rap solver: sparse
	// per-cluster candidate lists, Lagrangian capacity bounds, and branch
	// and bound on cluster→row arcs.
	BackendRAP = "rap"
	// BackendGreedy runs only the greedy heuristic (the same ablation as
	// ForceGreedy, as a named backend).
	BackendGreedy = "greedy"
)

// SolveOptions tune the RAP solver.
type SolveOptions struct {
	// Backend selects the solver implementation behind Solve: BackendMILP
	// (default when empty), BackendRAP, or BackendGreedy.
	Backend string
	// CandidateRows prunes each cluster's x_cr variables to its K cheapest
	// pairs (0 = keep all N_R). The union always keeps enough capacity;
	// pruning is a runtime/optimality trade documented in DESIGN.md.
	CandidateRows int
	// MILP passes through to the branch-and-bound solver.
	MILP milp.Options
	// RootCuts bounds the number of x_cr ≤ y_r strengthening cuts generated
	// at the root (0 = default 600; negative disables cutting).
	RootCuts int
	// ForceGreedy skips the ILP entirely (used by ablations).
	ForceGreedy bool
	// Degrade selects the ladder policy (default DegradeAnytime).
	Degrade DegradePolicy
}

// Solve solves the RAP model with the backend selected by opt.Backend,
// behind one contract: identical Assignment/SolveStats semantics, the same
// degradation ladder, and objective-equal results at proven optimality
// (both exact backends search the same pruned candidate space). An unknown
// backend name is an error.
func Solve(ctx context.Context, m *Model, opt SolveOptions) (*Assignment, error) {
	switch opt.Backend {
	case "", BackendMILP:
		return SolveILP(ctx, m, opt)
	case BackendRAP:
		return SolveRAP(ctx, m, opt)
	case BackendGreedy:
		opt.ForceGreedy = true
		return SolveILP(ctx, m, opt)
	default:
		return nil, fmt.Errorf("core: unknown solver backend %q (want %s, %s or %s)",
			opt.Backend, BackendMILP, BackendRAP, BackendGreedy)
	}
}

// rapNodeScale converts the MILP node budget into a rap one: a rap node
// costs a few subgradient sweeps over the sparse arcs, where a MILP node
// costs a dense LP solve, so the same "effort" knob buys far more of them.
const rapNodeScale = 500

// SolveRAP solves the RAP model with the structure-aware internal/rap
// backend: the same greedy warm start and candidate pruning as SolveILP,
// then Lagrangian-bounded branch and bound on the sparse arc instance.
// Budgets, cancellation semantics and the degradation ladder mirror
// SolveILP exactly (opt.MILP supplies RelGap and TimeLimit; MaxNodes is
// scaled by rapNodeScale).
func SolveRAP(ctx context.Context, m *Model, opt SolveOptions) (*Assignment, error) {
	start := time.Now()
	greedy, err := SolveGreedy(m)
	if err != nil {
		return nil, err
	}
	if err := errs.FromContext(ctx); err != nil {
		if opt.Degrade == DegradeAnytime && errors.Is(err, errs.ErrTimeout) {
			return degradeToGreedy(greedy, start, "deadline")
		}
		return nil, fmt.Errorf("core: RAP solve: %w", err)
	}
	nC := m.Clusters.N()
	if opt.ForceGreedy || nC == 0 {
		greedy.Stats.Runtime = time.Since(start)
		return greedy, nil
	}

	cand := pruneCandidates(m, greedy, opt.CandidateRows)
	inst := &rap.Instance{
		NR:    m.NR,
		NminR: m.NminR,
		Cap:   m.Cap,
		Width: m.Clusters.Width,
		Cand:  make([][]rap.Arc, nC),
	}
	warm := make([]int32, nC)
	for c := 0; c < nC; c++ {
		arcs := make([]rap.Arc, len(cand[c]))
		for i, r := range cand[c] {
			arcs[i] = rap.Arc{Row: int32(r), Cost: m.Cost[c][r]}
		}
		inst.Cand[c] = arcs
		warm[c] = int32(greedy.ClusterPair[c])
	}
	ropt := rap.Options{
		MaxNodes: opt.MILP.MaxNodes * rapNodeScale,
		RelGap:   opt.MILP.RelGap,
	}
	if opt.MILP.TimeLimit > 0 {
		ropt.TimeLimit = opt.MILP.TimeLimit - time.Since(start)
		if ropt.TimeLimit < time.Second {
			ropt.TimeLimit = time.Second
		}
	}
	res, err := rap.Solve(ctx, inst, warm, ropt)
	if err != nil {
		return nil, fmt.Errorf("core: RAP solve: %w", err)
	}
	ctxErr := errs.FromContext(ctx)
	if ctxErr != nil && (opt.Degrade != DegradeAnytime || !errors.Is(ctxErr, errs.ErrTimeout)) {
		return nil, fmt.Errorf("core: RAP branch and bound: %w", ctxErr)
	}
	reason := degradeReasonFrom(res.Status, res.Stop, ctxErr)
	if res.Status == milp.Infeasible || res.Status == milp.Limit {
		if opt.Degrade == DegradeStrict {
			return nil, errs.Transient("core: RAP search ended %v (%s) without a usable incumbent", res.Status, reason)
		}
		greedy.Stats.MILPStatus = res.Status
		return degradeToGreedy(greedy, start, reason)
	}
	if opt.Degrade == DegradeStrict && res.Status != milp.Optimal {
		return nil, errs.Transient("core: RAP search stopped (%s) before proving optimality", reason)
	}

	out := &Assignment{ClusterPair: make([]int, nC)}
	chosen := map[int]bool{}
	for c := 0; c < nC; c++ {
		out.ClusterPair[c] = int(res.Assign[c])
		chosen[out.ClusterPair[c]] = true
	}
	out.MinorityPairs = slices.Sorted(maps.Keys(chosen))
	out.Objective = objectiveOf(m, out.ClusterPair)
	out.Stats = SolveStats{
		Method:     "rap",
		NumVars:    inst.NumArcs() + m.NR,
		NumBinary:  inst.NumArcs() + m.NR,
		Nodes:      res.Nodes,
		LPIters:    res.Iters,
		MILPStatus: res.Status,
		Runtime:    time.Since(start),
		Optimal:    res.Status == milp.Optimal,
		Rung:       RungILP,
	}
	if res.Status != milp.Optimal {
		out.Stats.Rung = RungAnytime
		out.Stats.Degraded = true
		out.Stats.DegradeReason = reason
		out.Stats.Gap = gapOf(res)
	}
	if len(out.MinorityPairs) > m.NminR {
		return nil, fmt.Errorf("core: RAP produced %d minority pairs, budget %d", len(out.MinorityPairs), m.NminR)
	}
	padMinorityPairs(m, out)
	return out, nil
}

// SolveILP solves the RAP model exactly (Eqs. (1)–(5)) via the internal
// MILP solver, warm-started with the greedy solution. Eq. (5)'s max-based
// row-usage indicator is linearised with binaries y_r:
//
//	Σ_r x_cr = 1                    ∀c        (Eq. 3)
//	Σ_c w(c)·x_cr ≤ w(r)·y_r        ∀r        (Eq. 4 + linking)
//	Σ_r y_r = N_minR                          (Eq. 5)
//
// Cancellation is honoured between the greedy warm start, each root-cut
// round and each branch-and-bound node: a canceled ctx returns
// errs.ErrCanceled within one LP solve. Deadline expiry depends on the
// degradation policy (opt.Degrade): the default DegradeAnytime returns the
// best feasible answer in hand — the interrupted search's incumbent with
// its gap bound, or the greedy warm start — with Stats recording the rung;
// DegradeStrict surfaces errs.ErrTimeout instead (and ErrTransient when a
// solver budget ran out), so nothing short of the proven optimum is ever
// returned silently.
func SolveILP(ctx context.Context, m *Model, opt SolveOptions) (*Assignment, error) {
	start := time.Now()
	greedy, err := SolveGreedy(m)
	if err != nil {
		return nil, err
	}
	if err := errs.FromContext(ctx); err != nil {
		if opt.Degrade == DegradeAnytime && errors.Is(err, errs.ErrTimeout) {
			return degradeToGreedy(greedy, start, "deadline")
		}
		return nil, fmt.Errorf("core: RAP solve: %w", err)
	}
	if opt.ForceGreedy {
		greedy.Stats.Runtime = time.Since(start)
		return greedy, nil
	}
	nC, nR := m.Clusters.N(), m.NR
	if nC == 0 {
		greedy.Stats.Runtime = time.Since(start)
		return greedy, nil
	}

	cand := pruneCandidates(m, greedy, opt.CandidateRows)

	prob := lp.NewProblem()
	xVar := make([]map[int]int, nC) // cluster -> row -> var
	for c := 0; c < nC; c++ {
		xVar[c] = make(map[int]int, len(cand[c]))
		for _, r := range cand[c] {
			xVar[c][r] = prob.AddVar(m.Cost[c][r], 0, 1)
		}
	}
	yVar := make([]int, nR)
	for r := 0; r < nR; r++ {
		yVar[r] = prob.AddVar(0, 0, 1)
	}
	// Eq. 3.
	for c := 0; c < nC; c++ {
		row := prob.AddConstraint(lp.EQ, 1)
		for _, r := range cand[c] {
			prob.AddTerm(row, xVar[c][r], 1)
		}
	}
	// Eq. 4 with linking. A row left unreachable by candidate pruning gets
	// no capacity constraint at all: with no x_cr terms the constraint would
	// be the vacuous −w(r)·y_r ≤ 0, and the indicator y_r may still count
	// toward Eq. 5 (an empty minority row is legal).
	for r := 0; r < nR; r++ {
		row := -1
		for c := 0; c < nC; c++ {
			if v, ok := xVar[c][r]; ok {
				if row < 0 {
					row = prob.AddConstraint(lp.LE, 0)
				}
				prob.AddTerm(row, v, float64(m.Clusters.Width[c]))
			}
		}
		if row >= 0 {
			prob.AddTerm(row, yVar[r], -float64(m.Cap))
		}
	}
	// Eq. 5.
	card := prob.AddConstraint(lp.EQ, float64(m.NminR))
	for r := 0; r < nR; r++ {
		prob.AddTerm(card, yVar[r], 1)
	}

	// Root cut generation: the aggregated capacity linking (Eq. 4) leaves a
	// weak LP relaxation — fractional y_r can spread thinly across all rows
	// while every cluster sits wholly on its cheapest row. The classic
	// facility-location strengthening x_cr ≤ y_r closes most of that gap;
	// adding all N_C·N_R of them up front would blow up the basis, so we
	// generate only the violated ones from successive LP relaxations.
	maxCuts := opt.RootCuts
	if maxCuts == 0 {
		maxCuts = 400
	}
	if maxCuts > 0 {
		totalCuts := 0
		for round := 0; round < 6 && totalCuts < maxCuts; round++ {
			if err := errs.FromContext(ctx); err != nil {
				if opt.Degrade == DegradeAnytime && errors.Is(err, errs.ErrTimeout) {
					return degradeToGreedy(greedy, start, "deadline")
				}
				return nil, fmt.Errorf("core: RAP root cuts: %w", err)
			}
			// The cut loop shares the MILP time budget: at most half of it
			// may go into root strengthening so the search still gets time.
			if opt.MILP.TimeLimit > 0 && time.Since(start) > opt.MILP.TimeLimit/2 {
				break
			}
			rel := prob.Solve(lp.Options{})
			if rel.Status != lp.Optimal {
				break
			}
			// The LP relaxation is a lower bound on the ILP optimum: once
			// the greedy incumbent matches it (within the MILP gap), the
			// greedy solution is proven optimal and the search is skipped.
			gap := opt.MILP.RelGap
			if gap < 1e-5 {
				gap = 1e-5 // absorb LP numerical slop on ~1e6-scale costs
			}
			if greedy.Objective <= rel.Obj+gap*math.Max(1, math.Abs(greedy.Objective)) {
				greedy.Stats.Method = "ilp"
				greedy.Stats.NumVars = prob.NumVars()
				greedy.Stats.Optimal = true
				greedy.Stats.MILPStatus = milp.Optimal
				greedy.Stats.Rung = RungILP
				greedy.Stats.Gap = 0
				greedy.Stats.Runtime = time.Since(start)
				// The root relaxation proved the warm start optimal, so the
				// branch and bound never runs: report the proof as the solve's
				// one (and final) incumbent so progress consumers always see
				// the winning objective.
				obs.Emit(ctx, obs.Event{Source: "milp", Kind: "incumbent",
					Objective: greedy.Objective, Gap: 0,
					ElapsedMS: float64(time.Since(start).Microseconds()) / 1000})
				obs.Instant(ctx, "milp.incumbent", map[string]any{
					"objective": greedy.Objective, "gap": 0.0, "root_proof": true,
				})
				return greedy, nil
			}
			type viol struct {
				c, r int
				v    float64
			}
			var vs []viol
			for c := 0; c < nC; c++ {
				for _, r := range cand[c] {
					if d := rel.X[xVar[c][r]] - rel.X[yVar[r]]; d > 0.01 {
						vs = append(vs, viol{c, r, d})
					}
				}
			}
			if len(vs) == 0 {
				break
			}
			sort.Slice(vs, func(a, b int) bool {
				if vs[a].v != vs[b].v {
					return vs[a].v > vs[b].v
				}
				return vs[a].c*nR+vs[a].r < vs[b].c*nR+vs[b].r
			})
			room := maxCuts - totalCuts
			if len(vs) > room {
				vs = vs[:room]
			}
			for _, vv := range vs {
				row := prob.AddConstraint(lp.LE, 0)
				prob.AddTerm(row, xVar[vv.c][vv.r], 1)
				prob.AddTerm(row, yVar[vv.r], -1)
			}
			totalCuts += len(vs)
		}
	}

	bins := make([]int, 0, prob.NumVars())
	pri := make([]float64, prob.NumVars())
	for c := 0; c < nC; c++ {
		for _, r := range cand[c] {
			bins = append(bins, xVar[c][r])
		}
	}
	for r := 0; r < nR; r++ {
		bins = append(bins, yVar[r])
		pri[yVar[r]] = 4 // branch row indicators first
	}

	// Warm start from greedy.
	warm := make([]float64, prob.NumVars())
	for c := 0; c < nC; c++ {
		warm[xVar[c][greedy.ClusterPair[c]]] = 1
	}
	for _, r := range greedy.MinorityPairs {
		warm[yVar[r]] = 1
	}

	milpOpt := opt.MILP
	if milpOpt.TimeLimit > 0 {
		milpOpt.TimeLimit -= time.Since(start)
		if milpOpt.TimeLimit < time.Second {
			milpOpt.TimeLimit = time.Second
		}
	}
	res := milp.Solve(ctx, &milp.Problem{LP: prob, Binary: bins, Priority: pri}, warm, milpOpt)
	ctxErr := errs.FromContext(ctx)
	if ctxErr != nil && (opt.Degrade != DegradeAnytime || !errors.Is(ctxErr, errs.ErrTimeout)) {
		// The caller gave up (cancel), or a Strict solve refuses to hand
		// back an unproven answer after its deadline expired.
		return nil, fmt.Errorf("core: RAP branch and bound: %w", ctxErr)
	}
	reason := degradeReason(res, ctxErr)
	if res.Status == milp.Infeasible || res.Status == milp.Limit {
		// No usable incumbent came out of the search (pruning can in
		// principle make the ILP infeasible; the greedy solution is always
		// feasible): the ladder's last rung.
		if opt.Degrade == DegradeStrict {
			return nil, errs.Transient("core: RAP search ended %v (%s) without a usable incumbent", res.Status, reason)
		}
		greedy.Stats.MILPStatus = res.Status
		return degradeToGreedy(greedy, start, reason)
	}
	if opt.Degrade == DegradeStrict && res.Status != milp.Optimal {
		return nil, errs.Transient("core: RAP search stopped (%s) before proving optimality", reason)
	}

	out := &Assignment{ClusterPair: make([]int, nC)}
	for c := 0; c < nC; c++ {
		best, bestV := greedy.ClusterPair[c], 0.5
		for _, r := range cand[c] {
			if v := res.X[xVar[c][r]]; v > bestV {
				best, bestV = r, v
			}
		}
		out.ClusterPair[c] = best
	}
	chosen := map[int]bool{}
	for r := 0; r < nR; r++ {
		if res.X[yVar[r]] > 0.5 {
			chosen[r] = true
		}
	}
	for _, r := range out.ClusterPair {
		chosen[r] = true
	}
	out.MinorityPairs = slices.Sorted(maps.Keys(chosen))
	out.Objective = objectiveOf(m, out.ClusterPair)
	out.Stats = SolveStats{
		Method:     "ilp",
		NumVars:    prob.NumVars(),
		NumBinary:  len(bins),
		Nodes:      res.Nodes,
		LPIters:    res.LPIters,
		MILPStatus: res.Status,
		Runtime:    time.Since(start),
		Optimal:    res.Status == milp.Optimal,
		Rung:       RungILP,
	}
	if res.Status != milp.Optimal {
		// Anytime incumbent: the search was cut short but had a feasible
		// solution in hand; return it with its optimality-gap bound instead
		// of throwing it away.
		out.Stats.Rung = RungAnytime
		out.Stats.Degraded = true
		out.Stats.DegradeReason = reason
		out.Stats.Gap = gapOf(res)
	}
	if len(out.MinorityPairs) > m.NminR {
		return nil, fmt.Errorf("core: ILP produced %d minority pairs, budget %d", len(out.MinorityPairs), m.NminR)
	}
	padMinorityPairs(m, out)
	return out, nil
}

// degradeToGreedy annotates the greedy warm start as the ladder's last
// rung and returns it: the answer is feasible but carries no optimality
// bound (Gap = -1).
func degradeToGreedy(greedy *Assignment, start time.Time, reason string) (*Assignment, error) {
	greedy.Stats.Runtime = time.Since(start)
	greedy.Stats.Rung = RungGreedy
	greedy.Stats.Degraded = true
	greedy.Stats.DegradeReason = reason
	greedy.Stats.Gap = -1
	return greedy, nil
}

// pruneCandidates keeps each cluster's k cheapest pairs plus its
// greedy-chosen pair (so the warm start stays representable), each list
// sorted ascending by pair index. k <= 0 or k >= N_R keeps every pair.
// Both exact backends search exactly this candidate space, which is what
// makes their proven optima objective-equal. One index buffer is resorted
// per cluster, so the hot path allocates only the kept lists (see
// BenchmarkCandidatePruning).
func pruneCandidates(m *Model, greedy *Assignment, k int) [][]int {
	nC, nR := m.Clusters.N(), m.NR
	cand := make([][]int, nC)
	if k <= 0 || k >= nR {
		all := indexSeq(nR) // shared: candidate lists are read-only
		for c := range cand {
			cand[c] = all
		}
		return cand
	}
	idx := make([]int, nR)
	for c := 0; c < nC; c++ {
		for i := range idx {
			idx[i] = i
		}
		costs := m.Cost[c]
		slices.SortFunc(idx, func(a, b int) int {
			if costs[a] != costs[b] {
				if costs[a] < costs[b] {
					return -1
				}
				return 1
			}
			return a - b
		})
		keep := make([]int, k, k+1)
		copy(keep, idx[:k])
		if !slices.Contains(keep, greedy.ClusterPair[c]) {
			keep = append(keep, greedy.ClusterPair[c])
		}
		slices.Sort(keep)
		cand[c] = keep
	}
	return cand
}

// degradeReason names what stopped the search short of a proof.
func degradeReason(res *milp.Result, ctxErr error) string {
	return degradeReasonFrom(res.Status, res.Stop, ctxErr)
}

// degradeReasonFrom is the backend-agnostic form over the shared anytime
// types.
func degradeReasonFrom(status milp.Status, stop milp.StopReason, ctxErr error) string {
	if status == milp.Infeasible {
		return "pruned-infeasible"
	}
	if ctxErr != nil {
		return "deadline"
	}
	switch stop {
	case milp.StopNodeLimit:
		return "node-limit"
	case milp.StopTimeLimit:
		return "time-limit"
	case milp.StopContext:
		return "deadline"
	default:
		return ""
	}
}

// gapOf clamps a solver gap bound into the SolveStats convention: a finite
// non-negative ratio, or -1 when the search produced no usable bound. Both
// backends' results implement the same Gap convention.
func gapOf(res interface{ Gap() float64 }) float64 {
	g := res.Gap()
	if math.IsInf(g, 0) || math.IsNaN(g) {
		return -1
	}
	if g < 0 {
		return 0
	}
	return g
}

// padMinorityPairs tops the chosen set up to exactly N_minR pairs (empty
// minority rows are legal and keep the fairness rule N_minR = Flow (2)'s).
func padMinorityPairs(m *Model, a *Assignment) {
	have := map[int]bool{}
	for _, r := range a.MinorityPairs {
		have[r] = true
	}
	for r := 0; len(a.MinorityPairs) < m.NminR && r < m.NR; r++ {
		if !have[r] {
			a.MinorityPairs = append(a.MinorityPairs, r)
			have[r] = true
		}
	}
	sort.Ints(a.MinorityPairs)
}

// SolveGreedy builds a feasible RAP solution: choose N_minR pairs at the
// weighted quantiles of the cluster y-distribution, assign clusters
// cheapest-first under capacity, then improve with relocation passes. It is
// both the ILP warm start and the large-instance fallback.
func SolveGreedy(m *Model) (*Assignment, error) {
	start := time.Now()
	nC, nR := m.Clusters.N(), m.NR
	out := &Assignment{ClusterPair: make([]int, nC)}
	if nC == 0 {
		for r := 0; r < m.NminR; r++ {
			out.MinorityPairs = append(out.MinorityPairs, r)
		}
		out.Stats = SolveStats{Method: "greedy", Runtime: time.Since(start), Rung: RungGreedy, Gap: 0}
		return out, nil
	}

	// Quantile seeding over cluster centers weighted by width.
	type cw struct {
		y float64
		w int64
	}
	cws := make([]cw, nC)
	var totalW int64
	for c := 0; c < nC; c++ {
		cws[c] = cw{m.Clusters.CenterY[c], m.Clusters.Width[c]}
		totalW += m.Clusters.Width[c]
	}
	sort.Slice(cws, func(a, b int) bool { return cws[a].y < cws[b].y })
	chosen := make([]bool, nR)
	var pairs []int
	var acc int64
	k := 0
	for _, e := range cws {
		acc += e.w
		for k < m.NminR && acc*int64(m.NminR) >= totalW*int64(k)+totalW/2 {
			r := nearestFreePair(m, e.y, chosen)
			if r >= 0 {
				chosen[r] = true
				pairs = append(pairs, r)
			}
			k++
		}
	}
	for len(pairs) < m.NminR {
		for r := 0; r < nR; r++ {
			if !chosen[r] {
				chosen[r] = true
				pairs = append(pairs, r)
				break
			}
		}
	}
	sort.Ints(pairs)

	// Cheapest-feasible assignment, widest clusters first.
	order := indexSeq(nC)
	sort.Slice(order, func(a, b int) bool {
		if m.Clusters.Width[order[a]] != m.Clusters.Width[order[b]] {
			return m.Clusters.Width[order[a]] > m.Clusters.Width[order[b]]
		}
		return order[a] < order[b]
	})
	load := make([]int64, nR)
	for _, c := range order {
		best, bestCost := -1, math.Inf(1)
		for _, r := range pairs {
			if load[r]+m.Clusters.Width[c] > m.Cap {
				continue
			}
			if m.Cost[c][r] < bestCost {
				best, bestCost = r, m.Cost[c][r]
			}
		}
		if best < 0 {
			return nil, errs.Infeasible("core: greedy could not host cluster %d (width %d)", c, m.Clusters.Width[c])
		}
		out.ClusterPair[c] = best
		load[best] += m.Clusters.Width[c]
	}

	// Relocation improvement passes.
	for pass := 0; pass < 4; pass++ {
		improved := false
		for c := 0; c < nC; c++ {
			cur := out.ClusterPair[c]
			for _, r := range pairs {
				if r == cur || load[r]+m.Clusters.Width[c] > m.Cap {
					continue
				}
				if m.Cost[c][r]+1e-9 < m.Cost[c][cur] {
					load[cur] -= m.Clusters.Width[c]
					load[r] += m.Clusters.Width[c]
					out.ClusterPair[c] = r
					cur = r
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}

	out.MinorityPairs = pairs
	out.Objective = objectiveOf(m, out.ClusterPair)
	out.Stats = SolveStats{Method: "greedy", Runtime: time.Since(start), Rung: RungGreedy, Gap: -1}
	return out, nil
}

func nearestFreePair(m *Model, y float64, chosen []bool) int {
	best, bestD := -1, math.Inf(1)
	for r := 0; r < m.NR; r++ {
		if chosen[r] {
			continue
		}
		d := math.Abs(float64(m.PairCenterY[r]) - y)
		if d < bestD {
			best, bestD = r, d
		}
	}
	return best
}

func objectiveOf(m *Model, clusterPair []int) float64 {
	var obj float64
	for c, r := range clusterPair {
		obj += m.Cost[c][r]
	}
	return obj
}

// indexSeq returns the slice [0, 1, ..., n-1].
func indexSeq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// RowAssignment is the complete outcome of AssignRows: the restacked die and
// the minority-cell seeding derived from the cluster assignment.
type RowAssignment struct {
	// Heights is the per-pair track-height vector (uniform-grid order).
	Heights []tech.TrackHeight
	// Stack is the restacked die.
	Stack *rowgrid.MixedStack
	// CellPair maps each minority instance to its assigned pair index.
	CellPair map[int32]int
	// SeedY maps each minority instance to the bottom y of its pair in the
	// restacked die (input to the fence-aware legalizer).
	SeedY map[int32]int64
	// Assignment is the underlying RAP solution.
	Assignment *Assignment
	// Clusters used by the solve.
	Clusters *Clusters
}

// Options bundle the full row-assignment configuration (§III).
type Options struct {
	// S is the clustering resolution (paper: 0.2).
	S float64
	// Cost holds α and the capacity derating.
	Cost CostParams
	// Solve tunes the ILP.
	Solve SolveOptions
	// KMeansIters bounds the Lloyd iterations (default 30).
	KMeansIters int
}

// DefaultOptions mirror the paper's final parameter choices (s = 0.2,
// α = 0.75). The MILP budgets differ from CPLEX's pure optimality run: the
// branch and bound stops at a 0.2% optimality gap or 40 nodes (documented
// substitution in DESIGN.md — the root cuts almost always prove optimality
// at the root anyway, and a 0.2% objective slack is far below the
// flow-to-flow differences the experiments measure).
func DefaultOptions() Options {
	return Options{
		S:    0.2,
		Cost: DefaultCostParams(),
		Solve: SolveOptions{
			CandidateRows: 12,
			MILP:          milp.Options{MaxNodes: 40, RelGap: 0.002, TimeLimit: 12 * time.Second},
		},
	}
}

// AssignRows runs the full proposed row assignment on a design in mLEF form
// placed on the uniform grid g: cluster, build the ILP cost model, solve,
// restack the die, and derive the per-cell seeding. Each stage honours
// ctx cancellation (see BuildClusters, BuildModel and SolveILP) and runs
// its parallel parts on the pool carried by ctx.
func AssignRows(ctx context.Context, d *netlist.Design, g rowgrid.PairGrid, nMinR int, opt Options) (*RowAssignment, error) {
	cl, err := BuildClusters(ctx, d, opt.S, opt.KMeansIters)
	if err != nil {
		return nil, err
	}
	model, err := BuildModel(ctx, d, g, cl, nMinR, opt.Cost)
	if err != nil {
		return nil, err
	}
	sol, err := SolveILP(ctx, model, opt.Solve)
	if err != nil {
		return nil, err
	}
	return Finalize(d, g, model, cl, sol)
}

// Finalize converts a RAP solution into the restacked die and cell seeding.
func Finalize(d *netlist.Design, g rowgrid.PairGrid, m *Model, cl *Clusters, sol *Assignment) (*RowAssignment, error) {
	hs := m.Heights(sol.MinorityPairs)
	ms, err := rowgrid.Stack(d.Die, hs, d.Tech)
	if err != nil {
		return nil, err
	}
	ra := &RowAssignment{
		Heights:    hs,
		Stack:      ms,
		CellPair:   make(map[int32]int),
		SeedY:      make(map[int32]int64),
		Assignment: sol,
		Clusters:   cl,
	}
	for c, r := range sol.ClusterPair {
		for _, i := range cl.Members[c] {
			ra.CellPair[i] = r
			ra.SeedY[i] = ms.Y[r]
		}
	}
	return ra, nil
}
